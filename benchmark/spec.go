package main

import (
	"fmt"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/gen"
)

// batchSize is the events-per-batch of every workload: FeedBatch(512)
// in process, 512-event frames on the wire (sharon-load's default).
const batchSize = 512

// warmupEvents is fed to every freshly built system before its timed
// section starts; it is part of setup_s, not of any throughput clock.
const warmupEvents = 100_000

// rateSample is how many leading events MeasureRates sees when an
// engine workload builds its system.
const rateSample = 200_000

// latencyLimitMs is the served latency limit: a fixed rate counts as
// sustained when its tail stays under it and the backlog does not grow.
const latencyLimitMs = 50.0

// calibratedSeconds is the --seconds value the frozen counts below were
// calibrated for (BENCHMARK.json run_seconds).
const calibratedSeconds = 20

// spec is one workload: what it runs and the frozen load constants.
// Event counts are per second of --seconds, calibrated once at the seed
// commit on the machine recorded in README.md; they are never derived
// from the run being measured.
type spec struct {
	name   string
	engine bool // in-process sharon.System (true) or sharond children (false)
	// capPerSec is the closed-loop events sent per second of --seconds.
	capPerSec int
	// r1, r2 are the fixed open-loop rates in events/s (about 40 % and
	// 60-65 % of the seed events_per_s), each held for olShare of --seconds.
	r1, r2  int
	olShare float64
	// cluster selects router + two durable workers instead of one node.
	cluster bool
}

var specs = []spec{
	{name: "engine-shared", engine: true, capPerSec: 100_000, r1: 170_000, r2: 250_000, olShare: 0.2},
	{name: "engine-churn", engine: true, capPerSec: 70_000, r1: 120_000, r2: 170_000, olShare: 0.2},
	{name: "serve-stream", capPerSec: 260_000, r1: 260_000, r2: 420_000, olShare: 0.3},
	{name: "cluster-2w", cluster: true, capPerSec: 100_000, r1: 100_000, r2: 160_000, olShare: 0.3},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// counts are the event counts of one run's three phases, rounded down
// to whole batches.
type counts struct{ cap, r1, r2 int }

func (s spec) counts(seconds float64) counts {
	whole := func(n float64) int {
		b := int(n) / batchSize
		if b < 2 {
			b = 2
		}
		return b * batchSize
	}
	return counts{
		cap: whole(float64(s.capPerSec) * seconds),
		r1:  whole(float64(s.r1) * s.olShare * seconds),
		r2:  whole(float64(s.r2) * s.olShare * seconds),
	}
}

// servedQueries is the hot-path trio at the wire experiment's window
// geometry: one shared (C,D) segment, one fully private query.
var servedQueries = []string{
	"RETURN COUNT(*) PATTERN SEQ(A, B, C, D) WHERE [k] WITHIN 1024ms SLIDE 256ms",
	"RETURN COUNT(*) PATTERN SEQ(C, D) WHERE [k] WITHIN 1024ms SLIDE 256ms",
	"RETURN COUNT(*) PATTERN SEQ(A, B) WHERE [k] WITHIN 1024ms SLIDE 256ms",
}

const (
	servedKeys      = 64
	servedWithin    = 1024
	servedSlide     = 256
	churnKeys       = 2000
	churnZipfS      = 1.1
	sharedKeys      = 50
	workloadGenSeed = 1 // the query sets are fixed; --seed drives the events only
)

var servedTypes = []string{"A", "B", "C", "D"}

// sharedConfig is the paper's Fig. 14b shape: many subscribers over a
// small catalogue of long patterns built from three shared chunks.
var sharedConfig = gen.WorkloadConfig{
	NumQueries: 60, PatternLen: 10,
	SharedChunks: 3, ChunkLen: 4, ChunksPerQuery: 2, FillerPool: 20,
	UniquePatterns: 10,
	Window:         20_000, Slide: 2_000,
	GroupBy: true, Seed: workloadGenSeed,
}

// churnConfig is short patterns over many skewed keys: per-event work is
// small, window close and group bookkeeping dominate.
var churnConfig = gen.WorkloadConfig{
	NumQueries: 6, PatternLen: 3,
	SharedChunks: 1, ChunkLen: 2, ChunksPerQuery: 1, FillerPool: 6,
	Window: 4_000, Slide: 500,
	GroupBy: true, Seed: workloadGenSeed,
}

// workloadDef is the system-facing definition of a workload: query
// texts, the type names in interning order, and the window geometry the
// latency accounting needs.
type workloadDef struct {
	queries       []string
	typeNames     []string
	within, slide int64
	// hotTypes is how many leading typeNames are shared-chunk types.
	hotTypes int
}

func (s spec) def() workloadDef {
	if !s.engine {
		return workloadDef{queries: servedQueries, typeNames: servedTypes, within: servedWithin, slide: servedSlide}
	}
	cfg := sharedConfig
	if s.name == "engine-churn" {
		cfg = churnConfig
	}
	reg := sharon.NewRegistry()
	w, types := gen.GenWorkload(reg, cfg)
	d := workloadDef{within: cfg.Window, slide: cfg.Slide, hotTypes: gen.NumHotTypes(cfg)}
	for _, q := range w {
		d.queries = append(d.queries, q.Format(reg))
	}
	for _, t := range types {
		d.typeNames = append(d.typeNames, reg.Name(t))
	}
	return d
}

// compile parses the definition's query texts the way a user of the
// library does, into a registry that interned typeNames first so the
// generated events' type ids line up.
func (d workloadDef) compile() (sharon.Workload, *sharon.Registry, error) {
	reg := sharon.NewRegistry()
	for _, n := range d.typeNames {
		reg.Intern(n)
	}
	w := make(sharon.Workload, len(d.queries))
	for i, text := range d.queries {
		q, err := sharon.ParseQuery(text, reg)
		if err != nil {
			return nil, nil, fmt.Errorf("query %d: %w", i, err)
		}
		q.ID = i
		w[i] = q
	}
	return w, reg, nil
}

// metric is one line of BENCHMARK.json's end_to_end or per_layer list.
// bound is the share of the earlier value by which an end-to-end metric
// may get worse before a change counts as a regression; lower says which
// direction is better.
type metric struct {
	name, unit string
	lower      bool
	bound      float64
}

// endToEnd lists the metrics printed with --trace 0, on every workload.
var endToEnd = []metric{
	{"setup_s", "s", true, 0.25},
	{"events_per_s", "1/s", false, 0.15},
	{"cpu_us_per_event", "us", true, 0.15},
	{"latency_p50_ms", "ms", true, 0.25},
	{"latency_tail_ms", "ms", true, 0.25},
	{"latency_tail_ms_r2", "ms", true, 0.25},
	{"sharing_speedup", "ratio", false, 0.10},
	{"peak_live_states", "count", true, 0.05},
	{"rss_peak_mb", "MB", true, 0.15},
}

// perLayer lists the metrics printed with --trace 1, on every workload.
// A layer that is not on a workload's path reports 0 there.
var perLayer = []metric{
	{name: "query.parse_us_per_query", unit: "us"},
	{name: "core.optimize_ms", unit: "ms"},
	{name: "core.budget_expired", unit: "count"},
	{name: "core.candidates", unit: "count"},
	{name: "core.graph_vertices", unit: "count"},
	{name: "core.graph_edges", unit: "count"},
	{name: "core.plans_considered", unit: "count"},
	{name: "core.plan_size", unit: "count"},
	{name: "core.plan_score", unit: "score"},
	{name: "agg.process_ns_per_event", unit: "ns"},
	{name: "agg.live_states", unit: "count"},
	{name: "exec.engine_ns_per_event", unit: "ns"},
	{name: "exec.aseq_ns_per_event", unit: "ns"},
	{name: "exec.allocs_per_event", unit: "count"},
	{name: "exec.results_per_event", unit: "ratio"},
	{name: "exec.groups", unit: "count"},
	{name: "exec.close_us_per_window", unit: "us"},
	{name: "exec.parallel_ratio", unit: "ratio"},
	{name: "exec.snapshot_ms", unit: "ms"},
	{name: "exec.snapshot_bytes", unit: "bytes"},
	{name: "server.decode_stream_ns_per_event", unit: "ns"},
	{name: "server.decode_ndjson_ns_per_event", unit: "ns"},
	{name: "server.bytes_in_per_event", unit: "bytes"},
	{name: "server.encode_ns_per_result", unit: "ns"},
	{name: "server.bytes_out_per_result", unit: "bytes"},
	{name: "server.hub_publish_ns_per_frame", unit: "ns"},
	{name: "server.hub_fanout_ns_per_delivery", unit: "ns"},
	{name: "server.ack_ms_p50", unit: "ms"},
	{name: "server.ack_ms_p99", unit: "ms"},
	{name: "server.deliver_ms_p50", unit: "ms"},
	{name: "server.deliver_ms_p99", unit: "ms"},
	{name: "server.refused_share", unit: "ratio"},
	{name: "server.accept_events_per_s", unit: "1/s"},
	{name: "server.residual_ns_per_event", unit: "ns"},
	{name: "persist.wal_append_ns_per_event", unit: "ns"},
	{name: "persist.wal_bytes_per_event", unit: "bytes"},
	{name: "persist.checkpoint_ms", unit: "ms"},
	{name: "persist.checkpoint_bytes", unit: "bytes"},
	{name: "cluster.router_cpu_us_per_event", unit: "us"},
	{name: "cluster.worker_cpu_us_per_event", unit: "us"},
	{name: "cluster.partition_skew", unit: "ratio"},
	{name: "cluster.single_node_cpu_us_per_event", unit: "us"},
	{name: "cluster.overhead_ratio", unit: "ratio"},
	{name: "cluster.merge_wait_ms_p99", unit: "ms"},
	{name: "driver.sched_lag_p99_ms", unit: "ms"},
	{name: "driver.cpu_share", unit: "ratio"},
	{name: "driver.build_s", unit: "s"},
	{name: "trace.overhead_share", unit: "ratio"},
	{name: "trace.cpu_us_per_event", unit: "us"},
	{name: "trace.spans", unit: "count"},
}
