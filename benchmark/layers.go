package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/agg"
	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/exec"
	"github.com/sharon-project/sharon/internal/persist"
	"github.com/sharon-project/sharon/internal/server"
)

// layerEvents is how many leading events of the workload's stream each
// isolated layer replay sees (800 batches).
const layerEvents = 800 * batchSize

// layerResultCap bounds the reference results kept for the encode and
// hub replays.
const layerResultCap = 200_000

// replay holds what the isolated layer replays share: the workload's
// compiled queries and the leading events of its generated stream.
type replay struct {
	s       spec
	d       workloadDef
	src     source
	w       sharon.Workload
	reg     *sharon.Registry
	events  []sharon.Event
	batches [][]sharon.Event
	rates   sharon.Rates
	dir     string // scratch for the WAL and the checkpoint
	m       map[string]float64

	plan    core.Plan       // set by core
	results []sharon.Result // reference results, set by exec
	sys     *sharon.System  // mid-stream sequential system, set by parallel
}

// layerReplays times each layer on its own, from outside, around calls
// into its public functions, on the workload's own generated input. Each
// replay is one span of the trace; the figures land in o under the
// per-layer metric names.
func layerReplays(s spec, d workloadDef, src source, outDir string, o *outcome, tr *tracer) error {
	w, reg, err := d.compile()
	if err != nil {
		return err
	}
	r := &replay{s: s, d: d, src: src, w: w, reg: reg, m: o.Metrics,
		events: make([]sharon.Event, layerEvents),
		dir:    filepath.Join(outDir, fmt.Sprintf("layers-%s-%d", s.name, os.Getpid()))}
	src.fill(r.events, 0, 0)
	for from := 0; from < len(r.events); from += batchSize {
		r.batches = append(r.batches, r.events[from:from+batchSize])
	}
	r.rates = sharon.MeasureRates(r.events[:min(rateSample, len(r.events))], w)
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.dir)
	for _, layer := range []struct {
		name string
		fn   func() error
	}{
		{"query", r.query}, {"core", r.core}, {"agg", r.agg}, {"exec", r.exec}, {"parallel", r.parallel},
		{"persist", r.persist}, {"decode", r.decode}, {"egress", r.egress}, {"cluster", r.cluster},
	} {
		id := tr.begin("replay."+layer.name, -1, -1)
		err := layer.fn()
		tr.finish(id)
		if err != nil {
			return fmt.Errorf("replay %s: %w", layer.name, err)
		}
	}
	return nil
}

// query parses every text into a fresh registry, a few times over.
func (r *replay) query() error {
	const reps = 20
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		if _, _, err := r.d.compile(); err != nil {
			return err
		}
	}
	r.m["query.parse_us_per_query"] = us(time.Since(t0)) / float64(reps*len(r.d.queries))
	return nil
}

// core runs the optimizer with the options NewSystem uses.
func (r *replay) core() error {
	res, err := core.Optimize(r.w, r.rates, core.OptimizerOptions{Strategy: core.StrategySharon, Expand: true, Budget: 10 * time.Second})
	if err != nil {
		return err
	}
	r.plan = res.Plan
	r.m["core.optimize_ms"] = ms(res.TotalElapsed)
	r.m["core.budget_expired"] = b2f(res.FinderStats.TimedOut)
	r.m["core.candidates"] = float64(res.Candidates)
	r.m["core.graph_vertices"] = float64(res.GraphVertices)
	r.m["core.graph_edges"] = float64(res.GraphEdges)
	r.m["core.plans_considered"] = float64(res.FinderStats.PlansConsidered)
	r.m["core.plan_size"] = float64(len(res.Plan))
	r.m["core.plan_score"] = res.Score
	return nil
}

// agg feeds one aggregator on the longest pattern the events of its
// types. Ungrouped, it extends every live START per event, so the replay
// stops where that has taken half a second.
func (r *replay) agg() error {
	longest := r.w[0]
	for _, q := range r.w {
		if len(q.Pattern) > len(longest.Pattern) {
			longest = q
		}
	}
	a := agg.NewAggregator(agg.Config{Pattern: longest.Pattern, Window: longest.Window})
	fed := 0
	t0 := time.Now()
	for _, e := range r.events {
		if !a.Matches(e.Type) {
			continue
		}
		if err := a.Process(e); err != nil {
			return err
		}
		if fed++; fed%4096 == 0 && time.Since(t0) > 500*time.Millisecond {
			break
		}
	}
	r.m["agg.process_ns_per_event"] = ns(time.Since(t0)) / float64(max(fed, 1))
	r.m["agg.live_states"] = float64(a.LiveStates())
	return nil
}

// engineLoop is the engine alone in a warm Process loop. Events that
// cross a slide boundary close windows inside Process; they are timed
// apart, and a plain event's cost is taken off them.
func (r *replay) engineLoop(plan core.Plan) (perEvent, closeUs, allocs float64, results int, en *exec.Engine, err error) {
	en, err = exec.NewEngine(r.w, plan, exec.Options{OnResult: func(sharon.Result) { results++ }})
	if err != nil {
		return
	}
	warm := warmupEvents
	for _, e := range r.events[:warm] {
		if err = en.Process(e); err != nil {
			return
		}
	}
	results = 0
	slide := r.d.slide
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	nextEnd := (r.events[warm].Time/slide + 1) * slide
	var inClose time.Duration
	var closes, crossing int
	start := time.Now()
	for _, e := range r.events[warm:] {
		if e.Time < nextEnd {
			if err = en.Process(e); err != nil {
				return
			}
			continue
		}
		c0 := time.Now()
		err = en.Process(e)
		inClose += time.Since(c0)
		if err != nil {
			return
		}
		closes += int(e.Time/slide - nextEnd/slide + 1)
		crossing++
		nextEnd = (e.Time/slide + 1) * slide
	}
	total := time.Since(start)
	runtime.ReadMemStats(&ms1)
	timed := len(r.events) - warm
	perEvent = ns(total) / float64(timed)
	plain := ns(total-inClose) / float64(max(timed-crossing, 1))
	closeUs = (ns(inClose) - plain*float64(crossing)) / 1e3 / float64(max(closes, 1))
	allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(timed)
	return
}

// exec times the engine with the chosen plan and with none (A-Seq), then
// collects the reference results the egress replay publishes.
func (r *replay) exec() error {
	perEvent, closeUs, allocs, results, en, err := r.engineLoop(r.plan)
	if err != nil {
		return err
	}
	r.m["exec.engine_ns_per_event"] = perEvent
	r.m["exec.close_us_per_window"] = closeUs
	r.m["exec.allocs_per_event"] = allocs
	r.m["exec.results_per_event"] = float64(results) / float64(len(r.events)-warmupEvents)
	r.m["exec.groups"] = float64(en.GroupCount())
	if perEvent, _, _, _, _, err = r.engineLoop(nil); err != nil {
		return err
	}
	r.m["exec.aseq_ns_per_event"] = perEvent

	r.results = make([]sharon.Result, 0, layerResultCap)
	ref, err := exec.NewEngine(r.w, nil, exec.Options{OnResult: func(res sharon.Result) {
		if len(r.results) < layerResultCap {
			r.results = append(r.results, res)
		}
	}})
	if err != nil {
		return err
	}
	for _, e := range r.events {
		if len(r.results) == layerResultCap {
			break
		}
		if err := ref.Process(e); err != nil {
			return err
		}
	}
	if len(r.results) == 0 {
		return fmt.Errorf("the reference emitted no results")
	}
	return nil
}

// parallel is sequential over parallel elapsed on the public system.
// Informational: the shard workers share this machine's cores.
func (r *replay) parallel() error {
	feedAll := func(par int) (time.Duration, *sharon.System, error) {
		sys, err := sharon.NewSystem(r.w, sharon.Options{Plan: r.plan, Rates: r.rates, Parallelism: par, OnResult: func(sharon.Result) {}})
		if err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		for _, b := range r.batches {
			if err := sys.FeedBatch(b); err != nil {
				sys.Close()
				return 0, nil, err
			}
		}
		return time.Since(t0), sys, nil
	}
	seq, sys, err := feedAll(1)
	if err != nil {
		return err
	}
	par, psys, err := feedAll(max(runtime.NumCPU(), 2))
	if err != nil {
		return err
	}
	psys.Close()
	r.sys = sys
	r.m["exec.parallel_ratio"] = seq.Seconds() / par.Seconds()
	return nil
}

// persist snapshots the mid-stream state, encodes it, writes it as a
// checkpoint, and appends the replayed batches to a WAL, fsync never.
func (r *replay) persist() error {
	t0 := time.Now()
	snap, err := r.sys.Snapshot()
	if err != nil {
		return err
	}
	enc := &persist.Encoder{}
	if err := persist.EncodeSystemSnapshot(enc, snap); err != nil {
		return err
	}
	r.m["exec.snapshot_ms"] = ms(time.Since(t0))
	r.m["exec.snapshot_bytes"] = float64(enc.Len())

	ck := &persist.Checkpoint{
		WALSeq: int64(len(r.batches)) - 1, Watermark: r.events[len(r.events)-1].Time,
		Parallelism: 1, RegistryNames: r.reg.Names(), Plan: r.plan, State: snap,
	}
	for i, text := range r.d.queries {
		ck.Queries = append(ck.Queries, persist.QueryEntry{ID: i, Text: text})
	}
	t0 = time.Now()
	_, size, err := persist.WriteCheckpoint(r.dir, ck)
	if err != nil {
		return err
	}
	r.m["persist.checkpoint_ms"] = ms(time.Since(t0))
	r.m["persist.checkpoint_bytes"] = float64(size)

	wal, err := persist.OpenWAL(filepath.Join(r.dir, "wal"), persist.WALOptions{Fsync: persist.FsyncNever})
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, b := range r.batches {
		if _, err := wal.Append(persist.RecBatch, persist.EncodeBatchRecord(persist.BatchRecord{Events: b, Watermark: -1})); err != nil {
			wal.Close()
			return err
		}
	}
	n := float64(len(r.events))
	r.m["persist.wal_append_ns_per_event"] = ns(time.Since(t0)) / n
	r.m["persist.wal_bytes_per_event"] = float64(wal.Stats().Bytes) / n
	return wal.Close()
}

// decode feeds the exact bodies a client sends to both ingest codecs.
func (r *replay) decode() error {
	lookup := make(map[string]sharon.Type, len(r.d.typeNames))
	for _, name := range r.d.typeNames {
		lookup[name] = r.reg.Lookup(name)
	}
	run := func(bodies [][]byte, fn func(body []byte, b *server.Batch) error) (time.Duration, error) {
		t0 := time.Now()
		for _, body := range bodies {
			b := server.GetBatch()
			err := fn(body, b)
			got := len(b.Events)
			server.PutBatch(b)
			if err != nil {
				return 0, err
			}
			if got != batchSize {
				return 0, fmt.Errorf("decoded %d of %d events", got, batchSize)
			}
		}
		return time.Since(t0), nil
	}
	post := newPostIngest(nil, "", r.d.typeNames)
	bodies := make([][]byte, len(r.batches))
	wireBytes := 0
	for i, b := range r.batches {
		bodies[i] = bytes.Clone(post.body(b, -1))
		wireBytes += len(bodies[i])
	}
	el, err := run(bodies, func(body []byte, b *server.Batch) error { return server.DecodeWireBatch(body, lookup, b) })
	if err != nil {
		return err
	}
	n := float64(len(r.events))
	r.m["server.decode_stream_ns_per_event"] = ns(el) / n
	r.m["server.bytes_in_per_event"] = float64(wireBytes) / n
	// NDJSON is on no workload's path; a tenth of the batches keeps its
	// guard row cheap.
	lines := make([][]byte, len(r.batches)/10)
	for i := range lines {
		var buf bytes.Buffer
		for _, e := range r.batches[i] {
			fmt.Fprintf(&buf, `{"type":%q,"time":%d,"key":%d,"val":%g}`+"\n", r.reg.Name(e.Type), e.Time, e.Key, e.Val)
		}
		lines[i] = buf.Bytes()
	}
	el, err = run(lines, func(body []byte, b *server.Batch) error { return b.ReadNDJSON(bytes.NewReader(body), lookup) })
	if err != nil {
		return err
	}
	r.m["server.decode_ndjson_ns_per_event"] = ns(el) / float64(len(lines)*batchSize)
	return nil
}

// egress encodes the reference results, then publishes them through a
// hub to one and to 1 024 mock subscribers.
func (r *replay) egress() error {
	qs := make(map[int]*sharon.Query, len(r.w))
	for _, q := range r.w {
		qs[q.ID] = q
	}
	payloads := make([][]byte, len(r.results))
	outBytes := 0
	t0 := time.Now()
	for i, res := range r.results {
		payloads[i] = server.EncodeResult(qs, int64(i), res)
		outBytes += len(payloads[i])
	}
	n := float64(len(payloads))
	r.m["server.encode_ns_per_result"] = ns(time.Since(t0)) / n
	r.m["server.bytes_out_per_result"] = float64(outBytes) / n
	one, err := hubReplay(r.results, payloads, 1, len(payloads))
	if err != nil {
		return err
	}
	r.m["server.hub_publish_ns_per_frame"] = ns(one) / n
	const fanSubs = 1024
	frames := min(1000, len(payloads))
	many, err := hubReplay(r.results, payloads, fanSubs, frames)
	if err != nil {
		return err
	}
	r.m["server.hub_fanout_ns_per_delivery"] = ns(many) / float64(fanSubs*frames)
	return nil
}

// cluster reports where the ring would put these events with two
// workers at the benchmark's default worker addresses; a cluster run has
// already stored the skew of its real workers.
func (r *replay) cluster() error {
	if _, ok := r.m["cluster.partition_skew"]; ok {
		return nil
	}
	skew, err := partitionSkew(r.src, layerEvents, []string{
		"http://127.0.0.1:" + strconv.Itoa(portWorker), "http://127.0.0.1:" + strconv.Itoa(portWorker+1)})
	r.m["cluster.partition_skew"] = skew
	return err
}

// mockConn is a subscriber endpoint that only counts: the transport is
// left out so the hub's own work is what is timed.
type mockConn struct{ frames atomic.Int64 }

func (c *mockConn) WriteBurst(bufs [][]byte) error { c.frames.Add(int64(len(bufs))); return nil }
func (c *mockConn) WriteHeartbeat() error          { return nil }
func (c *mockConn) WriteTerminal(string)           {}

// hubReplay publishes the first frames payloads to subs mock
// subscribers and returns the time until every delivery was made.
func hubReplay(results []sharon.Result, payloads [][]byte, subs, frames int) (time.Duration, error) {
	h := server.NewHub(server.HubOptions{Retain: frames + 1})
	defer h.Shutdown()
	for i := 0; i < subs; i++ {
		sub, err := h.Subscribe(server.SubOptions{})
		if err != nil {
			return 0, err
		}
		if !sub.Start(&mockConn{}) {
			return 0, fmt.Errorf("hub refused subscriber %d", i)
		}
	}
	want := int64(subs) * int64(frames)
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		r := results[i]
		h.Publish(r.Query, int64(r.Group), int64(i), payloads[i], 0)
	}
	for h.Delivered() < want {
		if time.Since(t0) > time.Minute {
			return 0, fmt.Errorf("hub stalled at %d of %d deliveries", h.Delivered(), want)
		}
		runtime.Gosched()
	}
	return time.Since(t0), nil
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
