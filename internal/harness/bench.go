package harness

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/exec"
	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/query"
)

// BenchRecord is one machine-readable measurement of an executor run: the
// per-event cost figures the repo's perf trajectory is tracked by. It is
// the unit of the BENCH_<exp>.json files sharon-bench emits (format
// documented in README "Benchmarking").
type BenchRecord struct {
	// Name identifies the run within the experiment (variant, sweep point).
	Name string `json:"name"`
	// Executor is the strategy name ("Sharon", "A-Seq", ...).
	Executor string `json:"executor"`
	// Events is the number of events processed in the measured section.
	Events int64 `json:"events"`
	// Results is the number of (query, window, group) aggregates emitted.
	Results int64 `json:"results"`
	// ElapsedNs is the measured wall-clock time in nanoseconds.
	ElapsedNs int64 `json:"elapsed_ns"`
	// EventsPerSec is the sustained throughput.
	EventsPerSec float64 `json:"events_per_sec"`
	// NsPerEvent is the average per-event processing cost.
	NsPerEvent float64 `json:"ns_per_event"`
	// AllocsPerEvent is the average heap allocations per event.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// AllocBytesPerEvent is the average heap bytes allocated per event.
	AllocBytesPerEvent float64 `json:"alloc_bytes_per_event"`
	// PeakLiveStates is the executor's peak live aggregate-state count
	// (the paper's §8.1 memory unit).
	PeakLiveStates int64 `json:"peak_live_states"`
	// LatencyP50Ms through LatencyMaxMs carry the end-to-end
	// ingest-to-emit window latency distribution for server (loopback)
	// runs, exact percentiles over one sample per window; zero for
	// in-process runs, whose per-window figure is the cost proxy
	// RunStats.LatencyMs (see its doc for the distinction).
	LatencyP50Ms  float64 `json:"latency_p50_ms,omitempty"`
	LatencyP90Ms  float64 `json:"latency_p90_ms,omitempty"`
	LatencyP99Ms  float64 `json:"latency_p99_ms,omitempty"`
	LatencyP999Ms float64 `json:"latency_p999_ms,omitempty"`
	LatencyMaxMs  float64 `json:"latency_max_ms,omitempty"`
	// DNF marks a run aborted by a work cap.
	DNF bool `json:"dnf,omitempty"`
	// Note carries free-form provenance (e.g. for pinned baselines).
	Note string `json:"note,omitempty"`
}

// NewBenchRecord converts run stats into a bench record.
func NewBenchRecord(name string, s metrics.RunStats) BenchRecord {
	return BenchRecord{
		Name:               name,
		Executor:           s.Executor,
		Events:             s.Events,
		Results:            s.Results,
		ElapsedNs:          s.Elapsed.Nanoseconds(),
		EventsPerSec:       s.Throughput(),
		NsPerEvent:         s.NsPerEvent(),
		AllocsPerEvent:     s.AllocsPerEvent(),
		AllocBytesPerEvent: s.AllocBytesPerEvent(),
		PeakLiveStates:     s.PeakLiveStates,
		DNF:                s.DNF,
	}
}

// BenchFile is the on-disk shape of a BENCH_<exp>.json perf snapshot.
type BenchFile struct {
	// Experiment is the sharon-bench experiment id.
	Experiment string `json:"experiment"`
	// Go is the toolchain that produced the numbers.
	Go string `json:"go"`
	// Records are the fresh measurements of this run.
	Records []BenchRecord `json:"records"`
	// Reference holds pinned historical measurements the records are
	// compared against (e.g. the pre-ring hot-path baseline).
	Reference []BenchRecord `json:"reference,omitempty"`
	// Figures embeds the experiment's figure data (per-sweep series),
	// when the experiment produces figures.
	Figures []Figure `json:"figures,omitempty"`
}

// WriteBenchFile writes BENCH_<exp>.json into dir and returns the path.
func WriteBenchFile(dir string, f BenchFile) (string, error) {
	if f.Go == "" {
		f.Go = runtime.Version()
	}
	path := filepath.Join(dir, "BENCH_"+f.Experiment+".json")
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// HotpathBaseline pins the steady-state hot-path cost of the pre-ring
// engine (map-keyed window totals, per-START heap allocation, map type
// dispatch), measured with the same BenchmarkHotPathProcess rig at commit
// c5be38a on an Intel Xeon @ 2.10GHz. The committed BENCH_hotpath.json
// carries it as the reference the ring/pooled engine is compared against.
var HotpathBaseline = BenchRecord{
	Name:               "hotpath-steady-state",
	Executor:           "Sharon (pre-ring)",
	NsPerEvent:         1239,
	AllocsPerEvent:     1.80,
	AllocBytesPerEvent: 269,
	Note:               "pinned pre-PR baseline: BenchmarkHotPathProcess at commit c5be38a (map-based winTotals/snaps, unpooled StartRec)",
}

// Hotpath measures the engine's steady-state per-event cost on a fixed
// three-query workload (one shared segment), with engine construction and
// warm-up excluded from the measured section, over two streams:
//
//   - hotpath-steady-state: 13 groups cycling in step with the types, so
//     every group is active in every window and per-event aggregation
//     dominates. It is the JSON-emitting counterpart of
//     BenchmarkHotPathProcess / TestHotPathAllocs in internal/exec.
//   - hotpath-sparse-close: 2000 groups, 20 of them hot, so a window
//     closes every 256 events with results from a small share of the
//     groups and the close path dominates (the counterpart of
//     BenchmarkWindowClose/sparse-2000-groups).
func Hotpath(cfg Config) ([]BenchRecord, error) {
	cfg.fill()
	reg := event.NewRegistry()
	types := []event.Type{reg.Intern("A"), reg.Intern("B"), reg.Intern("C"), reg.Intern("D")}
	pat := func(s string) query.Pattern {
		p := make(query.Pattern, len(s))
		for i := range s {
			p[i] = types[s[i]-'A']
		}
		return p
	}
	win := query.Window{Length: 1024, Slide: 256}
	wl := query.Workload{
		&query.Query{ID: 0, Pattern: pat("ABCD"), Agg: query.AggSpec{Kind: query.CountStar}, Window: win, GroupBy: true},
		&query.Query{ID: 1, Pattern: pat("CD"), Agg: query.AggSpec{Kind: query.CountStar}, Window: win, GroupBy: true},
		&query.Query{ID: 2, Pattern: pat("AB"), Agg: query.AggSpec{Kind: query.CountStar}, Window: win, GroupBy: true},
	}
	plan := core.Plan{core.NewCandidate(pat("CD"), []int{0, 1})}
	// The streams cycle through the full interned type universe
	// (reg.Count()), so the engine's dense per-type dispatch tables see
	// every type they were sized for.
	nTypes := int64(reg.Count())

	warmup := cfg.scaled(100000)
	measured := cfg.scaled(1000000)
	mkStream := func(n int, key func(i int64) event.GroupKey) event.Stream {
		out := make(event.Stream, n)
		for k := range out {
			i := int64(k)
			out[k] = event.Event{Time: 1 + i, Type: types[i%nTypes], Key: key(i), Val: float64(i%7) + 1}
		}
		return out
	}
	// 13 groups: coprime to the type cycle, so every group sees every
	// type and the full match/extend path is exercised.
	steady := mkStream(warmup+measured, func(i int64) event.GroupKey { return event.GroupKey(i % 13) })
	// 2000 groups, 20 of them taking four events in five: the warm-up
	// builds every group, and a closing window holds results from the hot
	// groups and a handful of the cold ones.
	rng := rand.New(rand.NewSource(1))
	sparse := mkStream(warmup+measured, func(int64) event.GroupKey {
		if rng.Intn(5) < 4 {
			return event.GroupKey(rng.Intn(20))
		}
		return event.GroupKey(20 + rng.Intn(1980))
	})

	sharonEngine := func() (exec.Executor, error) { return exec.NewEngine(wl, plan, exec.Options{}) }
	aseqEngine := func() (exec.Executor, error) { return exec.NewEngine(wl, nil, exec.Options{}) }
	runs := []struct {
		name   string
		stream event.Stream
		mk     func() (exec.Executor, error)
	}{
		{"hotpath-steady-state/sharon", steady, sharonEngine},
		{"hotpath-steady-state/aseq", steady, aseqEngine},
		{"hotpath-steady-state/sharon-parallel-4w", steady, func() (exec.Executor, error) {
			return exec.NewParallelEngine(wl, plan, 4, exec.Options{})
		}},
		{"hotpath-sparse-close/sharon", sparse, sharonEngine},
		{"hotpath-sparse-close/aseq", sparse, aseqEngine},
	}
	var out []BenchRecord
	for _, r := range runs {
		ex, err := r.mk()
		if err != nil {
			return nil, err
		}
		for _, e := range r.stream[:warmup] {
			if err := ex.Process(e); err != nil {
				return nil, fmt.Errorf("%s warmup: %w", r.name, err)
			}
		}
		stats, err := Run(ex, r.stream[warmup:])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		cfg.Progress("%s: %s", r.name, stats)
		out = append(out, NewBenchRecord(r.name, stats))
	}
	return out, nil
}

// FormatBenchRecords renders records as an aligned text table.
func FormatBenchRecords(recs []BenchRecord) string {
	var b strings.Builder
	rows := [][]string{{"name", "executor", "events", "ev/s", "ns/event", "allocs/event", "B/event", "peak states"}}
	for _, r := range recs {
		rows = append(rows, []string{
			r.Name, r.Executor,
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.1f", r.NsPerEvent),
			fmt.Sprintf("%.4f", r.AllocsPerEvent),
			fmt.Sprintf("%.1f", r.AllocBytesPerEvent),
			fmt.Sprintf("%d", r.PeakLiveStates),
		})
	}
	writeAligned(&b, rows)
	return b.String()
}
