// Package exec implements Sharon's runtime executors (paper §3 and §8.2):
//
//   - Engine: the online executor. With an empty sharing plan it is the
//     A-Seq baseline (non-shared method, §3.2); with a plan from the
//     optimizer it is the Sharon executor (shared method, §3.3).
//   - Partitioned, Dynamic, Parallel: the §7.2 segment, §7.4 re-planning
//     and group-hash/segment sharding wrappers around Engine. Together
//     with Engine they satisfy Online, the one contract the public
//     sharon.System and the Parallel workers drive.
//   - TwoStep, SPASS, SASE: the sequence-constructing baselines the
//     paper compares against. Measurement-only: they satisfy the small
//     Executor contract and are reachable from internal/harness alone.
//   - EnumerateWindow: a brute-force oracle used by the test suite.
//
// All executors consume one strictly time-ordered stream and emit one
// aggregate per (query, window, group).
package exec

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/sharon-project/sharon/internal/agg"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/query"
)

// Result is one aggregation result: the aggregate of all sequences matched
// by query Query in window Win for group Group.
type Result struct {
	Query int
	Win   int64
	Group event.GroupKey
	State agg.State
}

// Value extracts the query's final answer from the result state.
func (r Result) Value(q *query.Query) float64 {
	return r.State.Value(valueKind(q.Agg.Kind))
}

func valueKind(k query.AggKind) agg.AggValueKind {
	switch k {
	case query.CountStar:
		return agg.ValueCountStar
	case query.CountE:
		return agg.ValueCountE
	case query.Sum:
		return agg.ValueSum
	case query.Min:
		return agg.ValueMin
	case query.Max:
		return agg.ValueMax
	case query.Avg:
		return agg.ValueAvg
	}
	return agg.ValueCountStar
}

// Executor is the measurement contract every evaluation strategy
// satisfies, the comparison baselines included: what internal/harness
// needs to replay a stream and read the paper's metrics.
type Executor interface {
	// Name identifies the strategy ("Sharon", "A-Seq", "TwoStep", "SPASS").
	Name() string
	// Process feeds the next event; events must be strictly time-ordered.
	Process(e event.Event) error
	// Flush closes all remaining windows at end of stream.
	Flush() error
	// PeakLiveStates reports the maximum number of aggregate/sequence
	// states held at any sampled instant (the paper's peak-memory unit).
	PeakLiveStates() int64
	// ResultCount reports how many (query, window, group) results were
	// emitted so far.
	ResultCount() int64
}

// Online is the full-lifecycle contract of the online executors: Engine,
// Partitioned, Dynamic and Parallel. A system is served, checkpointed and
// rebalanced through it alone, and Parallel drives its per-worker shards
// through the same methods, so every wrapper composes with every other
// without the caller knowing which one it holds. The sequential
// executors own no goroutines and emit synchronously, which makes Stop,
// Quiesce and Stats trivial for them (see sequential).
type Online interface {
	Executor
	// FeedBatch is Process over a strictly time-ordered batch.
	FeedBatch(events []event.Event) error
	// AdvanceWatermark closes every window ending at or before t without
	// consuming an event. Calls before the first event or behind the
	// current watermark are no-ops.
	AdvanceWatermark(t int64)
	// Stop releases the executor without emitting the windows still open.
	Stop()
	// Results returns the collected results sorted by (query, window,
	// group); nil unless Options.Collect is set.
	Results() []Result
	// GroupCount reports the live per-group runtimes.
	GroupCount() int64
	// Snapshot captures the runtime state once every result for windows
	// at or before the watermark has been delivered; Restore loads it
	// into a freshly built executor of the same shape.
	Snapshot() (*SystemSnapshot, error)
	Restore(*SystemSnapshot) error
	// Quiesce blocks until every result for windows ending at or before
	// the watermark has been delivered.
	Quiesce() error
	// Stats reports the sharded run's counters (zero when sequential).
	Stats() metrics.ParallelStats
	// Explain renders the per-query shared/private decomposition.
	Explain(reg *event.Registry) string
	// AbsorbSlice grafts a group slice cut by SliceGroups and
	// RemoveGroups deletes the groups drop selects; executors whose
	// state a group slice cannot represent return ErrNoGroupSlices.
	AbsorbSlice(*EngineSnapshot) error
	RemoveGroups(drop func(event.GroupKey) bool) (int, error)
}

var (
	_ Online = (*Engine)(nil)
	_ Online = (*Partitioned)(nil)
	_ Online = (*Dynamic)(nil)
	_ Online = (*Parallel)(nil)
)

// ErrNoGroupSlices is returned by the group-slice operations of
// executors that cannot host them: partitioned workloads interleave
// per-segment windows and dynamic ones carry migration state a group
// slice cannot represent.
var ErrNoGroupSlices = errors.New("exec: group slices require a uniform non-dynamic workload")

// sequential supplies the Online methods that are trivial for an
// executor driven from one goroutine with synchronous emission.
type sequential struct{}

func (sequential) Stop()                        {}
func (sequential) Quiesce() error               { return nil }
func (sequential) Stats() metrics.ParallelStats { return metrics.ParallelStats{} }

// noGroupSlices refuses the group-slice operations (see ErrNoGroupSlices).
type noGroupSlices struct{}

func (noGroupSlices) AbsorbSlice(*EngineSnapshot) error { return ErrNoGroupSlices }
func (noGroupSlices) RemoveGroups(func(event.GroupKey) bool) (int, error) {
	return 0, ErrNoGroupSlices
}

// Options configures result delivery for an executor.
type Options struct {
	// OnResult receives every result as it is emitted. If nil and Collect
	// is true, results are retained and available via Results().
	OnResult func(Result)
	// Collect retains emitted results in memory.
	Collect bool
	// EmitEmpty also emits zero-valued results for windows in which a
	// query matched nothing.
	EmitEmpty bool
	// DisableStateReduction turns off the SHARP-style shared-state
	// reduction (dead-suffix pruning of START records and merging of
	// equivalent aggregators/stages across queries). Reduction is
	// output-invariant, so this knob exists for the reduction oracle
	// tests and for A/B measurements, not for correctness.
	DisableStateReduction bool
}

// resultSink implements shared result bookkeeping for executors.
type resultSink struct {
	opts    Options
	results []Result
	count   int64
}

// emit delivers one result to the configured sink.
//
//sharon:hotpath
//sharon:deterministic
func (rs *resultSink) emit(r Result) {
	rs.count++
	if rs.opts.OnResult != nil {
		rs.opts.OnResult(r) //sharon:allow hotpathalloc (subscriber callback: the benchmark sink is a no-op; server sinks own their costs)
	}
	if rs.opts.Collect {
		rs.results = append(rs.results, r) //sharon:allow hotpathalloc (Collect mode is off on the benchmarked path; tests that set it accept the appends)
	}
}

// cmpResult is the canonical (query, window, group) result order used by
// every executor's Results() and by the parallel merge stage — a single
// definition keeps the parallel-equals-sequential byte-for-byte guarantee
// intact.
//
//sharon:hotpath
//sharon:deterministic
func cmpResult(a, b Result) int {
	switch {
	case a.Query != b.Query:
		return cmp.Compare(a.Query, b.Query)
	case a.Win != b.Win:
		return cmp.Compare(a.Win, b.Win)
	default:
		return cmp.Compare(a.Group, b.Group)
	}
}

// Results returns the collected results sorted by query, window, group
// for deterministic comparison; nil unless Options.Collect is set.
func (rs *resultSink) Results() []Result {
	if !rs.opts.Collect {
		return nil
	}
	out := make([]Result, len(rs.results))
	copy(out, rs.results)
	slices.SortFunc(out, cmpResult)
	return out
}

func (rs *resultSink) ResultCount() int64 { return rs.count }

// validateUniform checks the paper's core assumptions (§2.1): every query
// in the workload has the same window, the same grouping mode, and the
// same predicates. The §7.2 extension (partitioning by segment) is out of
// scope for the executors, which evaluate one uniform segment.
func validateUniform(w query.Workload) error {
	if len(w) == 0 {
		return fmt.Errorf("exec: empty workload")
	}
	if err := w.Validate(); err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	first := w[0]
	for _, q := range w[1:] {
		if q.Window != first.Window {
			return fmt.Errorf("exec: query %s window %+v differs from %s window %+v (per-window sharing requires uniform windows, paper §2.1 assumption 2)",
				q.Label(), q.Window, first.Label(), first.Window)
		}
		if q.GroupBy != first.GroupBy {
			return fmt.Errorf("exec: query %s grouping differs from %s", q.Label(), first.Label())
		}
		if !samePredicates(q.Where, first.Where) {
			return fmt.Errorf("exec: query %s predicates differ from %s", q.Label(), first.Label())
		}
	}
	return nil
}

func samePredicates(a, b []query.Predicate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// accepts applies the workload's (uniform) predicates.
//
//sharon:hotpath
func accepts(preds []query.Predicate, e event.Event) bool {
	for _, p := range preds {
		if !p.Eval(e) {
			return false
		}
	}
	return true
}
