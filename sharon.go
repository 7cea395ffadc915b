// Package sharon is a from-scratch Go implementation of SHARON — Shared
// Online Event Sequence Aggregation (Poppe et al., ICDE 2018): a complex
// event processing engine that evaluates workloads of event sequence
// aggregation queries online (without constructing sequences) while
// sharing intermediate aggregates among queries according to an optimal
// sharing plan.
//
// The typical flow mirrors the paper's framework (Fig. 5):
//
//	reg := sharon.NewRegistry()
//	q1 := sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt) WHERE [vehicle] WITHIN 10m SLIDE 1m", reg)
//	q2 := sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(ParkAve, OakSt, MainSt) WHERE [vehicle] WITHIN 10m SLIDE 1m", reg)
//	sys, err := sharon.NewSystem(sharon.Workload{q1, q2}, sharon.Options{Rates: rates})
//	defer sys.Close()
//	for _, e := range stream {
//	    sys.Process(e)
//	}
//	sys.Flush()
//	for _, r := range sys.Results() { ... }
//
// There is one system type. NewSystem splits the workload into uniform
// segments (same window, grouping and predicates, paper §7.2), runs the
// static optimizer on each — sharable pattern detection (modified
// CCSpan), the benefit model, the Sharon graph, GWMIN-bound reduction,
// and the optimal plan search — and composes the executor from what it
// observes: one segment runs the shared online engine directly, several
// run one engine per segment; Options.Dynamic adds runtime
// re-optimisation (§7.4) or per-burst share-vs-split decisions; and a
// resolved Options.Parallelism above 1 shards the whole across worker
// goroutines. Every combination emits the same bytes in the same order.
package sharon

import (
	"fmt"
	"runtime"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/exec"
	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/query"
)

// Re-exported data-model types. Events carry a timestamp in ticks
// (TicksPerSecond per second), an interned type, a grouping key, and one
// numeric attribute.
type (
	// Event is a time-stamped message on the input stream.
	Event = event.Event
	// Type is an interned event type.
	Type = event.Type
	// GroupKey is the grouping-attribute value of an event.
	GroupKey = event.GroupKey
	// Registry interns event type names.
	Registry = event.Registry
	// Stream is a finite, strictly time-ordered event sequence.
	Stream = event.Stream
	// Pattern is an event sequence pattern (E1 ... El).
	Pattern = query.Pattern
	// Query is an event sequence aggregation query.
	Query = query.Query
	// Workload is a set of queries evaluated together.
	Workload = query.Workload
	// Window is a sliding window (WITHIN/SLIDE).
	Window = query.Window
	// Result is one aggregate: (query, window, group) -> state.
	Result = exec.Result
	// Plan is a sharing plan: the set of sharing candidates in effect.
	Plan = core.Plan
	// Candidate is one sharing candidate (p, Qp).
	Candidate = core.Candidate
	// Rates maps event types to rates for the optimizer's benefit model.
	Rates = core.Rates
	// ParallelStats summarizes a parallel run: throughput counters and
	// the per-shard occupancy profile.
	ParallelStats = metrics.ParallelStats
	// BurstState is the burst detector's debounced classification of the
	// stream (DynamicOptions.Adaptive).
	BurstState = exec.BurstState
	// BurstConfig tunes the adaptive burst detector; zero values select
	// the defaults.
	BurstConfig = exec.BurstConfig
	// StateSnapshot is the serializable runtime state of a system: open
	// window aggregates, live START records, stage combination
	// snapshots, and under Options.Dynamic the installed plan and rate
	// counters. System.Snapshot produces it, System.Restore loads it, and
	// internal/persist encodes it into the checkpoint file format.
	StateSnapshot = exec.SystemSnapshot
)

// Burst-detector states.
const (
	Valley = exec.Valley
	Burst  = exec.Burst
)

// TicksPerSecond is the timestamp resolution of the event model.
const TicksPerSecond = event.TicksPerSecond

// NoType is the invalid zero Type (e.g. a failed Registry.Lookup).
const NoType = event.NoType

// NewRegistry returns an empty event type registry.
func NewRegistry() *Registry { return event.NewRegistry() }

// ParseQuery parses a query in the SASE-style surface language, e.g.
//
//	RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt) WHERE [vehicle] WITHIN 10m SLIDE 1m
func ParseQuery(text string, reg *Registry) (*Query, error) {
	return query.Parse(text, reg)
}

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(text string, reg *Registry) *Query {
	return query.MustParse(text, reg)
}

// Strategy selects the optimizer NewSystem plans each segment with. The
// executor is the shared online engine under every strategy.
type Strategy int

const (
	// StrategySharon (default) runs the Sharon optimizer.
	StrategySharon Strategy = iota
	// StrategyGreedy runs the greedy (GWMIN) optimizer.
	StrategyGreedy
	// StrategyNonShared shares nothing: every query is evaluated
	// independently online (the A-Seq baseline).
	StrategyNonShared
)

// optimizer maps the strategy onto the optimizer's own enum.
func (st Strategy) optimizer() (core.Strategy, error) {
	switch st {
	case StrategySharon:
		return core.StrategySharon, nil
	case StrategyGreedy:
		return core.StrategyGreedy, nil
	case StrategyNonShared:
		return core.StrategyNone, nil
	}
	return 0, fmt.Errorf("sharon: unknown Strategy %d", int(st))
}

// Options configures NewSystem.
type Options struct {
	// Strategy selects the optimizer (default StrategySharon).
	Strategy Strategy
	// Rates supplies per-type event rates for the benefit model. When
	// nil, sharing decisions assume uniform rates across the workload's
	// types. Use MeasureRates on a stream sample for realistic plans.
	Rates Rates
	// Plan, when non-nil, bypasses the optimizer and executes this plan.
	// A plan spans one uniform segment, so it is rejected for a workload
	// that partitions into several, and under Dynamic, which installs
	// plans of its own.
	Plan Plan
	// OnResult receives every aggregate as it is emitted, in the
	// deterministic (window end, query ID, group) order, as each window
	// closes — the push-based alternative to polling Results after
	// Flush. A system with an OnResult sink does not retain results:
	// Results returns nil (see System.Results for the exact contract).
	// Sequentially the callback runs inside Process/AdvanceWatermark/
	// Flush; with Parallelism > 1 it runs on the merge goroutine.
	OnResult func(Result)
	// EmitEmpty also emits zero results for windows without matches.
	EmitEmpty bool
	// OptimizerBudget bounds each plan search; on expiry the best plan
	// found so far (at least GWMIN's) is used. Default 10s, and 2s for
	// each of Dynamic's runtime re-optimisations.
	OptimizerBudget time.Duration
	// Parallelism selects the number of shard workers. A uniform
	// workload is sharded by group-key hash — each worker runs its own
	// copy of the engine over the groups that hash to it — and a
	// multi-segment workload by segment, at most one worker per segment.
	// Window results are merged back in deterministic (window end, query
	// ID, group) order, identical to a sequential run. 0 = auto:
	// GOMAXPROCS workers when there is something to shard and no
	// OnResult callback, the sequential path otherwise (a uniform
	// ungrouped workload has a single group and cannot shard by key,
	// even under an explicit count, and auto never changes where an
	// existing OnResult callback runs); 1 = always sequential. With
	// Parallelism > 1, OnResult is invoked from a merge goroutine rather
	// than from inside Process — the callback must not share
	// unsynchronized state with the feeding loop.
	Parallelism int
	// Dynamic, when non-nil, monitors event rates at runtime and migrates
	// to a new sharing plan when they change, without losing or
	// corrupting window results (paper §7.4): output is identical to a
	// static execution. The initial plan is optimized for Rates. With
	// Parallelism > 1 each shard monitors, decides and migrates on its
	// own. Requires a uniform workload and StrategySharon.
	Dynamic *DynamicOptions
}

// DynamicOptions tunes Options.Dynamic; the zero value re-optimizes on
// rate drift with the defaults.
type DynamicOptions struct {
	// CheckEvery is the interval in ticks between rate checks (default:
	// one window slide).
	CheckEvery int64
	// DriftThreshold is the relative rate change that triggers
	// re-optimization (default 0.5).
	DriftThreshold float64
	// OnMigrate observes plan changes. Invocations are serialized across
	// shards but may arrive from different shards at different stream
	// times.
	OnMigrate func(at int64, old, new Plan)
	// Adaptive replaces drift-triggered re-optimization with per-burst
	// share-vs-split decisions: a burst detector classifies the arrival
	// rate each check interval, confirmed bursts install the shared plan,
	// and confirmed valleys split back to per-query execution.
	Adaptive bool
	// Burst tunes the adaptive detector (zero values select defaults).
	Burst BurstConfig
	// OnDecision observes each confirmed share/split transition after
	// its plan installs (share: len(plan) > 0); serialized like OnMigrate.
	OnDecision func(at int64, state BurstState, plan Plan)
}

// resolveParallelism maps Options.Parallelism to a worker count.
// shardable is false for a uniform ungrouped workload: it aggregates all
// events under one group and cannot shard by key, so it always runs the
// plain sequential path, even under an explicit Parallelism. Auto (0)
// additionally requires no OnResult callback: auto must not silently
// move an existing callback onto another goroutine.
func resolveParallelism(p int, shardable, callback bool) int {
	switch {
	case !shardable:
		return 1
	case p > 1:
		return p
	case p == 0 && !callback:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// System is a compiled workload: the per-segment sharing plans and the
// running executor composed for them (see the package comment).
//
// A System is fed from one goroutine. Snapshot, Restore, AbsorbGroups,
// RemoveGroups and Quiesce are called from that goroutine too; the
// sharded executor quiesces its workers under an internal barrier.
type System struct {
	workload Workload
	// specs holds one (sub-workload, plan) pair per uniform segment;
	// under Dynamic the plan is the initial one.
	specs []exec.SegmentSpec
	score float64
	ex    exec.Online
	// dyns are the §7.4 runtimes when Options.Dynamic is set: one, or one
	// per shard, which the worker goroutines own while the run is live.
	dyns    []*exec.Dynamic
	sharded bool
	// done records that Flush or Close tore the executor down, after
	// which a sharded run's dyns are readable from the caller.
	done bool
}

// MeasureRates computes per-type rates from a stream sample, normalized
// per group when the workload groups by key (the executor partitions the
// stream, so the cost model must see per-group rates).
func MeasureRates(sample Stream, w Workload) Rates {
	rates := Rates(sample.Rates())
	if len(w) == 0 || !w[0].GroupBy {
		return rates
	}
	keys := make(map[GroupKey]bool)
	for _, e := range sample {
		keys[e.Key] = true
	}
	if n := float64(len(keys)); n > 1 {
		for t := range rates {
			rates[t] /= n
		}
	}
	return rates
}

// NewSystem partitions the workload into uniform segments, optimizes
// each, and builds the executor. Queries keep their global IDs in
// results. Option combinations that cannot be honoured are errors, never
// silently dropped.
func NewSystem(w Workload, opts Options) (*System, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("sharon: empty workload")
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("sharon: %w", err)
	}
	strat, err := opts.Strategy.optimizer()
	if err != nil {
		return nil, err
	}
	segs := exec.PartitionWorkload(w)
	dyn := opts.Dynamic
	switch {
	case opts.Plan != nil && len(segs) > 1:
		return nil, fmt.Errorf("sharon: Options.Plan spans one uniform segment, the workload partitions into %d", len(segs))
	case dyn != nil && len(segs) > 1:
		return nil, fmt.Errorf("sharon: Options.Dynamic requires a uniform workload, this one partitions into %d segments", len(segs))
	case dyn != nil && (opts.Plan != nil || opts.Strategy != StrategySharon):
		return nil, fmt.Errorf("sharon: Options.Dynamic installs its own Sharon plans and cannot be combined with Plan or another Strategy")
	}
	rates := opts.Rates
	if rates == nil {
		rates = Rates{}
		for t := range w.Types() {
			rates[t] = 1
		}
	}
	budget := opts.OptimizerBudget
	if budget == 0 {
		budget = 10 * time.Second
	}

	// An explicit plan, and Dynamic (which plans for itself), skip the
	// optimizer; both were just checked to span a single segment.
	sys := &System{workload: w, specs: []exec.SegmentSpec{{Workload: w, Plan: opts.Plan}}}
	if opts.Plan == nil && dyn == nil {
		sys.specs, err = exec.PlanSegments(segs, rates, core.OptimizerOptions{
			Strategy: strat,
			Expand:   strat == core.StrategySharon,
			Budget:   budget,
		})
		if err != nil {
			return nil, fmt.Errorf("sharon: %w", err)
		}
		for _, sp := range sys.specs {
			sys.score += sp.Score
		}
	}

	// Segments shard regardless of grouping; one segment shards by key.
	workers := resolveParallelism(opts.Parallelism, len(segs) > 1 || w[0].GroupBy, opts.OnResult != nil)
	if len(segs) > 1 && workers > len(segs) {
		workers = len(segs)
	}
	sys.sharded = workers > 1
	execOpts := exec.Options{
		OnResult:  opts.OnResult,
		Collect:   opts.OnResult == nil,
		EmitEmpty: opts.EmitEmpty,
	}
	switch {
	case dyn != nil:
		cfg := exec.DynamicConfig{
			Options:         execOpts,
			CheckEvery:      dyn.CheckEvery,
			DriftThreshold:  dyn.DriftThreshold,
			OptimizerBudget: opts.OptimizerBudget,
			OnMigrate:       dyn.OnMigrate,
			Adaptive:        dyn.Adaptive,
			Burst:           dyn.Burst,
			OnDecision:      dyn.OnDecision,
		}
		if sys.sharded {
			sys.ex, sys.dyns, err = exec.NewParallelDynamic(w, rates, workers, cfg)
		} else {
			var d *exec.Dynamic
			d, err = exec.NewDynamic(w, rates, cfg)
			sys.ex, sys.dyns = d, []*exec.Dynamic{d}
		}
		if err == nil {
			// Safe on the sharded path too: the workers have not been
			// sent a message yet, so no goroutine touches shard state.
			sys.specs[0].Plan = sys.dyns[0].Plan()
		}
	case len(segs) > 1 && sys.sharded:
		sys.ex, err = exec.NewParallelPartitioned(sys.specs, workers, execOpts)
	case len(segs) > 1:
		sys.ex, err = exec.NewPartitionedFromSpecs(sys.specs, execOpts)
	case sys.sharded:
		sys.ex, err = exec.NewParallelEngine(w, sys.specs[0].Plan, workers, execOpts)
	default:
		sys.ex, err = exec.NewEngine(w, sys.specs[0].Plan, execOpts)
	}
	if err != nil {
		return nil, fmt.Errorf("sharon: %w", err)
	}
	if sys.sharded {
		// Backstop for a sharded run dropped without Flush or Close
		// (always safe sequentially): tear the workers down when the
		// System is collected. The GC may see the System as unreachable
		// while its last method call is still executing, so every method
		// that touches the executor pins it with runtime.KeepAlive —
		// without it the cleanup's Stop races the in-flight Flush's own
		// teardown.
		runtime.AddCleanup(sys, exec.Online.Stop, sys.ex)
	}
	return sys, nil
}

// Segments reports how many uniform segments the workload split into.
func (s *System) Segments() int { return len(s.specs) }

// SegmentPlan returns segment i's queries and sharing plan.
func (s *System) SegmentPlan(i int) (Workload, Plan) {
	return s.specs[i].Workload, s.specs[i].Plan
}

// Plan returns the sharing plan in effect for a uniform workload — under
// Dynamic the currently installed one — in the form Options.Plan accepts.
// It is nil for a multi-segment workload, whose plans SegmentPlan
// returns. A sharded Dynamic run migrates per shard: Plan reports the
// initial plan while the run is live and shard 0's final plan after
// Flush.
func (s *System) Plan() Plan {
	switch {
	case len(s.specs) > 1:
		return nil
	case len(s.dyns) > 0 && s.dynsReadable():
		return s.dyns[0].Plan()
	}
	return s.specs[0].Plan
}

// PlanScore returns the optimizer's estimated benefit of the plans
// (Definition 8), summed over segments; zero when a plan was supplied
// directly and under Dynamic.
func (s *System) PlanScore() float64 { return s.score }

// FormatPlan renders Plan with type names from reg.
func (s *System) FormatPlan(reg *Registry) string {
	return s.Plan().Format(reg, s.workload)
}

// Explain renders the executor's per-query decomposition into shared and
// private segments. Empty under Dynamic, where it changes with every
// plan hand-off.
func (s *System) Explain(reg *Registry) string { return s.ex.Explain(reg) }

// Process feeds the next event. Events must arrive in strictly increasing
// timestamp order.
func (s *System) Process(e Event) error {
	defer runtime.KeepAlive(s) // see NewSystem
	return s.ex.Process(e)
}

// FeedBatch feeds a batch of strictly time-ordered events. On the
// sharded path this hoists the per-call liveness checks out of the
// event loop; the event batching itself happens inside the executor on
// both entry points, so Process-in-a-loop delivers the same batches.
func (s *System) FeedBatch(events []Event) error {
	defer runtime.KeepAlive(s) // see NewSystem
	return s.ex.FeedBatch(events)
}

// ProcessAll replays a whole stream and flushes. On a feed error the
// run is stopped without emitting partial windows.
func (s *System) ProcessAll(stream Stream) error {
	if err := s.FeedBatch(stream); err != nil {
		s.Close()
		return err
	}
	return s.Flush()
}

// Flush closes every window containing events seen so far. Call at end of
// stream.
func (s *System) Flush() error {
	defer runtime.KeepAlive(s) // see NewSystem
	s.done = true
	return s.ex.Flush()
}

// AdvanceWatermark declares that no event at or before time t will
// arrive anymore: every window ending at or before t closes and its
// results are emitted (to the OnResult sink, or into the collected set)
// without consuming an event and without ending the run. It is the
// emission driver for unbounded streams — sources that pause or that
// carry explicit watermark punctuation use it to bound result latency;
// Flush remains the terminal close of a finite stream. Subsequent events
// at or before t are rejected as out-of-order. Calls before the first
// event or behind the current watermark are no-ops. Dynamic's rate
// accounting is untouched: drift is measured over observed events only.
func (s *System) AdvanceWatermark(t int64) {
	defer runtime.KeepAlive(s) // see NewSystem
	s.ex.AdvanceWatermark(t)
}

// Close releases the executor without emitting the windows still open.
// A sharded run (resolved Parallelism above 1) must end with Flush —
// which delivers all windows — or Close: dropping an unflushed sharded
// System leaks its worker goroutines until the GC backstop runs. On the
// sequential path Close is a no-op. Idempotent, and safe after Flush.
func (s *System) Close() {
	defer runtime.KeepAlive(s) // see NewSystem
	s.done = true
	s.ex.Stop()
}

// Results returns the collected results, sorted by query, window, group.
// Collection and the OnResult sink are mutually exclusive: when
// Options.OnResult is set the system does not retain results and Results
// always returns nil — the sink is the single consumer, and there is no
// partially delivered snapshot to race with the callback. On the
// sharded path results are available only after Flush (nil before); the
// sequential path also exposes the results collected so far mid-run.
func (s *System) Results() []Result { return s.ex.Results() }

// ResultCount reports the number of aggregates emitted so far.
func (s *System) ResultCount() int64 { return s.ex.ResultCount() }

// PeakMemoryStates reports the executor's peak number of live aggregate
// states (the paper's memory metric unit), summed over segments. On the
// sharded path the shards' peaks are summed at Flush time (0 before).
func (s *System) PeakMemoryStates() int64 { return s.ex.PeakLiveStates() }

// GroupCount reports the number of live per-group runtimes, summed over
// segments.
func (s *System) GroupCount() int64 { return s.ex.GroupCount() }

// ParallelStats reports the sharded executor's throughput and
// shard-occupancy counters; the zero value when the system runs
// sequentially. Elapsed/throughput fields are populated by Flush.
func (s *System) ParallelStats() ParallelStats { return s.ex.Stats() }

// DynamicStats are the Options.Dynamic runtime's counters.
type DynamicStats struct {
	// Migrations counts installed plan changes.
	Migrations int
	// ShareTransitions and SplitTransitions count the adaptive mode's
	// confirmed burst→shared and valley→split plan installs.
	ShareTransitions, SplitTransitions int
	// PrunedStarts is the state reduction's dead-record prune count —
	// START records recycled at birth because no open window could
	// still observe them — cumulative across plan migrations.
	PrunedStarts int64
	// BurstState is the adaptive detector's debounced state (Valley when
	// not adaptive); shard 0's on a sharded run.
	BurstState BurstState
}

// DynamicStats sums the Dynamic runtime's counters across shards; zero
// without Options.Dynamic. The shards of a sharded run are worker-owned
// while it is live: the counters read zero until Flush or Close —
// observe OnMigrate and OnDecision for live transitions.
func (s *System) DynamicStats() DynamicStats {
	var st DynamicStats
	if !s.dynsReadable() {
		return st
	}
	for i, d := range s.dyns {
		st.Migrations += d.Migrations
		st.ShareTransitions += d.ShareTransitions
		st.SplitTransitions += d.SplitTransitions
		st.PrunedStarts += d.PrunedStarts()
		if i == 0 {
			st.BurstState = d.BurstState()
		}
	}
	return st
}

func (s *System) dynsReadable() bool { return !s.sharded || s.done }

// Snapshot captures the system's runtime state for checkpointing. When
// it returns, every result for windows ending at or before the system's
// watermark has been delivered through OnResult, and the snapshot covers
// exactly the windows after it — so a checkpoint plus a replay of the
// events that followed it reproduces the uninterrupted emission stream
// with no lost and no duplicated windows. Under Dynamic it includes the
// installed plan, the rate counters and a mid-migration draining engine,
// so a restored run migrates exactly where the original would.
func (s *System) Snapshot() (*StateSnapshot, error) {
	defer runtime.KeepAlive(s) // see NewSystem
	return s.ex.Snapshot()
}

// Restore loads a snapshot into a freshly constructed system of the same
// shape — same workload, same plan inputs, same Dynamic setting and the
// same resolved Parallelism — before the first event. Mismatches are
// detected and returned as errors rather than corrupting state.
func (s *System) Restore(snap *StateSnapshot) error {
	defer runtime.KeepAlive(s) // see NewSystem
	if snap == nil {
		return fmt.Errorf("sharon: nil snapshot")
	}
	return s.ex.Restore(snap)
}

// Quiesce blocks until every result for windows ending at or before the
// current watermark has been delivered through OnResult. Sequential
// executors emit synchronously, so only the sharded path has anything
// to wait for.
func (s *System) Quiesce() error {
	defer runtime.KeepAlive(s) // see NewSystem
	return s.ex.Quiesce()
}

// Group slices are the state-transfer primitive the sharond cluster tier
// moves hash ranges between workers with. All per-group runtime state is
// independent, so a subset of groups can be cut out of one system's
// snapshot and grafted into another system that is quiesced at the same
// watermark (worker joins, graceful leaves, and dead-worker recovery
// from checkpoint + WAL tail). Only a uniform workload without Dynamic
// can host them: a multi-segment one interleaves per-segment windows and
// Dynamic carries migration state a group slice cannot represent.

// SliceGroups cuts the groups selected by keep out of a snapshot into a
// new engine-kind snapshot (the "group slice"). The slice preserves the
// source's stream position; sharded snapshots are flattened across
// their shards, so a slice taken under one worker count can be absorbed
// by a system running another.
func SliceGroups(snap *StateSnapshot, keep func(GroupKey) bool) (*StateSnapshot, error) {
	es, err := exec.SliceGroups(snap, keep)
	if err != nil {
		return nil, err
	}
	return &StateSnapshot{Kind: exec.KindEngine, Engine: es}, nil
}

// AbsorbGroups grafts a group slice (from SliceGroups) into the running
// system. A system that has processed events must be quiesced at
// exactly the slice's stream position (same watermark, no events in
// flight); a fresh system adopts the slice's position. Group keys must
// be disjoint from the system's own.
func (s *System) AbsorbGroups(slice *StateSnapshot) error {
	defer runtime.KeepAlive(s) // see NewSystem
	if slice.Kind != exec.KindEngine || slice.Engine == nil {
		return fmt.Errorf("sharon: AbsorbGroups wants an engine-kind group slice, got %q", slice.Kind)
	}
	return s.ex.AbsorbSlice(slice.Engine)
}

// RemoveGroups deletes every group whose key satisfies drop from the
// running system and reports how many were removed. The caller must
// stop routing those keys' events to this system first: a removed key's
// next event would rebuild the group from empty state.
func (s *System) RemoveGroups(drop func(GroupKey) bool) (int, error) {
	defer runtime.KeepAlive(s) // see NewSystem
	return s.ex.RemoveGroups(drop)
}

// Value extracts a result's final numeric answer for its query.
func Value(r Result, q *Query) float64 { return r.Value(q) }

// FindCandidates exposes the modified CCSpan sharable-pattern detection
// (Appendix A): every contiguous sub-pattern of length > 1 appearing in
// more than one query.
func FindCandidates(w Workload) []Candidate { return core.FindCandidates(w) }

// Optimize runs the Sharon optimizer alone and returns the chosen plan and
// its score; useful for inspecting sharing decisions without executing.
func Optimize(w Workload, rates Rates) (Plan, float64, error) {
	res, err := core.Optimize(w, rates, core.OptimizerOptions{
		Strategy: core.StrategySharon,
		Expand:   true,
		Budget:   10 * time.Second,
	})
	if err != nil {
		return nil, 0, err
	}
	return res.Plan, res.Score, nil
}
