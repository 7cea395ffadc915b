package exec

import (
	"fmt"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

// DynamicConfig configures the §7.4 dynamic-workload executor.
type DynamicConfig struct {
	Options
	// CheckEvery is the interval, in ticks, between rate-drift checks
	// (default: one window slide).
	CheckEvery int64
	// DriftThreshold is the relative per-type rate change that triggers
	// re-optimization (default 0.5, i.e. ±50%).
	DriftThreshold float64
	// OptimizerBudget bounds each re-optimization (default 2s).
	OptimizerBudget time.Duration
	// OnMigrate, if set, is called when a new plan is installed.
	OnMigrate func(at int64, old, new core.Plan)

	// Adaptive switches the executor from drift-triggered re-optimization
	// to per-burst share-vs-split decisions: a burst detector classifies
	// the total arrival rate each check interval, confirmed bursts
	// install the shared plan (optimized for the measured burst rates),
	// and confirmed valleys split back to the non-shared per-query plan.
	// Plan hand-offs reuse the window-boundary migration protocol, so
	// output stays byte-identical to a static engine either way.
	Adaptive bool
	// Burst tunes the detector (zero values select defaults).
	Burst BurstConfig
	// OnDecision, if set, is called after each confirmed share/split
	// transition installs its plan (share: len(plan) > 0).
	OnDecision func(at int64, state BurstState, plan core.Plan)
}

// Dynamic is the dynamic-workload executor (paper §7.4): it evaluates a
// workload under a sharing plan, monitors per-type event rates at runtime,
// re-runs the Sharon optimizer when rates drift, and migrates to the new
// plan without losing or corrupting window results.
//
// Migration protocol: when a new plan is chosen at time t, the first
// window owned by the new engine is B = the first window starting at or
// after t. Both engines consume the stream during the hand-off; the old
// engine emits only windows before B and is discarded once they have all
// closed, the new engine emits only windows from B on. Every window is
// thus computed by exactly one engine over its full extent, so results
// are identical to a static execution of the respective plans.
type Dynamic struct {
	w   query.Workload
	win query.Window
	cfg DynamicConfig
	resultSink
	sequential
	noGroupSlices

	current  *Engine
	draining *Engine
	// boundary is the first window index owned by current (windows below
	// it belong to draining, when present); currentFrom is current's own
	// lower bound, needed if it later becomes the draining engine.
	boundary    int64
	currentFrom int64
	plan        core.Plan
	rates       core.Rates // rates the current plan was chosen for
	// drainPlan/drainFrom describe the draining engine for checkpoints:
	// the plan it was built for and the lower bound of its window range.
	drainPlan core.Plan
	drainFrom int64

	counts    map[event.Type]float64
	countFrom int64
	nextCheck int64
	started   bool
	last      int64
	// Migrations counts installed plan changes.
	Migrations int

	// Adaptive (share-vs-split) state: the burst detector, the cached
	// shared plan with the rates it was optimized for (recomputed only
	// when rates drift past DriftThreshold, so repeated bursts reuse it),
	// and the confirmed-transition counters.
	detector    *BurstDetector
	sharedPlan  core.Plan
	sharedRates core.Rates
	sharedValid bool
	// ShareTransitions/SplitTransitions count confirmed burst→shared and
	// valley→split plan installs.
	ShareTransitions int
	SplitTransitions int
	// prunedRetired accumulates PrunedStarts of drained engines at the
	// moment they are discarded, so the executor-wide count is cumulative
	// across migrations.
	prunedRetired int64
}

// NewDynamic builds a dynamic executor with an initial plan optimized for
// the supplied rates.
func NewDynamic(w query.Workload, rates core.Rates, cfg DynamicConfig) (*Dynamic, error) {
	if err := validateUniform(w); err != nil {
		return nil, err
	}
	if cfg.DriftThreshold <= 0 {
		cfg.DriftThreshold = 0.5
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = w[0].Window.Slide
	}
	if cfg.OptimizerBudget <= 0 {
		cfg.OptimizerBudget = 2 * time.Second
	}
	d := &Dynamic{
		w: w, win: w[0].Window, cfg: cfg,
		resultSink: resultSink{opts: cfg.Options},
		counts:     make(map[event.Type]float64),
		rates:      rates,
	}
	var err error
	if cfg.Adaptive {
		// Adaptive mode starts split (the detector starts in Valley and
		// needs observed intervals before it can confirm a burst).
		d.detector = NewBurstDetector(cfg.Burst)
		d.plan = nil
	} else {
		d.plan, err = d.optimize(rates)
		if err != nil {
			return nil, err
		}
	}
	d.current, err = d.newEngine(d.plan, 0, -1)
	if err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Dynamic) optimize(rates core.Rates) (core.Plan, error) {
	res, err := core.Optimize(d.w, rates, core.OptimizerOptions{
		Strategy:     core.StrategySharon,
		Expand:       true,
		ExpandConfig: core.ExpandConfig{MaxOptionsPerCandidate: 8, MaxTotalVertices: 512},
		Budget:       d.cfg.OptimizerBudget,
	})
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// newEngine builds a sub-engine emitting only windows in [from, to]
// (to < 0 means unbounded above). An upper-bounded engine is a draining
// one, so the bound is also pushed into the engine itself
// (BoundEmitWindows) to skip the state and emission work past it.
func (d *Dynamic) newEngine(plan core.Plan, from, to int64) (*Engine, error) {
	en, err := NewEngine(d.w, plan, Options{
		EmitEmpty: d.cfg.EmitEmpty,
		OnResult: func(r Result) {
			if r.Win < from || (to >= 0 && r.Win > to) {
				return
			}
			d.emit(r)
		},
	})
	if err != nil {
		return nil, err
	}
	if to >= 0 {
		en.BoundEmitWindows(to)
	}
	return en, nil
}

// Name identifies the strategy.
func (d *Dynamic) Name() string { return "Sharon-dynamic" }

// Plan returns the currently installed sharing plan.
func (d *Dynamic) Plan() core.Plan { return d.plan }

// Process feeds the next event, checking for rate drift on the configured
// interval.
func (d *Dynamic) Process(e event.Event) error {
	if d.started && e.Time <= d.last {
		return fmt.Errorf("exec: out-of-order event at t=%d", e.Time)
	}
	if !d.started {
		d.started = true
		d.countFrom = e.Time
		d.nextCheck = e.Time + d.cfg.CheckEvery
	}
	d.last = e.Time

	if e.Time >= d.nextCheck {
		if err := d.maybeMigrate(e.Time); err != nil {
			return err
		}
		d.nextCheck = e.Time + d.cfg.CheckEvery
	}
	d.counts[e.Type]++

	// The draining engine runs first: it owns the windows below the
	// migration boundary, so feeding it ahead of current keeps the sink's
	// window order monotone across a plan hand-off. Its windows have all
	// closed once the watermark passes the last one's end.
	if d.draining != nil {
		if err := d.draining.Process(e); err != nil {
			return err
		}
		if e.Time >= d.win.End(d.boundary-1) {
			if err := d.draining.Flush(); err != nil {
				return err
			}
			d.retireDraining()
		}
	}
	return d.current.Process(e)
}

// FeedBatch feeds a strictly time-ordered batch.
func (d *Dynamic) FeedBatch(events []event.Event) error {
	for _, e := range events {
		if err := d.Process(e); err != nil {
			return err
		}
	}
	return nil
}

// Explain is empty: the decomposition changes with every plan hand-off,
// and under Parallel the installed engine belongs to the worker
// goroutine. Plan reports what is installed.
func (d *Dynamic) Explain(*event.Registry) string { return "" }

// maybeMigrate measures recent rates and installs a new plan when the
// situation calls for one: in adaptive mode on confirmed burst/valley
// transitions, otherwise when rates drifted beyond the threshold.
func (d *Dynamic) maybeMigrate(now int64) error {
	span := float64(now-d.countFrom) / event.TicksPerSecond
	if span <= 0 {
		return nil
	}
	var total float64
	measured := make(core.Rates, len(d.counts))
	for t, c := range d.counts {
		measured[t] = c / span
		total += c
	}
	clear(d.counts)
	d.countFrom = now
	if d.cfg.Adaptive {
		return d.adapt(now, measured, total/span)
	}
	if d.draining != nil || !drifted(d.rates, measured, d.cfg.DriftThreshold) {
		return nil
	}
	newPlan, err := d.optimize(measured)
	if err != nil {
		return err
	}
	d.rates = measured
	if samePlan(d.plan, newPlan) {
		return nil
	}
	return d.installPlan(now, newPlan)
}

// adapt runs one share-vs-split decision round: feed the interval's
// total arrival rate to the burst detector, then reconcile the installed
// plan with the debounced state — the shared plan during bursts, the
// split (per-query) plan in valleys. Reconciling against the state
// rather than acting on transition edges means a decision deferred by an
// in-flight hand-off is retried at the next check instead of lost.
func (d *Dynamic) adapt(now int64, measured core.Rates, totalRate float64) error {
	state, _ := d.detector.Observe(totalRate)
	if d.draining != nil {
		return nil // mid-hand-off; reconcile at the next check
	}
	var want core.Plan
	if state == Burst {
		// Once a shared plan is installed it is pinned for the burst's
		// duration: intervals straddling the burst edge measure blended
		// rates, and re-optimizing on that noise would churn hand-offs
		// (or even drop sharing mid-burst) for marginal plan gains.
		if len(d.plan) > 0 {
			return nil
		}
		p, err := d.sharedPlanFor(measured)
		if err != nil {
			return err
		}
		want = p
	}
	if samePlan(d.plan, want) {
		return nil
	}
	if err := d.installPlan(now, want); err != nil {
		return err
	}
	if len(want) > 0 {
		d.ShareTransitions++
	} else {
		d.SplitTransitions++
	}
	if d.cfg.OnDecision != nil {
		d.cfg.OnDecision(now, state, want)
	}
	return nil
}

// sharedPlanFor returns the plan bursts share under, re-optimizing only
// when the measured rates drifted past DriftThreshold from the rates the
// cached plan was built for — repeated bursts then reuse the cache
// instead of paying the optimizer per transition.
func (d *Dynamic) sharedPlanFor(measured core.Rates) (core.Plan, error) {
	if d.sharedValid && !drifted(d.sharedRates, measured, d.cfg.DriftThreshold) {
		return d.sharedPlan, nil
	}
	p, err := d.optimize(measured)
	if err != nil {
		return nil, err
	}
	d.sharedPlan, d.sharedRates, d.sharedValid = p, measured, true
	return p, nil
}

// installPlan hands the stream off to a fresh engine compiled for
// newPlan: the new engine owns windows starting at or after now, the old
// one drains its remaining windows below the boundary (see the migration
// protocol in the type doc).
func (d *Dynamic) installPlan(now int64, newPlan core.Plan) error {
	boundary := d.win.LastContaining(now) + 1
	next, err := d.newEngine(newPlan, boundary, -1)
	if err != nil {
		return err
	}
	old := d.current
	// Narrow the old engine to its remaining windows [its own lower
	// bound, boundary-1]: swap the OnResult filter for correctness, and
	// bound the engine itself so the drain skips state and emission work
	// for windows it no longer owns. No record or snapshot already held
	// can be beyond the bound — every event seen so far lies in windows
	// at or before LastContaining(now) = boundary-1 — so the bound takes
	// effect purely going forward.
	old.opts.OnResult = boundedForward(d, d.currentFrom, boundary-1)
	old.BoundEmitWindows(boundary - 1)
	d.draining = old
	d.drainPlan = d.plan
	d.drainFrom = d.currentFrom
	d.current = next
	d.boundary = boundary
	d.currentFrom = boundary
	d.Migrations++
	if d.cfg.OnMigrate != nil {
		d.cfg.OnMigrate(now, d.plan, newPlan)
	}
	d.plan = newPlan
	return nil
}

// BurstState reports the detector's current debounced state (Valley when
// the executor is not adaptive).
func (d *Dynamic) BurstState() BurstState {
	if d.detector == nil {
		return Valley
	}
	return d.detector.State()
}

// PrunedStarts reports the dead-suffix prune count summed over the live
// engines plus all retired ones (see Engine.PrunedStarts).
func (d *Dynamic) PrunedStarts() int64 {
	n := d.prunedRetired + d.current.PrunedStarts()
	if d.draining != nil {
		n += d.draining.PrunedStarts()
	}
	return n
}

func boundedForward(d *Dynamic, from, to int64) func(Result) {
	return func(r Result) {
		if r.Win < from || r.Win > to {
			return
		}
		d.emit(r)
	}
}

// drifted reports whether any type's rate changed by more than threshold
// relative to the old rates (new types count as drift).
func drifted(old, new core.Rates, threshold float64) bool {
	for t, n := range new {
		o := old[t]
		if o == 0 {
			if n > 0 {
				return true
			}
			continue
		}
		if diff := (n - o) / o; diff > threshold || diff < -threshold {
			return true
		}
	}
	for t, o := range old {
		if o > 0 && new[t] == 0 {
			return true
		}
	}
	return false
}

// samePlan compares plans as candidate sets.
func samePlan(a, b core.Plan) bool {
	if len(a) != len(b) {
		return false
	}
	keys := make(map[string]bool, len(a))
	for _, c := range a {
		keys[c.Key()] = true
	}
	for _, c := range b {
		if !keys[c.Key()] {
			return false
		}
	}
	return true
}

// AdvanceWatermark closes windows ending at or before t on the active
// engines without consuming an event (used by the parallel executor).
// Rate accounting is untouched: drift is measured over observed events
// only.
func (d *Dynamic) AdvanceWatermark(t int64) {
	if !d.started || t <= d.last {
		return
	}
	d.last = t
	// Draining engine first, as in Process: its windows precede current's.
	if d.draining != nil {
		d.draining.AdvanceWatermark(t)
		if t >= d.win.End(d.boundary-1) {
			// Engine.Flush never fails once events are in order.
			_ = d.draining.Flush()
			d.retireDraining()
		}
	}
	d.current.AdvanceWatermark(t)
}

// retireDraining discards the drained engine, folding its cumulative
// counters into the executor's.
func (d *Dynamic) retireDraining() {
	d.prunedRetired += d.draining.PrunedStarts()
	d.draining = nil
}

// Flush closes all remaining windows on both engines.
func (d *Dynamic) Flush() error {
	if d.draining != nil {
		if err := d.draining.Flush(); err != nil {
			return err
		}
		d.retireDraining()
	}
	return d.current.Flush()
}

// PeakLiveStates reports the combined peak of the sub-engines.
func (d *Dynamic) PeakLiveStates() int64 {
	n := d.current.PeakLiveStates()
	if d.draining != nil {
		n += d.draining.PeakLiveStates()
	}
	return n
}
