package core

import (
	"fmt"
	"time"

	"github.com/sharon-project/sharon/internal/query"
)

// Strategy selects one of the optimizer front-ends compared in §8.3.
type Strategy int

const (
	// StrategySharon is the full Sharon optimizer: graph construction,
	// conflict-resolution expansion, GWMIN-bound reduction, and the
	// optimal plan search.
	StrategySharon Strategy = iota
	// StrategyGreedy is the greedy optimizer: graph construction followed
	// by GWMIN (no expansion, no reduction).
	StrategyGreedy
	// StrategyExhaustive is the exhaustive optimizer: graph construction,
	// expansion, and a full subset enumeration.
	StrategyExhaustive
	// StrategyNone disables sharing: the empty plan (the A-Seq default).
	StrategyNone
)

// String names the strategy as in the paper's Figure 15 ("SO"/"GO"/"EO").
func (s Strategy) String() string {
	switch s {
	case StrategySharon:
		return "Sharon"
	case StrategyGreedy:
		return "Greedy"
	case StrategyExhaustive:
		return "Exhaustive"
	case StrategyNone:
		return "NoShare"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Phase records one optimizer phase for the Figure 15 breakdown.
type Phase struct {
	Name string
	// Elapsed is the wall-clock duration of the phase.
	Elapsed time.Duration
	// LiveStates estimates the entries held at the end of the phase.
	LiveStates int64
}

// OptimizerOptions configures Optimize.
type OptimizerOptions struct {
	Strategy Strategy
	// Expand enables the §7.1 conflict-resolution expansion for the
	// Sharon and exhaustive strategies (the paper's §8 configuration).
	Expand bool
	// ExpandConfig bounds the expansion.
	ExpandConfig ExpandConfig
	// Budget optionally bounds the plan search; on expiry the optimizer
	// returns the better of the search's incumbent and GWMIN (§6, case 1),
	// with FinderStats.Gap bounding the loss.
	Budget time.Duration
}

// OptimizerResult is the outcome of a full optimizer run.
type OptimizerResult struct {
	Strategy Strategy
	// Plan is the chosen sharing plan.
	Plan Plan
	// Score is the plan's total benefit (Definition 8).
	Score float64
	// Phases is the per-phase latency/memory breakdown.
	Phases []Phase
	// Candidates is the number of sharable patterns detected.
	Candidates int
	// GraphVertices/GraphEdges describe the initial Sharon graph.
	GraphVertices, GraphEdges int
	// ExpandedVertices/ExpandedEdges describe the expanded graph (0 if
	// expansion disabled).
	ExpandedVertices, ExpandedEdges int
	// ReducedVertices counts vertices left after reduction.
	ReducedVertices int
	// PrunedConflictRidden counts §5 conflict-ridden removals.
	PrunedConflictRidden int
	// ConflictFree counts §5 conflict-free fast-path additions.
	ConflictFree int
	// FinderStats describes the plan search.
	FinderStats PlanFinderStats
	// PeakLiveStates is the optimizer memory metric: the maximum entries
	// held across phases.
	PeakLiveStates int64
	// TotalElapsed is the end-to-end optimization latency.
	TotalElapsed time.Duration
}

// Optimize runs the selected optimization strategy over the workload,
// producing a sharing plan for the runtime executor (paper Fig. 5).
func Optimize(w query.Workload, rates Rates, opts OptimizerOptions) (*OptimizerResult, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	res := &OptimizerResult{Strategy: opts.Strategy}
	start := time.Now()
	defer func() { res.TotalElapsed = time.Since(start) }()

	if opts.Strategy == StrategyNone {
		return res, nil
	}

	model := NewCostModel(w, rates)

	// Phase 1: sharable pattern detection + Sharon graph construction
	// (Algorithm 7 + Algorithm 1).
	t0 := time.Now()
	cands := FindCandidates(w)
	g := BuildGraph(model, cands)
	res.Candidates = len(cands)
	res.GraphVertices = g.NumVertices()
	res.GraphEdges = g.NumEdges()
	res.addPhase("graph", time.Since(t0), g.LiveStates())

	switch opts.Strategy {
	case StrategyGreedy:
		// Phase 2: GWMIN plan finder.
		t1 := time.Now()
		set := GWMIN(g)
		res.Plan = g.PlanOf(set)
		res.Score = g.SetWeight(set)
		res.addPhase("gwmin", time.Since(t1), int64(len(set)))
		return res, nil

	case StrategyExhaustive:
		if opts.Expand {
			t1 := time.Now()
			g = ExpandGraph(g, model.byID, model.BValue, opts.ExpandConfig)
			res.ExpandedVertices = g.NumVertices()
			res.ExpandedEdges = g.NumEdges()
			res.addPhase("expand", time.Since(t1), g.LiveStates())
		}
		t2 := time.Now()
		plan, score, considered := ExhaustivePlanSearch(g)
		res.Plan = plan
		res.Score = score
		res.FinderStats.PlansConsidered = considered
		res.addPhase("exhaustive", time.Since(t2), considered)
		return res, nil

	case StrategySharon:
		if opts.Expand {
			t1 := time.Now()
			g = ExpandGraph(g, model.byID, model.BValue, opts.ExpandConfig)
			res.ExpandedVertices = g.NumVertices()
			res.ExpandedEdges = g.NumEdges()
			res.addPhase("expand", time.Since(t1), g.LiveStates())
		}
		// Phase 3: reduction (Algorithm 2).
		t2 := time.Now()
		red := Reduce(g)
		res.ReducedVertices = red.Reduced.NumVertices()
		res.PrunedConflictRidden = red.PrunedConflictRidden
		res.ConflictFree = len(red.ConflictFree)
		res.addPhase("reduce", time.Since(t2), red.Reduced.LiveStates())

		// Phase 4: plan search (§6).
		t3 := time.Now()
		var deadline time.Time
		if opts.Budget > 0 {
			deadline = start.Add(opts.Budget)
		}
		plan, score, stats := SearchPlan(red.Reduced, red.ConflictFree, deadline)
		if stats.TimedOut {
			// §6 fallback: run GWMIN on both the expanded and the
			// original graph and keep the best plan seen. A truncated
			// search must never return less than the greedy optimizer.
			bound := score + stats.Gap
			for _, fg := range []*Graph{g, BuildGraph(model, cands)} {
				set := GWMIN(fg)
				if gw := fg.SetWeight(set); gw > score {
					plan, score = fg.PlanOf(set), gw
				}
			}
			stats.Gap = max(0, bound-score)
		}
		res.FinderStats = stats
		res.Plan = plan
		res.Score = score
		res.addPhase("find", time.Since(t3), stats.peakHeld)
		return res, nil
	}
	return nil, fmt.Errorf("optimize: unknown strategy %v", opts.Strategy)
}

func (r *OptimizerResult) addPhase(name string, d time.Duration, live int64) {
	r.Phases = append(r.Phases, Phase{Name: name, Elapsed: d, LiveStates: live})
	if live > r.PeakLiveStates {
		r.PeakLiveStates = live
	}
}

// PhaseDuration returns the elapsed time of the named phase (0 if absent).
func (r *OptimizerResult) PhaseDuration(name string) time.Duration {
	for _, p := range r.Phases {
		if p.Name == name {
			return p.Elapsed
		}
	}
	return 0
}
