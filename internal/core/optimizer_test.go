package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/gen"
	"github.com/sharon-project/sharon/internal/query"
)

// randomGraph builds a random conflict graph over synthetic candidates:
// n vertices with integral weights (so scores compare exactly), spread
// over up to comps groups with edges only inside a group, each present
// with probability density. Sparse or singleton groups leave isolated
// vertices.
func randomGraph(rng *rand.Rand, n int, density float64, comps int) *Graph {
	g := NewGraph()
	group := make([]int, n)
	for i := 0; i < n; i++ {
		// Pattern identity only matters for Key uniqueness here; use
		// synthetic type ids.
		p := query.Pattern{event.Type(2*i + 1), event.Type(2*i + 2)}
		g.AddVertex(Vertex{
			Candidate: NewCandidate(p, []int{rng.Intn(5), 5 + rng.Intn(5)}),
			Weight:    1 + float64(rng.Intn(30)),
		})
		group[i] = rng.Intn(comps)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if group[i] == group[j] && rng.Float64() < density {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// indicesOf maps a plan over g's candidates back to g's vertex indices.
func indicesOf(t *testing.T, g *Graph, plan Plan) []int {
	t.Helper()
	at := make(map[string]int, g.NumVertices())
	for i, v := range g.Vertices {
		at[v.Key()] = i
	}
	set := make([]int, len(plan))
	for k, c := range plan {
		i, ok := at[c.Key()]
		if !ok {
			t.Fatalf("plan candidate %v is not a vertex", c)
		}
		set[k] = i
	}
	return set
}

// TestSearchMatchesExhaustive is the plan search's core property: on
// random graphs of up to 20 vertices, densities 0.1-0.9, several
// components and isolated vertices, the branch and bound (after
// reduction, and without it) scores exactly what subset enumeration and
// the paper's lattice score, with a valid plan and a zero gap; on graphs
// of 65-200 vertices it matches the lattice.
func TestSearchMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	iters := 200 // enumerating 2^20 subsets takes ~0.1 s
	if testing.Short() {
		iters = 40
	}
	for it := 0; it < iters; it++ {
		n, density, comps := 1+rng.Intn(20), 0.1+0.8*rng.Float64(), 1+rng.Intn(4)
		g := randomGraph(rng, n, density, comps)
		_, want, _ := ExhaustivePlanSearch(g)
		if _, lattice, _ := FindOptimalPlan(g, nil); lattice != want {
			t.Fatalf("iter %d: lattice %v != exhaustive %v", it, lattice, want)
		}
		red := Reduce(g)
		plan, got, stats := SearchPlan(red.Reduced, red.ConflictFree, time.Time{})
		if got != want || stats.TimedOut || stats.Gap != 0 {
			t.Fatalf("iter %d (%d verts, %d edges, density %.2f, %d groups): search %v (gap %v, timed out %v) != exhaustive %v",
				it, n, g.NumEdges(), density, comps, got, stats.Gap, stats.TimedOut, want)
		}
		if set := indicesOf(t, g, plan); !g.IsIndependentSet(set) || g.SetWeight(set) != got {
			t.Fatalf("iter %d: plan %v is not an independent set scoring %v", it, set, got)
		}
		if _, unreduced, _ := SearchPlan(g, nil, time.Time{}); unreduced != want {
			t.Fatalf("iter %d: unreduced search %v != exhaustive %v", it, unreduced, want)
		}
	}
	// Past one 64-bit word, where subset enumeration cannot go, dense
	// graphs keep the lattice small enough to be the oracle alone. Nearly
	// equal weights keep the bound from pruning a node's branches before
	// they cross a word.
	for it := 0; it < iters/10; it++ {
		n, density := 65+rng.Intn(136), 0.7+0.25*rng.Float64()
		g := randomGraph(rng, n, density, 1)
		for i := range g.Vertices {
			g.Vertices[i].Weight = 100 + float64(rng.Intn(4))
		}
		_, want, _ := FindOptimalPlan(g, nil)
		red := Reduce(g)
		for _, tc := range []struct {
			g  *Graph
			cf []Vertex
		}{{red.Reduced, red.ConflictFree}, {g, nil}} {
			plan, got, stats := SearchPlan(tc.g, tc.cf, time.Time{})
			if got != want || stats.Gap != 0 {
				t.Fatalf("large iter %d (%d verts, %d edges): search on %d vertices %v (gap %v) != lattice %v",
					it, n, g.NumEdges(), tc.g.NumVertices(), got, stats.Gap, want)
			}
			if set := indicesOf(t, g, plan); !g.IsIndependentSet(set) {
				t.Fatalf("large iter %d: plan %v is not an independent set", it, set)
			}
		}
	}
}

// TestGWMINBoundRandom: GWMIN always returns an independent set whose
// weight meets the Eq. 10 guarantee and never exceeds the optimum.
func TestGWMINBoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 300; it++ {
		g := randomGraph(rng, 2+rng.Intn(12), 0.35, 1)
		set := GWMIN(g)
		if !g.IsIndependentSet(set) {
			t.Fatalf("iter %d: GWMIN set %v not independent", it, set)
		}
		w := g.SetWeight(set)
		if bound := g.GuaranteedWeight(); w < bound-1e-9 {
			t.Fatalf("iter %d: GWMIN weight %v below guarantee %v", it, w, bound)
		}
		_, opt, _ := ExhaustivePlanSearch(g)
		if w > opt+1e-9 {
			t.Fatalf("iter %d: GWMIN weight %v above optimum %v", it, w, opt)
		}
	}
}

// TestReducePreservesOptimum: reduction never changes the best achievable
// score, and conflict-free candidates always belong to the optimum.
func TestReducePreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for it := 0; it < 300; it++ {
		g := randomGraph(rng, 2+rng.Intn(11), 0.35, 1)
		_, before, _ := ExhaustivePlanSearch(g)
		red := Reduce(g)
		_, after, _ := FindOptimalPlan(red.Reduced, red.ConflictFree)
		if before != after {
			t.Fatalf("iter %d: optimum changed by reduction: %v -> %v", it, before, after)
		}
	}
}

// TestSearchPlanDeadline: an expired deadline stops the search at once;
// the incumbent is a valid plan at least as good as GWMIN's, and its gap
// bounds the distance to the optimum.
func TestSearchPlanDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for it := 0; it < 50; it++ {
		g := randomGraph(rng, 2+rng.Intn(15), 0.5, 2)
		plan, score, stats := SearchPlan(g, nil, time.Now().Add(-time.Second))
		if !stats.TimedOut {
			t.Fatalf("iter %d: expired deadline not reported", it)
		}
		set := indicesOf(t, g, plan)
		_, opt, _ := ExhaustivePlanSearch(g)
		switch {
		case !g.IsIndependentSet(set):
			t.Fatalf("iter %d: incumbent %v not independent", it, set)
		case score < g.SetWeight(GWMIN(g)):
			t.Fatalf("iter %d: incumbent %v below GWMIN %v", it, score, g.SetWeight(GWMIN(g)))
		case stats.Gap < 0 || score+stats.Gap < opt-1e-9:
			t.Fatalf("iter %d: gap %v does not bound optimum %v from incumbent %v", it, stats.Gap, opt, score)
		}
	}
}

func TestLevelGenerationApriori(t *testing.T) {
	// Triangle-free path graph v0-v1-v2: valid plans are {v0},{v1},{v2},
	// {v0,v2}. Level 2 from singles must contain only {v0,v2}.
	g := NewGraph()
	for i := 0; i < 3; i++ {
		p := query.Pattern{event.Type(2*i + 1), event.Type(2*i + 2)}
		g.AddVertex(Vertex{Candidate: NewCandidate(p, []int{0, 1}), Weight: float64(i + 1)})
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	level1 := []foundPlan{{verts: []int{0}, score: 1}, {verts: []int{1}, score: 2}, {verts: []int{2}, score: 3}}
	level2, trunc := nextLevel(g, level1, 0)
	if trunc {
		t.Fatal("unexpected truncation")
	}
	if len(level2) != 1 || level2[0].verts[0] != 0 || level2[0].verts[1] != 2 {
		t.Fatalf("level 2 = %+v, want [{0 2}]", level2)
	}
	if level2[0].score != 4 {
		t.Errorf("score = %v, want 4", level2[0].score)
	}
	if l3, _ := nextLevel(g, level2, 0); len(l3) != 0 {
		t.Error("level 3 should be empty")
	}
}

func TestLevelGenerationLimit(t *testing.T) {
	// A 6-vertex edgeless graph has 15 size-2 plans; a limit of 4 must
	// truncate.
	g := NewGraph()
	for i := 0; i < 6; i++ {
		p := query.Pattern{event.Type(2*i + 1), event.Type(2*i + 2)}
		g.AddVertex(Vertex{Candidate: NewCandidate(p, []int{0, 1}), Weight: 1})
	}
	var level1 []foundPlan
	for i := 0; i < 6; i++ {
		level1 = append(level1, foundPlan{verts: []int{i}, score: 1})
	}
	level2, trunc := nextLevel(g, level1, 4)
	if !trunc || len(level2) != 4 {
		t.Fatalf("limit ignored: %d children, truncated=%v", len(level2), trunc)
	}
}

// TestOptimizeStrategies runs all four front-ends over a real workload and
// cost model.
func TestOptimizeStrategies(t *testing.T) {
	reg := event.NewRegistry()
	w := query.Workload{
		query.MustParse("RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 10s SLIDE 2s", reg),
		query.MustParse("RETURN COUNT(*) PATTERN SEQ(A, B, D) WITHIN 10s SLIDE 2s", reg),
		query.MustParse("RETURN COUNT(*) PATTERN SEQ(E, A, B) WITHIN 10s SLIDE 2s", reg),
	}
	w.Renumber()
	rates := Rates{}
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		rates[reg.Lookup(name)] = 100
	}
	var scores = map[Strategy]float64{}
	for _, s := range []Strategy{StrategySharon, StrategyGreedy, StrategyExhaustive, StrategyNone} {
		res, err := Optimize(w, rates, OptimizerOptions{Strategy: s, Expand: s != StrategyGreedy})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := res.Plan.Validate(w); err != nil {
			t.Errorf("%v: invalid plan: %v", s, err)
		}
		scores[s] = res.Score
		if s == StrategyNone && len(res.Plan) != 0 {
			t.Errorf("NoShare produced a plan: %v", res.Plan)
		}
		if s == StrategySharon {
			var names []string
			for _, ph := range res.Phases {
				names = append(names, ph.Name)
			}
			if got := strings.Join(names, ","); got != "graph,expand,reduce,find" {
				t.Errorf("Sharon phases = %s, want graph,expand,reduce,find (Fig. 15)", got)
			}
		}
		if s == StrategyGreedy && len(res.Phases) != 2 {
			t.Errorf("Greedy phases = %v, want 2", res.Phases)
		}
	}
	if scores[StrategySharon] < scores[StrategyGreedy] {
		t.Errorf("Sharon score %v below greedy %v", scores[StrategySharon], scores[StrategyGreedy])
	}
	if scores[StrategySharon] != scores[StrategyExhaustive] {
		t.Errorf("Sharon %v != exhaustive %v", scores[StrategySharon], scores[StrategyExhaustive])
	}
	if scores[StrategySharon] <= 0 {
		t.Errorf("Sharon found no beneficial sharing: %v", scores[StrategySharon])
	}
}

// sharedShape is the benchmark's engine-shared workload (sharedConfig in
// benchmark/spec.go: 60 queries, 10 distinct patterns over three shared
// chunks) with the rates its optimizer sees there: per-group rates of the
// first 200 000 events of its stream.
func sharedShape() (query.Workload, Rates) {
	cfg := gen.WorkloadConfig{
		NumQueries: 60, PatternLen: 10,
		SharedChunks: 3, ChunkLen: 4, ChunksPerQuery: 2, FillerPool: 20,
		UniquePatterns: 10,
		Window:         20_000, Slide: 2_000,
		GroupBy: true, Seed: 1,
	}
	w, types := gen.GenWorkload(event.NewRegistry(), cfg)
	sample := gen.StreamForWorkload(types, gen.NumHotTypes(cfg), 200_000, 50, event.TicksPerSecond, 3, 1)
	keys := make(map[event.GroupKey]bool)
	for _, e := range sample {
		keys[e.Key] = true
	}
	rates := Rates(sample.Rates())
	for t := range rates {
		rates[t] /= float64(len(keys))
	}
	return w, rates
}

// TestOptimizeBudget: a budget that expires before the search starts
// still yields a valid plan scoring at least GWMIN on both the expanded
// and the original graph (§6 fallback), reported as timed out with a
// non-negative gap.
func TestOptimizeBudget(t *testing.T) {
	w, rates := sharedShape()
	res, err := Optimize(w, rates, OptimizerOptions{Strategy: StrategySharon, Expand: true, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(w); err != nil {
		t.Errorf("budgeted plan invalid: %v", err)
	}
	if !res.FinderStats.TimedOut || res.FinderStats.Gap < 0 {
		t.Errorf("timed out %v, gap %v; want true, >= 0", res.FinderStats.TimedOut, res.FinderStats.Gap)
	}
	model := NewCostModel(w, rates)
	g := BuildGraph(model, FindCandidates(w))
	for _, fg := range []*Graph{g, model.Expand(g, ExpandConfig{})} {
		if gw := fg.SetWeight(GWMIN(fg)); res.Score < gw {
			t.Errorf("budgeted score %v below GWMIN %v on a %d-vertex graph", res.Score, gw, fg.NumVertices())
		}
	}
}

// TestOptimizeSharedShape: on the benchmark's engine-shared shape the
// default budget proves the optimum (no timeout, zero gap), and repeated
// runs return the identical plan. The benchmark rebuilds its open-loop
// systems with fresh optimizer runs, so exact peak_live_states depends on
// the second property.
func TestOptimizeSharedShape(t *testing.T) {
	w, rates := sharedShape()
	var first *OptimizerResult
	for run := 0; run < 2; run++ {
		res, err := Optimize(w, rates, OptimizerOptions{Strategy: StrategySharon, Expand: true, Budget: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("run %d: %v, %d expanded vertices, %d edges, %d search nodes, score %.4f",
			run, res.TotalElapsed, res.ExpandedVertices, res.ExpandedEdges, res.FinderStats.PlansConsidered, res.Score)
		if res.FinderStats.TimedOut || res.FinderStats.Gap != 0 {
			t.Fatalf("run %d: timed out %v, gap %v; want a proven optimum", run, res.FinderStats.TimedOut, res.FinderStats.Gap)
		}
		if err := res.Plan.Validate(w); err != nil {
			t.Fatalf("run %d: plan invalid: %v", run, err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Score != first.Score || len(res.Plan) != len(first.Plan) {
			t.Fatalf("run %d: score %v, %d candidates; first run %v, %d", run, res.Score, len(res.Plan), first.Score, len(first.Plan))
		}
		for i := range res.Plan {
			if res.Plan[i].Key() != first.Plan[i].Key() {
				t.Fatalf("run %d: plan[%d] = %s, first run %s", run, i, res.Plan[i].Key(), first.Plan[i].Key())
			}
		}
	}
}
