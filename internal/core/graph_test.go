package core

import (
	"strings"
	"testing"

	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

func mkCand(firstType event.Type, qs ...int) Candidate {
	return NewCandidate(query.Pattern{firstType, firstType + 1}, qs)
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	v0 := g.AddVertex(Vertex{Candidate: mkCand(1, 0, 1), Weight: 5})
	v1 := g.AddVertex(Vertex{Candidate: mkCand(3, 1, 2), Weight: 7})
	v2 := g.AddVertex(Vertex{Candidate: mkCand(5, 2, 3), Weight: 2})
	g.AddEdge(v0, v1)
	g.AddEdge(v1, v2)

	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("graph = %dv/%de", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(v0, v1) || !g.HasEdge(v1, v0) {
		t.Error("undirected edge missing")
	}
	if g.HasEdge(v0, v2) {
		t.Error("phantom edge")
	}
	if d := g.Degree(v1); d != 2 {
		t.Errorf("degree(v1) = %d", d)
	}
	if got := g.Neighbors(v1); len(got) != 2 || got[0] != v0 || got[1] != v2 {
		t.Errorf("neighbors(v1) = %v", got)
	}
	if got := g.TotalWeight(); got != 14 {
		t.Errorf("total weight = %v", got)
	}
	// Duplicate and self edges are ignored.
	g.AddEdge(v1, v0)
	g.AddEdge(v0, v0)
	if g.NumEdges() != 2 || g.Degree(v0) != 1 || g.HasEdge(v0, v0) {
		t.Errorf("after dup/self: %d edges, degree(v0) = %d", g.NumEdges(), g.Degree(v0))
	}
	// A graph built edge by edge has no workload to derive causes from.
	if got := g.EdgeCauses(v0, v1); got != nil {
		t.Errorf("causes without a workload = %v", got)
	}
}

func TestGraphSubgraph(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 4; i++ {
		g.AddVertex(Vertex{Candidate: mkCand(event.Type(2*i+1), 0, 1), Weight: float64(i + 1)})
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	sub := g.subgraph([]int{0, 2, 3})
	if sub.NumVertices() != 3 {
		t.Fatalf("sub vertices = %d", sub.NumVertices())
	}
	// Only the 2-3 edge survives (1 was dropped).
	if sub.NumEdges() != 1 {
		t.Errorf("sub edges = %d", sub.NumEdges())
	}
	if !sub.HasEdge(1, 2) { // remapped indices: 2->1, 3->2
		t.Error("remapped edge missing")
	}
	if sub.Vertices[1].Weight != 3 {
		t.Errorf("weights not preserved: %+v", sub.Vertices)
	}
}

func TestGraphFormatAndLiveStates(t *testing.T) {
	reg := event.NewRegistry()
	a, b := reg.Intern("A"), reg.Intern("B")
	w := query.Workload{{ID: 0, Name: "q1", Pattern: query.Pattern{a, b},
		Window: query.Window{Length: 10, Slide: 5}}}
	g := NewGraph()
	g.AddVertex(Vertex{Candidate: NewCandidate(query.Pattern{a, b}, []int{0, 1}), Weight: 4})
	out := g.Format(reg, w)
	if !strings.Contains(out, "(A, B)") || !strings.Contains(out, "weight=4") {
		t.Errorf("Format = %q", out)
	}
	if g.LiveStates() <= 0 {
		t.Error("LiveStates = 0")
	}
}

func TestGWMINEmptyGraph(t *testing.T) {
	if got := GWMIN(NewGraph()); len(got) != 0 {
		t.Errorf("GWMIN(empty) = %v", got)
	}
}

func TestGWMINSingleVertex(t *testing.T) {
	g := NewGraph()
	g.AddVertex(Vertex{Candidate: mkCand(1, 0, 1), Weight: 3})
	set := GWMIN(g)
	if len(set) != 1 || set[0] != 0 {
		t.Errorf("GWMIN = %v", set)
	}
}

// TestGWMINStarGraph: a center whose weight-per-degree ratio loses to the
// leaves — GWMIN must pick all leaves.
func TestGWMINStarGraph(t *testing.T) {
	g := NewGraph()
	center := g.AddVertex(Vertex{Candidate: mkCand(1, 0, 1), Weight: 10})
	for i := 0; i < 4; i++ {
		leaf := g.AddVertex(Vertex{Candidate: mkCand(event.Type(10+2*i), 0, 1), Weight: 6})
		g.AddEdge(center, leaf)
	}
	set := GWMIN(g)
	if len(set) != 4 {
		t.Fatalf("GWMIN star = %v, want the 4 leaves", set)
	}
	if g.SetWeight(set) != 24 {
		t.Errorf("weight = %v", g.SetWeight(set))
	}
}

func TestReduceEmptyAndConflictFreeOnly(t *testing.T) {
	res := Reduce(NewGraph())
	if res.Reduced.NumVertices() != 0 || len(res.ConflictFree) != 0 {
		t.Errorf("Reduce(empty) = %+v", res)
	}
	g := NewGraph()
	g.AddVertex(Vertex{Candidate: mkCand(1, 0, 1), Weight: 1})
	g.AddVertex(Vertex{Candidate: mkCand(3, 2, 3), Weight: 2})
	res = Reduce(g)
	if len(res.ConflictFree) != 2 || res.Reduced.NumVertices() != 0 {
		t.Errorf("edgeless graph should be fully conflict-free: %+v", res)
	}
}

// TestReduceCascade: removing a conflict-ridden vertex can make its
// neighbor conflict-free in a later pass.
func TestReduceCascade(t *testing.T) {
	g := NewGraph()
	// big is so heavy that low's Scoremax (low+mid) is below the bound.
	big := g.AddVertex(Vertex{Candidate: mkCand(1, 0, 1), Weight: 100})
	low := g.AddVertex(Vertex{Candidate: mkCand(3, 0, 1), Weight: 1})
	mid := g.AddVertex(Vertex{Candidate: mkCand(5, 2, 3), Weight: 50})
	g.AddEdge(big, low)
	_ = mid
	res := Reduce(g)
	// Pass 1: mid is conflict-free; bound = 100/2 + 1/2 + 50 = 100.5;
	// Scoremax(low) = 1 + 50 = 51 < 100.5 -> pruned. Pass 2: big becomes
	// conflict-free.
	if len(res.ConflictFree) != 2 {
		t.Fatalf("conflict-free = %d, want 2 (mid, then big)", len(res.ConflictFree))
	}
	if res.PrunedConflictRidden != 1 {
		t.Errorf("pruned = %d, want 1 (low)", res.PrunedConflictRidden)
	}
	if res.Reduced.NumVertices() != 0 {
		t.Errorf("residual graph %d vertices", res.Reduced.NumVertices())
	}
}

func TestPlanHelpers(t *testing.T) {
	reg := event.NewRegistry()
	a, b, c := reg.Intern("A"), reg.Intern("B"), reg.Intern("C")
	w := query.Workload{
		{ID: 0, Pattern: query.Pattern{a, b, c}, Window: query.Window{Length: 10, Slide: 5}},
		{ID: 1, Pattern: query.Pattern{a, b}, Window: query.Window{Length: 10, Slide: 5}},
	}
	plan := Plan{NewCandidate(query.Pattern{a, b}, []int{0, 1})}
	if err := plan.Validate(w); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if got := plan.QueriesSharing(0); len(got) != 1 {
		t.Errorf("QueriesSharing(0) = %v", got)
	}
	if got := plan.QueriesSharing(9); len(got) != 0 {
		t.Errorf("QueriesSharing(9) = %v", got)
	}
	clone := plan.Clone()
	clone[0] = NewCandidate(query.Pattern{b, c}, []int{0, 1})
	if plan[0].Pattern.Equal(clone[0].Pattern) {
		t.Error("Clone aliases plan")
	}
	if got := (Plan{}).Format(reg, w); got != "{}" {
		t.Errorf("empty plan Format = %q", got)
	}

	// Invalid plans.
	bad := []Plan{
		{NewCandidate(query.Pattern{a}, []int{0, 1})},                                                    // length 1
		{NewCandidate(query.Pattern{a, b}, []int{0})},                                                    // single query
		{NewCandidate(query.Pattern{a, b}, []int{0, 7})},                                                 // unknown id
		{NewCandidate(query.Pattern{b, c}, []int{0, 1})},                                                 // not in q1
		{NewCandidate(query.Pattern{a, b}, []int{0, 1}), NewCandidate(query.Pattern{b, c}, []int{0, 1})}, // overlap
	}
	for i, p := range bad {
		if err := p.Validate(w); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

func TestExhaustivePanicsBeyondLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for oversized exhaustive search")
		}
	}()
	g := NewGraph()
	for i := 0; i < 63; i++ {
		g.AddVertex(Vertex{Candidate: mkCand(event.Type(2*i+1), 0, 1), Weight: 1})
	}
	ExhaustivePlanSearch(g)
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		StrategySharon:     "Sharon",
		StrategyGreedy:     "Greedy",
		StrategyExhaustive: "Exhaustive",
		StrategyNone:       "NoShare",
		Strategy(99):       "Strategy(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}
