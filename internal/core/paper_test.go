package core

import (
	"math"
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

// paperFixture rebuilds the traffic workload of Figure 1 / Table 1 and the
// Sharon graph of Figure 4 with the paper's vertex weights.
type paperFixture struct {
	reg      *event.Registry
	w        query.Workload
	patterns []query.Pattern // p1..p7
	weights  []float64
	byID     map[int]*query.Query
}

func newPaperFixture() *paperFixture {
	reg := event.NewRegistry()
	mk := func(streets ...string) query.Pattern {
		p := make(query.Pattern, len(streets))
		for i, s := range streets {
			p[i] = reg.Intern(s)
		}
		return p
	}
	win := query.Window{Length: 600000, Slide: 60000}
	f := &paperFixture{
		reg: reg,
		patterns: []query.Pattern{
			mk("OakSt", "MainSt"),            // p1
			mk("ParkAve", "OakSt"),           // p2
			mk("ParkAve", "OakSt", "MainSt"), // p3
			mk("MainSt", "WestSt"),           // p4
			mk("OakSt", "MainSt", "WestSt"),  // p5
			mk("MainSt", "StateSt"),          // p6
			mk("ElmSt", "ParkAve"),           // p7
		},
		weights: []float64{25, 9, 12, 15, 20, 8, 18},
	}
	qpats := []query.Pattern{
		mk("OakSt", "MainSt", "StateSt"),           // q1
		mk("OakSt", "MainSt", "WestSt"),            // q2
		mk("ParkAve", "OakSt", "MainSt"),           // q3
		mk("ParkAve", "OakSt", "MainSt", "WestSt"), // q4
		mk("MainSt", "StateSt"),                    // q5
		mk("ElmSt", "ParkAve"),                     // q6
		mk("ElmSt", "ParkAve"),                     // q7
	}
	f.byID = make(map[int]*query.Query)
	for i, p := range qpats {
		q := &query.Query{ID: i, Pattern: p, Agg: query.AggSpec{Kind: query.CountStar}, Window: win, GroupBy: true}
		f.w = append(f.w, q)
		f.byID[i] = q
	}
	return f
}

// table1Queries are the paper's Table 1 query sets, 0-based.
var table1Queries = [][]int{
	{0, 1, 2, 3}, // p1: q1,q2,q3,q4
	{2, 3},       // p2
	{2, 3},       // p3
	{1, 3},       // p4
	{1, 3},       // p5
	{0, 4},       // p6
	{5, 6},       // p7
}

func (f *paperFixture) candidates() []Candidate {
	out := make([]Candidate, len(f.patterns))
	for i, p := range f.patterns {
		out[i] = NewCandidate(p, table1Queries[i])
	}
	return out
}

func (f *paperFixture) graph() *Graph {
	return BuildGraphWithWeights(f.w, f.candidates(), f.weights)
}

// TestTable1SharableDetection checks the modified CCSpan output against
// Table 1 exactly.
func TestTable1SharableDetection(t *testing.T) {
	f := newPaperFixture()
	got := SharablePatterns(f.w)
	if len(got) != 7 {
		var names []string
		for _, sp := range got {
			names = append(names, sp.Pattern.Format(f.reg))
		}
		t.Fatalf("found %d sharable patterns, want 7: %v", len(got), names)
	}
	want := make(map[string][]int)
	for i, p := range f.patterns {
		want[p.Key()] = table1Queries[i]
	}
	for _, sp := range got {
		exp, ok := want[sp.Pattern.Key()]
		if !ok {
			t.Errorf("unexpected sharable pattern %s", sp.Pattern.Format(f.reg))
			continue
		}
		if len(sp.Queries) != len(exp) {
			t.Errorf("pattern %s queries = %v, want %v", sp.Pattern.Format(f.reg), sp.Queries, exp)
			continue
		}
		for i := range exp {
			if sp.Queries[i] != exp[i] {
				t.Errorf("pattern %s queries = %v, want %v", sp.Pattern.Format(f.reg), sp.Queries, exp)
				break
			}
		}
	}
}

// TestFigure4Conflicts verifies the conflict structure of Figure 4: the
// degrees implied by the guaranteed-weight computation of Example 7.
func TestFigure4Conflicts(t *testing.T) {
	f := newPaperFixture()
	g := f.graph()
	if g.NumVertices() != 7 {
		t.Fatalf("vertices = %d, want 7", g.NumVertices())
	}
	wantDegrees := []int{5, 3, 4, 3, 4, 1, 0}
	for i, want := range wantDegrees {
		if got := g.Degree(i); got != want {
			t.Errorf("degree(p%d) = %d, want %d", i+1, got, want)
		}
	}
	// Specific pairs called out in the paper.
	if !g.HasEdge(0, 1) { // p1-p2 overlap OakSt in q3,q4 (Example 4)
		t.Error("p1 and p2 should conflict")
	}
	if g.HasEdge(1, 3) { // p2 and p4 do not overlap (Example 5)
		t.Error("p2 and p4 must not conflict")
	}
	// Cause of p1-p2 conflict: q3 and q4.
	causes := g.EdgeCauses(0, 1)
	if len(causes) != 2 || causes[0] != 2 || causes[1] != 3 {
		t.Errorf("p1-p2 causes = %v, want [2 3]", causes)
	}
}

// TestExample7GuaranteedWeight: 25/6+9/4+12/5+15/4+20/5+8/2+18/1 ≈ 38.57.
func TestExample7GuaranteedWeight(t *testing.T) {
	f := newPaperFixture()
	g := f.graph()
	want := 25.0/6 + 9.0/4 + 12.0/5 + 15.0/4 + 20.0/5 + 8.0/2 + 18.0/1
	if got := g.GuaranteedWeight(); math.Abs(got-want) > 1e-9 {
		t.Errorf("guaranteed weight = %v, want %v", got, want)
	}
	if math.Abs(want-38.5733) > 0.01 {
		t.Fatalf("fixture broken: want ≈ 38.57, computed %v", want)
	}
	// Scoremax(p3) = BValue(p3)+BValue(p6)+BValue(p7) = 38 < 38.57.
	if got := g.ScoreMax(2); got != 38 {
		t.Errorf("Scoremax(p3) = %v, want 38", got)
	}
}

// TestExample7And8Reduction: p3 is conflict-ridden (pruned), p7 is
// conflict-free (fast-pathed into the plan).
func TestExample7And8Reduction(t *testing.T) {
	f := newPaperFixture()
	res := Reduce(f.graph())
	if res.PrunedConflictRidden < 1 {
		t.Errorf("pruned %d conflict-ridden, want >= 1 (p3)", res.PrunedConflictRidden)
	}
	if len(res.ConflictFree) != 1 || !res.ConflictFree[0].Pattern.Equal(f.patterns[6]) {
		t.Fatalf("conflict-free = %+v, want [p7]", res.ConflictFree)
	}
	// Reduced graph holds p1, p2, p4, p5, p6.
	if got := res.Reduced.NumVertices(); got != 5 {
		t.Errorf("reduced vertices = %d, want 5", got)
	}
	for _, v := range res.Reduced.Vertices {
		if v.Pattern.Equal(f.patterns[2]) {
			t.Error("p3 still present after reduction")
		}
		if v.Pattern.Equal(f.patterns[6]) {
			t.Error("p7 still present after reduction")
		}
	}
}

// TestExample10And12OptimalPlan: the paper's lattice (Algorithm 4)
// returns {p2, p4, p6, p7} with score 50 after considering exactly 10
// valid plans on the reduced graph, and the plan search returns the same
// plan.
func TestExample10And12OptimalPlan(t *testing.T) {
	f := newPaperFixture()
	res := Reduce(f.graph())
	lattice, latticeScore, considered := FindOptimalPlan(res.Reduced, res.ConflictFree)
	if considered != 10 {
		t.Errorf("plans considered = %d, want 10 (Example 10)", considered)
	}
	plan, score, stats := SearchPlan(res.Reduced, res.ConflictFree, time.Time{})
	if score != 50 || latticeScore != 50 {
		t.Errorf("optimal score = %v (lattice %v), want 50", score, latticeScore)
	}
	if stats.TimedOut || stats.Gap != 0 {
		t.Errorf("search timed out %v with gap %v", stats.TimedOut, stats.Gap)
	}
	wantPatterns := map[string]bool{
		f.patterns[1].Key(): true, // p2
		f.patterns[3].Key(): true, // p4
		f.patterns[5].Key(): true, // p6
		f.patterns[6].Key(): true, // p7
	}
	if len(plan) != 4 || !plan.Equal(lattice) {
		t.Fatalf("plan = %v, lattice plan = %v, want 4 candidates", plan, lattice)
	}
	for _, c := range plan {
		if !wantPatterns[c.Pattern.Key()] {
			t.Errorf("unexpected plan member %s", c.Pattern.Format(f.reg))
		}
	}
	if err := plan.Validate(f.w); err != nil {
		t.Errorf("optimal plan invalid: %v", err)
	}
}

// TestExample12Greedy: GWMIN picks {p7, p1} with score 43 — 16% below the
// optimal 50.
func TestExample12Greedy(t *testing.T) {
	f := newPaperFixture()
	g := f.graph()
	set := GWMIN(g)
	if len(set) != 2 {
		t.Fatalf("GWMIN set = %v, want 2 vertices", set)
	}
	if got := g.SetWeight(set); got != 43 {
		t.Errorf("greedy score = %v, want 43", got)
	}
	if !g.IsIndependentSet(set) {
		t.Error("GWMIN returned a dependent set")
	}
	plan := g.PlanOf(set)
	seen := map[string]bool{}
	for _, c := range plan {
		seen[c.Pattern.Key()] = true
	}
	if !seen[f.patterns[0].Key()] || !seen[f.patterns[6].Key()] {
		t.Errorf("greedy plan = %v, want {p1, p7}", plan)
	}
}

// TestExample5PlanScores verifies the scores quoted in Example 5.
func TestExample5PlanScores(t *testing.T) {
	f := newPaperFixture()
	g := f.graph()
	// {p2, p4} is valid with score 24; {p1} scores 25.
	var p2i, p4i, p1i = -1, -1, -1
	for i, v := range g.Vertices {
		switch {
		case v.Pattern.Equal(f.patterns[1]):
			p2i = i
		case v.Pattern.Equal(f.patterns[3]):
			p4i = i
		case v.Pattern.Equal(f.patterns[0]):
			p1i = i
		}
	}
	if g.HasEdge(p2i, p4i) {
		t.Fatal("p2/p4 conflict; Example 5 plan invalid")
	}
	if got := g.SetWeight([]int{p2i, p4i}); got != 24 {
		t.Errorf("Score({p2,p4}) = %v, want 24", got)
	}
	if got := g.SetWeight([]int{p1i}); got != 25 {
		t.Errorf("Score({p1}) = %v, want 25", got)
	}
}

// TestExhaustiveMatchesPlanFinder: the exhaustive optimizer finds the
// paper graph's optimum of 50.
func TestExhaustiveMatchesPlanFinder(t *testing.T) {
	f := newPaperFixture()
	g := f.graph()
	_, exScore, considered := ExhaustivePlanSearch(g)
	if exScore != 50 {
		t.Errorf("exhaustive score = %v, want 50", exScore)
	}
	if considered != 128 { // 2^7 subsets
		t.Errorf("considered = %d, want 128", considered)
	}
}

// TestFigure8SearchSpaceReduction: pruning p3 and fast-pathing p7 shrinks
// the lattice from 2^7 to 2^5 plans — a 75% reduction (Example 9).
func TestFigure8SearchSpaceReduction(t *testing.T) {
	f := newPaperFixture()
	res := Reduce(f.graph())
	before := int64(1) << 7
	after := int64(1) << uint(res.Reduced.NumVertices())
	if after != 32 {
		t.Fatalf("reduced space = %d plans, want 32", after)
	}
	reduction := float64(before-after) / float64(before)
	if reduction < 0.74 || reduction > 0.76 {
		t.Errorf("reduction = %.4f, want ≈ 0.7559", reduction)
	}
}

// TestExample13Expansion: option (p1, {q1, q3}) resolves the conflicts
// with (p4, {q2, q4}) and (p5, {q2, q4}).
func TestExample13Expansion(t *testing.T) {
	f := newPaperFixture()
	g := f.graph()
	opts := ExpandOptions(g, 0, f.byID, ExpandConfig{})
	var found *Candidate
	for i := range opts {
		if len(opts[i].Queries) == 2 && opts[i].Queries[0] == 0 && opts[i].Queries[1] == 2 {
			found = &opts[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("option (p1,{q1,q3}) not generated; options=%v", opts)
	}
	p4c := NewCandidate(f.patterns[3], table1Queries[3])
	p5c := NewCandidate(f.patterns[4], table1Queries[4])
	if c, _ := InConflict(f.byID, *found, p4c); c {
		t.Error("(p1,{q1,q3}) still conflicts with (p4,{q2,q4})")
	}
	if c, _ := InConflict(f.byID, *found, p5c); c {
		t.Error("(p1,{q1,q3}) still conflicts with (p5,{q2,q4})")
	}
}

// TestExample14OptionTree: dropping {q3,q4} from p1 resolves the conflicts
// with p2 and p3, producing option (p1, {q1, q2}).
func TestExample14OptionTree(t *testing.T) {
	f := newPaperFixture()
	g := f.graph()
	opts := ExpandOptions(g, 0, f.byID, ExpandConfig{})
	if len(opts) < 2 {
		t.Fatalf("expected several options, got %d", len(opts))
	}
	if !opts[0].Pattern.Equal(f.patterns[0]) || len(opts[0].Queries) != 4 {
		t.Errorf("option 0 should be the original candidate, got %v", opts[0])
	}
	want := map[string]bool{"0,1": false, "0,2": false} // {q1,q2}, {q1,q3}
	for _, o := range opts {
		if len(o.Queries) == 2 {
			key := ""
			for i, q := range o.Queries {
				if i > 0 {
					key += ","
				}
				key += string(rune('0' + q))
			}
			if _, ok := want[key]; ok {
				want[key] = true
			}
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("option (p1,{%s}) not generated", k)
		}
	}
}

// TestExpandGraphKeepsOriginals: expansion retains the original candidates
// and only adds options (weighted by the supplied function).
func TestExpandGraphKeepsOriginals(t *testing.T) {
	f := newPaperFixture()
	g := f.graph()
	weightOf := make(map[string]float64)
	for i, p := range f.patterns {
		weightOf[p.Key()] = f.weights[i]
	}
	weigh := func(c Candidate) float64 {
		// Weight options proportionally to their query count.
		base := weightOf[c.Pattern.Key()]
		full := NewCandidate(c.Pattern, table1Queries[indexOfPattern(f, c.Pattern)])
		return base * float64(len(c.Queries)) / float64(len(full.Queries))
	}
	eg := ExpandGraph(g, f.byID, weigh, ExpandConfig{})
	if eg.NumVertices() <= g.NumVertices() {
		t.Errorf("expanded graph has %d vertices, want > %d", eg.NumVertices(), g.NumVertices())
	}
	// All originals present.
	for i := range f.patterns {
		orig := NewCandidate(f.patterns[i], table1Queries[i])
		found := false
		for _, v := range eg.Vertices {
			if v.Key() == orig.Key() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("original candidate p%d missing from expanded graph", i+1)
		}
	}
	// An optimal plan over the expanded graph is at least as good as over
	// the original.
	_, s1, _ := ExhaustivePlanSearch(g)
	red := Reduce(eg)
	_, s2, _ := SearchPlan(red.Reduced, red.ConflictFree, time.Time{})
	if s2 < s1 {
		t.Errorf("expanded optimum %v below original %v", s2, s1)
	}
}

func indexOfPattern(f *paperFixture, p query.Pattern) int {
	for i := range f.patterns {
		if f.patterns[i].Equal(p) {
			return i
		}
	}
	return -1
}
