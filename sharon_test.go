package sharon_test

import (
	"math/rand"
	"testing"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/agg"
	"github.com/sharon-project/sharon/internal/gen"
)

// buildTraffic returns the paper workload and a stream through the
// public API surface only.
func buildTraffic(t testing.TB, events int) (*sharon.Registry, sharon.Workload, sharon.Stream) {
	t.Helper()
	reg := sharon.NewRegistry()
	texts := []string{
		"RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, StateSt) WHERE [vehicle] WITHIN 4s SLIDE 1s",
		"RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, WestSt) WHERE [vehicle] WITHIN 4s SLIDE 1s",
		"RETURN COUNT(*) PATTERN SEQ(ParkAve, OakSt, MainSt) WHERE [vehicle] WITHIN 4s SLIDE 1s",
		"RETURN COUNT(*) PATTERN SEQ(ParkAve, OakSt, MainSt, WestSt) WHERE [vehicle] WITHIN 4s SLIDE 1s",
		"RETURN COUNT(*) PATTERN SEQ(MainSt, StateSt) WHERE [vehicle] WITHIN 4s SLIDE 1s",
		"RETURN COUNT(*) PATTERN SEQ(ElmSt, ParkAve) WHERE [vehicle] WITHIN 4s SLIDE 1s",
		"RETURN COUNT(*) PATTERN SEQ(ElmSt, ParkAve) WHERE [vehicle] WITHIN 4s SLIDE 1s",
	}
	var w sharon.Workload
	for _, text := range texts {
		w = append(w, sharon.MustParseQuery(text, reg))
	}
	w.Renumber()
	streets := []string{"OakSt", "MainSt", "ParkAve", "WestSt", "StateSt", "ElmSt"}
	rng := rand.New(rand.NewSource(11))
	stream := make(sharon.Stream, events)
	for i := range stream {
		stream[i] = sharon.Event{
			Time: int64(i+1) * 5,
			Type: reg.Lookup(streets[rng.Intn(len(streets))]),
			Key:  sharon.GroupKey(rng.Intn(4)),
			Val:  float64(rng.Intn(100)),
		}
	}
	return reg, w, stream
}

// TestSystemStrategiesAgree is the public-API equivalence check: Sharon,
// greedy and non-shared systems all produce identical results on the
// paper's traffic workload. (The sequence-constructing baselines are
// checked against the same workload in internal/exec.)
func TestSystemStrategiesAgree(t *testing.T) {
	_, w, stream := buildTraffic(t, 3000)
	rates := sharon.MeasureRates(stream, w)

	reference, err := sharon.NewSystem(w, sharon.Options{Strategy: sharon.StrategyNonShared})
	if err != nil {
		t.Fatal(err)
	}
	defer reference.Close()
	if err := reference.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	want := reference.Results()
	if len(want) == 0 {
		t.Fatal("reference produced no results")
	}

	for _, strat := range []sharon.Strategy{sharon.StrategySharon, sharon.StrategyGreedy} {
		sys, err := sharon.NewSystem(w, sharon.Options{Strategy: strat, Rates: rates})
		if err != nil {
			t.Fatalf("strategy %v: %v", strat, err)
		}
		defer sys.Close()
		if err := sys.ProcessAll(stream); err != nil {
			t.Fatalf("strategy %v: %v", strat, err)
		}
		got := sys.Results()
		if len(got) != len(want) {
			t.Fatalf("strategy %v: %d results, want %d", strat, len(got), len(want))
		}
		for i := range want {
			a, b := want[i], got[i]
			if a.Query != b.Query || a.Win != b.Win || a.Group != b.Group || !agg.ApproxEqual(a.State, b.State) {
				t.Fatalf("strategy %v: result %d = %+v, want %+v", strat, i, b, a)
			}
		}
	}
}

// TestSystemSharesTraffic checks that the optimizer actually shares on the
// traffic workload and that the Sharon system reports a plan.
func TestSystemSharesTraffic(t *testing.T) {
	reg, w, stream := buildTraffic(t, 4000)
	rates := sharon.MeasureRates(stream, w)
	sys, err := sharon.NewSystem(w, sharon.Options{Rates: rates})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if len(sys.Plan()) == 0 {
		t.Error("no sharing plan chosen on the traffic workload")
	}
	if sys.PlanScore() <= 0 {
		t.Errorf("plan score = %v, want > 0", sys.PlanScore())
	}
	if s := sys.FormatPlan(reg); s == "{}" {
		t.Error("FormatPlan returned empty plan")
	}
	if err := sys.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	if sys.ResultCount() == 0 {
		t.Error("no results emitted")
	}
	if sys.PeakMemoryStates() <= 0 {
		t.Error("memory accounting returned nothing")
	}
}

func TestSystemExplicitPlan(t *testing.T) {
	reg := sharon.NewRegistry()
	w := sharon.Workload{
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 10s SLIDE 5s", reg),
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B, D) WITHIN 10s SLIDE 5s", reg),
	}
	w.Renumber()
	cands := sharon.FindCandidates(w)
	if len(cands) != 1 {
		t.Fatalf("candidates = %v, want just (A,B)", cands)
	}
	sys, err := sharon.NewSystem(w, sharon.Options{Plan: sharon.Plan{cands[0]}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var stream sharon.Stream
	for i, name := range []string{"A", "B", "C", "D", "A", "B", "C"} {
		stream = append(stream, sharon.Event{Time: int64(i+1) * 1000, Type: reg.Lookup(name)})
	}
	if err := sys.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	if sys.ResultCount() == 0 {
		t.Error("no results under explicit plan")
	}
}

func TestSystemCallbacks(t *testing.T) {
	reg := sharon.NewRegistry()
	w := sharon.Workload{
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10s SLIDE 5s", reg),
	}
	w.Renumber()
	var calls int
	sys, err := sharon.NewSystem(w, sharon.Options{OnResult: func(r sharon.Result) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	stream := sharon.Stream{
		{Time: 1000, Type: reg.Lookup("A")},
		{Time: 2000, Type: reg.Lookup("B")},
	}
	if err := sys.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("OnResult never called")
	}
	if got := sys.Results(); got != nil {
		t.Errorf("Results should be nil when OnResult is set, got %d", len(got))
	}
}

func TestOptimizePublic(t *testing.T) {
	tr := gen.Traffic()
	rates := sharon.Rates{}
	for tp := range tr.Workload.Types() {
		rates[tp] = 10
	}
	plan, score, err := sharon.Optimize(tr.Workload, rates)
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 || len(plan) == 0 {
		t.Errorf("Optimize: score=%v plan=%v", score, plan)
	}
	if err := plan.Validate(tr.Workload); err != nil {
		t.Errorf("invalid plan: %v", err)
	}
}

// TestDynamicUngrouped runs Options.Dynamic on an ungrouped workload
// whose hot types shift mid-stream, against the static non-shared run.
func TestDynamicUngrouped(t *testing.T) {
	reg := sharon.NewRegistry()
	w := sharon.Workload{
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 4s SLIDE 1s", reg),
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B, D) WITHIN 4s SLIDE 1s", reg),
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(D, B, C) WITHIN 4s SLIDE 1s", reg),
	}
	w.Renumber()
	rng := rand.New(rand.NewSource(5))
	letters := []string{"A", "B", "C", "D"}
	var stream sharon.Stream
	for i := 0; i < 2000; i++ {
		name := letters[rng.Intn(3)] // A/B/C hot first
		if i > 1000 {
			name = letters[1+rng.Intn(3)] // then B/C/D
		}
		stream = append(stream, sharon.Event{Time: int64(i+1) * 20, Type: reg.Lookup(name)})
	}
	var migrations int
	sys, err := sharon.NewSystem(w, sharon.Options{
		Rates: sharon.MeasureRates(stream[:300], w),
		Dynamic: &sharon.DynamicOptions{
			DriftThreshold: 0.3,
			OnMigrate:      func(at int64, old, new sharon.Plan) { migrations++ },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	if got := sys.DynamicStats().Migrations; got != migrations {
		t.Errorf("DynamicStats().Migrations=%d, callbacks=%d", got, migrations)
	}
	if len(sys.Results()) == 0 {
		t.Error("dynamic system emitted nothing")
	}
	// The dynamic results must equal the static non-shared results.
	ref, err := sharon.NewSystem(w, sharon.Options{Strategy: sharon.StrategyNonShared})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	want, got := ref.Results(), sys.Results()
	if len(want) != len(got) {
		t.Fatalf("dynamic results = %d, static = %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Query != got[i].Query || want[i].Win != got[i].Win || !agg.ApproxEqual(want[i].State, got[i].State) {
			t.Fatalf("result %d: dynamic %+v != static %+v", i, got[i], want[i])
		}
	}
}

func TestValueHelper(t *testing.T) {
	reg := sharon.NewRegistry()
	q := sharon.MustParseQuery("RETURN SUM(B.val) PATTERN SEQ(A, B) WITHIN 10s SLIDE 5s", reg)
	w := sharon.Workload{q}
	w.Renumber()
	sys, err := sharon.NewSystem(w, sharon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	stream := sharon.Stream{
		{Time: 1000, Type: reg.Lookup("A"), Val: 1},
		{Time: 2000, Type: reg.Lookup("B"), Val: 7},
	}
	if err := sys.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	rs := sys.Results()
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	if got := sharon.Value(rs[0], q); got != 7 {
		t.Errorf("SUM = %v, want 7", got)
	}
}

// TestMultiSegmentWorkload exercises §7.2 through the public API:
// queries with different windows and predicates run in uniform segments.
func TestMultiSegmentWorkload(t *testing.T) {
	reg := sharon.NewRegistry()
	w := sharon.Workload{
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 4s SLIDE 2s", reg),
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 4s SLIDE 2s", reg),
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(B, C) WITHIN 8s SLIDE 4s", reg),
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.val > 50 WITHIN 4s SLIDE 2s", reg),
	}
	w.Renumber()
	sys, err := sharon.NewSystem(w, sharon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Segments() != 3 {
		t.Fatalf("segments = %d, want 3", sys.Segments())
	}
	if sys.Plan() != nil {
		t.Errorf("Plan() = %v on a multi-segment workload, want nil (see SegmentPlan)", sys.Plan())
	}
	if seg, plan := sys.SegmentPlan(0); len(seg) != 2 || plan.Validate(seg) != nil {
		t.Errorf("segment 0 = %d queries under plan %v, want the two 4s/2s queries and a plan over them", len(seg), plan)
	}
	rng := rand.New(rand.NewSource(2))
	letters := []string{"A", "B", "C"}
	var stream sharon.Stream
	for i := 0; i < 500; i++ {
		stream = append(stream, sharon.Event{
			Time: int64(i+1) * 50,
			Type: reg.Lookup(letters[rng.Intn(3)]),
			Val:  float64(rng.Intn(100)),
		})
	}
	if err := sys.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	results := sys.Results()
	if len(results) == 0 {
		t.Fatal("no results")
	}
	// Each query produced something; q4's predicate strictly reduces its
	// counts relative to q1 on the same windows.
	perQuery := map[int]float64{}
	for _, r := range results {
		perQuery[r.Query] += r.State.Count
	}
	for id := 0; id < 4; id++ {
		if perQuery[id] == 0 {
			t.Errorf("query %d matched nothing", id)
		}
	}
	if perQuery[3] >= perQuery[0] {
		t.Errorf("predicate did not reduce counts: q4=%v q1=%v", perQuery[3], perQuery[0])
	}
	if sys.PeakMemoryStates() <= 0 {
		t.Error("no memory accounted")
	}
}
