package exec

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

// TestResultValueKinds routes every aggregation function through the
// engine and checks the extracted answers.
func TestResultValueKinds(t *testing.T) {
	f := newFixture()
	mk := func(kind query.AggKind, target byte) *query.Query {
		q := f.query(0, "AB", 100, 100)
		q.Agg = query.AggSpec{Kind: kind}
		if kind != query.CountStar {
			q.Agg.Target = f.ids[target]
		}
		return q
	}
	// Stream: a@1(val 2), b@2(val 10), b@3(val 4).
	stream := event.Stream{
		{Time: 1, Type: f.ids['A'], Val: 2},
		{Time: 2, Type: f.ids['B'], Val: 10},
		{Time: 3, Type: f.ids['B'], Val: 4},
	}
	tests := []struct {
		kind   query.AggKind
		target byte
		want   float64
	}{
		{query.CountStar, 'B', 2},
		{query.CountE, 'B', 2},
		{query.Sum, 'B', 14},
		{query.Min, 'B', 4},
		{query.Max, 'B', 10},
		{query.Avg, 'B', 7},
		{query.Sum, 'A', 4}, // a participates in two sequences
		{query.CountE, 'A', 2},
	}
	for _, tt := range tests {
		q := mk(tt.kind, tt.target)
		en, err := NewEngine(query.Workload{q}, nil, Options{Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		runAll(t, en, stream)
		rs := en.Results()
		if len(rs) != 1 {
			t.Fatalf("%v(%c): results = %v", tt.kind, tt.target, rs)
		}
		if got := rs[0].Value(q); got != tt.want {
			t.Errorf("%v(%c) = %v, want %v", tt.kind, tt.target, got, tt.want)
		}
	}
}

func TestResultValueNaNOnEmpty(t *testing.T) {
	f := newFixture()
	q := f.query(0, "AB", 100, 100)
	q.Agg = query.AggSpec{Kind: query.Min, Target: f.ids['B']}
	en, err := NewEngine(query.Workload{q}, nil, Options{Collect: true, EmitEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	// Only an A: no complete match; EmitEmpty emits a zero state.
	runAll(t, en, event.Stream{{Time: 1, Type: f.ids['A']}})
	rs := en.Results()
	if len(rs) == 0 {
		t.Fatal("EmitEmpty emitted nothing")
	}
	if got := rs[0].Value(q); !math.IsNaN(got) {
		t.Errorf("MIN of empty window = %v, want NaN", got)
	}
}

// TestSharedMaskingPerKind verifies target masking for every aggregation
// kind when the shared segment tracks another query's target.
func TestSharedMaskingPerKind(t *testing.T) {
	f := newFixture()
	for _, kind := range []query.AggKind{query.CountStar, query.CountE, query.Sum, query.Min, query.Max, query.Avg} {
		// q0 aggregates over D (outside shared (A,B)); q1 over B (inside).
		q0 := f.query(0, "ABD", 50, 50)
		q0.Agg = query.AggSpec{Kind: kind}
		if kind != query.CountStar {
			q0.Agg.Target = f.ids['D']
		}
		q1 := f.query(1, "ABC", 50, 50)
		q1.Agg = query.AggSpec{Kind: query.Sum, Target: f.ids['B']}
		w := query.Workload{q0, q1}
		plan := core.Plan{core.NewCandidate(f.pat("AB"), []int{0, 1})}
		en, err := NewEngine(w, plan, Options{Collect: true})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		stream := event.Stream{
			{Time: 1, Type: f.ids['A'], Val: 1},
			{Time: 2, Type: f.ids['B'], Val: 5},
			{Time: 3, Type: f.ids['C'], Val: 7},
			{Time: 4, Type: f.ids['D'], Val: 9},
		}
		runAll(t, en, stream)
		oracle, err := Oracle(stream, w)
		if err != nil {
			t.Fatal(err)
		}
		if msg := diffResults(oracle, en.Results()); msg != "" {
			t.Errorf("kind %v: %s", kind, msg)
		}
	}
}

func TestEngineEmitEmpty(t *testing.T) {
	f := newFixture()
	w := query.Workload{f.query(0, "AB", 4, 2)}
	en, err := NewEngine(w, nil, Options{Collect: true, EmitEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	// Events only at the start; later windows are empty but emitted.
	runAll(t, en, event.Stream{
		{Time: 1, Type: f.ids['A']},
		{Time: 2, Type: f.ids['B']},
		{Time: 11, Type: f.ids['A']},
	})
	rs := en.Results()
	var empty int
	for _, r := range rs {
		if r.State.Count == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Errorf("no empty windows emitted: %v", rs)
	}
}

func TestResultsSorted(t *testing.T) {
	f := newFixture()
	q0 := f.query(0, "AB", 10, 5)
	q0.GroupBy = true
	q1 := f.query(1, "BA", 10, 5)
	q1.GroupBy = true
	w := query.Workload{q0, q1}
	en, err := NewEngine(w, nil, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, en, event.Stream{
		{Time: 1, Type: f.ids['A'], Key: 2},
		{Time: 2, Type: f.ids['B'], Key: 2},
		{Time: 3, Type: f.ids['B'], Key: 1},
		{Time: 4, Type: f.ids['A'], Key: 1},
	})
	rs := en.Results()
	for i := 1; i < len(rs); i++ {
		if cmpResult(rs[i], rs[i-1]) < 0 {
			t.Fatalf("results not sorted at %d: %v", i, rs)
		}
	}
}

func TestTwoStepStats(t *testing.T) {
	f := newFixture()
	w := query.Workload{f.query(0, "AB", 100, 100)}
	ts, err := NewTwoStep(w, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, ts, f.stream("AABB", 1))
	if ts.Constructed != 4 {
		t.Errorf("constructed = %d, want 4 sequences", ts.Constructed)
	}
	if ts.PeakLiveStates() < 4 {
		t.Errorf("peak = %d", ts.PeakLiveStates())
	}
	if ts.ResultCount() != 1 {
		t.Errorf("results = %d", ts.ResultCount())
	}
}

func TestSPASSSharesConstruction(t *testing.T) {
	f := newFixture()
	// Two queries with the same full pattern: SPASS constructs its
	// matches once.
	w := query.Workload{f.query(0, "AB", 100, 100), f.query(1, "AB", 100, 100)}
	plan := core.Plan{core.NewCandidate(f.pat("AB"), []int{0, 1})}
	sp, err := NewSPASS(w, plan, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, sp, f.stream("AABB", 1))
	if sp.Constructed != 4 {
		t.Errorf("constructed = %d, want 4 (shared across both queries)", sp.Constructed)
	}
	rs := sp.Results()
	if len(rs) != 2 || rs[0].State.Count != 4 || rs[1].State.Count != 4 {
		t.Errorf("results = %v", rs)
	}
}

func TestSPASSWithoutPlanFallsBackToFullPatterns(t *testing.T) {
	f := newFixture()
	w := query.Workload{f.query(0, "ABC", 100, 100), f.query(1, "BC", 100, 100)}
	sp, err := NewSPASS(w, nil, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	stream := f.stream("ABCABC", 1)
	runAll(t, sp, stream)
	oracle, err := Oracle(stream, w)
	if err != nil {
		t.Fatal(err)
	}
	if msg := diffResults(oracle, sp.Results()); msg != "" {
		t.Fatal(msg)
	}
}

func TestFirstAfter(t *testing.T) {
	list := []Match{{Start: 1}, {Start: 3}, {Start: 3}, {Start: 7}}
	tests := []struct {
		min  int64
		want int
	}{{0, 0}, {1, 1}, {2, 1}, {3, 3}, {7, 4}, {9, 4}}
	for _, tt := range tests {
		if got := firstAfter(list, tt.min); got != tt.want {
			t.Errorf("firstAfter(%d) = %d, want %d", tt.min, got, tt.want)
		}
	}
}

func TestIndexEventsWindowBounds(t *testing.T) {
	f := newFixture()
	evs := []event.Event{
		{Time: 1, Type: f.ids['A']},
		{Time: 5, Type: f.ids['A']},
		{Time: 9, Type: f.ids['A']},
	}
	idx := indexEvents(evs, 2, 9) // half-open [2,9)
	got := idx.after(f.ids['A'], -1)
	if len(got) != 1 || got[0].Time != 5 {
		t.Errorf("window filter wrong: %v", got)
	}
}

// TestEngineWindowBoundaryExactness: a match whose span equals exactly the
// window length minus one tick is counted; one spanning the full length is
// not (half-open windows).
func TestEngineWindowBoundaryExactness(t *testing.T) {
	f := newFixture()
	w := query.Workload{f.query(0, "AB", 10, 10)}
	en, err := NewEngine(w, nil, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	// a@0, b@9 fit window [0,10); a@10, b@19 fit [10,20); a@5, b@12 span
	// two windows and fit neither fully... b@12-a@5 crosses the boundary.
	runAll(t, en, event.Stream{
		{Time: 0, Type: f.ids['A']},
		{Time: 5, Type: f.ids['A']},
		{Time: 9, Type: f.ids['B']},
		{Time: 12, Type: f.ids['B']},
	})
	rs := en.Results()
	if len(rs) != 1 || rs[0].Win != 0 {
		t.Fatalf("results = %v", rs)
	}
	// Window 0 contains (a0,b9) and (a5,b9); the (a5,b12) pair crosses.
	if rs[0].State.Count != 2 {
		t.Errorf("window 0 count = %v, want 2", rs[0].State.Count)
	}
}

func TestValidateUniformMessages(t *testing.T) {
	f := newFixture()
	q1 := f.query(0, "AB", 10, 5)
	q2 := f.query(1, "BC", 10, 5)
	q2.Where = []query.Predicate{{Type: f.ids['B'], Op: query.Gt, Value: 1}}
	if err := validateUniform(query.Workload{q1, q2}); err == nil {
		t.Error("different predicates accepted")
	}
	q3 := f.query(1, "BC", 10, 5)
	q3.GroupBy = true
	if err := validateUniform(query.Workload{q1, q3}); err == nil {
		t.Error("different grouping accepted")
	}
	if err := validateUniform(nil); err == nil {
		t.Error("empty workload accepted")
	}
}

// TestIncompatibleSharedTargets: two queries sharing a pattern that
// contains both their (different) targets must be rejected at compile.
func TestIncompatibleSharedTargets(t *testing.T) {
	f := newFixture()
	q0 := f.query(0, "ABC", 50, 50)
	q0.Agg = query.AggSpec{Kind: query.Sum, Target: f.ids['A']}
	q1 := f.query(1, "ABD", 50, 50)
	q1.Agg = query.AggSpec{Kind: query.Sum, Target: f.ids['B']}
	w := query.Workload{q0, q1}
	plan := core.Plan{core.NewCandidate(f.pat("AB"), []int{0, 1})}
	if _, err := NewEngine(w, plan, Options{}); err == nil {
		t.Error("incompatible shared targets accepted")
	}
}

func TestOracleEmptyAndErrors(t *testing.T) {
	f := newFixture()
	w := query.Workload{f.query(0, "AB", 10, 5)}
	rs, err := Oracle(nil, w)
	if err != nil || rs != nil {
		t.Errorf("Oracle(empty) = %v, %v", rs, err)
	}
	q2 := f.query(1, "AB", 20, 5)
	if _, err := Oracle(f.stream("AB", 1), query.Workload{w[0], q2}); err == nil {
		t.Error("non-uniform workload accepted by oracle")
	}
}

// TestAggregateStateAcrossSlides: per-start monotone accumulation serves
// multiple overlapping windows correctly (regression guard for the
// windowing invariant documented in agg.Aggregator).
func TestAggregateStateAcrossSlides(t *testing.T) {
	f := newFixture()
	w := query.Workload{f.query(0, "AB", 10, 2)}
	en, err := NewEngine(w, nil, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	stream := event.Stream{
		{Time: 4, Type: f.ids['A']},
		{Time: 6, Type: f.ids['B']},
		{Time: 13, Type: f.ids['B']},
	}
	runAll(t, en, stream)
	oracle, err := Oracle(stream, w)
	if err != nil {
		t.Fatal(err)
	}
	if msg := diffResults(oracle, en.Results()); msg != "" {
		t.Fatal(msg)
	}
}

// TestSASEMatchesOracle validates the NFA baseline against the oracle on
// random workloads and streams.
func TestSASEMatchesOracle(t *testing.T) {
	f := newFixture()
	rng := newRngForSASE()
	for it := 0; it < 60; it++ {
		w := randomWorkload(f, rng)
		stream := randomStream(f, rng, 40+rng.Intn(60))
		oracle, err := Oracle(stream, w)
		if err != nil {
			t.Fatal(err)
		}
		sa, err := NewSASE(w, Options{Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		runAll(t, sa, stream)
		if msg := diffResults(oracle, sa.Results()); msg != "" {
			t.Fatalf("iter %d: SASE vs oracle: %s\n%s", it, msg, dumpWorkload(f, w))
		}
	}
}

func newRngForSASE() *rand.Rand { return rand.New(rand.NewSource(4242)) }

func TestSASECapDNF(t *testing.T) {
	f := newFixture()
	w := query.Workload{f.query(0, "AB", 1000, 1000)}
	sa, err := NewSASE(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sa.Cap = 3
	var failed bool
	for i := int64(0); i < 10; i++ {
		if err := sa.Process(event.Event{Time: i + 1, Type: f.ids['A']}); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("run cap not enforced")
	}
}

func TestSASESpawnCount(t *testing.T) {
	f := newFixture()
	w := query.Workload{f.query(0, "AB", 100, 100)}
	sa, err := NewSASE(w, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, sa, f.stream("AABB", 1))
	// Runs spawned: a1, a2 (partial) + (a1,b3),(a2,b3),(a1,b4),(a2,b4).
	if sa.Spawned != 6 {
		t.Errorf("spawned = %d, want 6", sa.Spawned)
	}
	if sa.PeakLiveStates() != 2 {
		t.Errorf("peak live runs = %d, want 2", sa.PeakLiveStates())
	}
}

func TestEngineExplain(t *testing.T) {
	f := newFixture()
	w := query.Workload{f.query(0, "ABC", 20, 10), f.query(1, "BC", 20, 10)}
	plan := core.Plan{core.NewCandidate(f.pat("BC"), []int{0, 1})}
	en, err := NewEngine(w, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := en.Explain(f.reg)
	for _, want := range []string{"private(A)", "shared(B, C)", "q0", "q1"} {
		if !containsStr(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestBaselinesAgreeOnTraffic checks the sequence-constructing baselines
// (Flink-style two-step, SPASS, SASE) against the online engine on the
// paper's traffic workload (Table 1): grouped by vehicle, a shared plan
// from the optimizer, a few thousand position reports.
func TestBaselinesAgreeOnTraffic(t *testing.T) {
	reg := event.NewRegistry()
	var w query.Workload
	for _, text := range []string{
		"RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, StateSt) WHERE [vehicle] WITHIN 4s SLIDE 1s",
		"RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, WestSt) WHERE [vehicle] WITHIN 4s SLIDE 1s",
		"RETURN COUNT(*) PATTERN SEQ(ParkAve, OakSt, MainSt) WHERE [vehicle] WITHIN 4s SLIDE 1s",
		"RETURN COUNT(*) PATTERN SEQ(ParkAve, OakSt, MainSt, WestSt) WHERE [vehicle] WITHIN 4s SLIDE 1s",
		"RETURN COUNT(*) PATTERN SEQ(MainSt, StateSt) WHERE [vehicle] WITHIN 4s SLIDE 1s",
		"RETURN COUNT(*) PATTERN SEQ(ElmSt, ParkAve) WHERE [vehicle] WITHIN 4s SLIDE 1s",
		"RETURN COUNT(*) PATTERN SEQ(ElmSt, ParkAve) WHERE [vehicle] WITHIN 4s SLIDE 1s",
	} {
		w = append(w, query.MustParse(text, reg))
	}
	w.Renumber()
	streets := []string{"OakSt", "MainSt", "ParkAve", "WestSt", "StateSt", "ElmSt"}
	rng := rand.New(rand.NewSource(11))
	stream := make(event.Stream, 3000)
	for i := range stream {
		stream[i] = event.Event{
			Time: int64(i+1) * 5,
			Type: reg.Lookup(streets[rng.Intn(len(streets))]),
			Key:  event.GroupKey(rng.Intn(4)),
			Val:  float64(rng.Intn(100)),
		}
	}
	rates := core.Rates(stream.Rates())
	for tp := range rates {
		rates[tp] /= 4 // per vehicle: the engine partitions the stream by group
	}
	res, err := core.Optimize(w, rates, core.OptimizerOptions{Strategy: core.StrategySharon, Expand: true, Budget: 10 * time.Second})
	must(t, err)

	ref, err := NewEngine(w, nil, Options{Collect: true})
	must(t, err)
	runAll(t, ref, stream)
	want := ref.Results()
	if len(want) == 0 {
		t.Fatal("A-Seq produced no results")
	}

	ts, err := NewTwoStep(w, Options{Collect: true})
	must(t, err)
	sp, err := NewSPASS(w, res.Plan, Options{Collect: true})
	must(t, err)
	sa, err := NewSASE(w, Options{Collect: true})
	must(t, err)
	for _, ex := range []interface {
		Executor
		Results() []Result
	}{ts, sp, sa} {
		runAll(t, ex, stream)
		if msg := diffResults(want, ex.Results()); msg != "" {
			t.Errorf("%s vs A-Seq: %s", ex.Name(), msg)
		}
	}
}
