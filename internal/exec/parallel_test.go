package exec

import (
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/gen"
	"github.com/sharon-project/sharon/internal/query"
)

// parallelFixture builds a grouped multi-query workload, a stream, and
// an optimized sharing plan from the paper workload generator.
func parallelFixture(t testing.TB, nq, events, keys int, grouped bool) (query.Workload, event.Stream, core.Plan) {
	t.Helper()
	wcfg := gen.WorkloadConfig{
		NumQueries: nq, PatternLen: 6,
		SharedChunks: 3, ChunkLen: 2, ChunksPerQuery: 2, FillerPool: 8,
		Window: 4000, Slide: 1000,
		GroupBy: grouped, Seed: 7,
	}
	w, types := gen.GenWorkload(event.NewRegistry(), wcfg)
	stream := gen.StreamForWorkload(types, gen.NumHotTypes(wcfg), events, keys, 500, 3, 7)
	rates := core.Rates(stream.Rates())
	if grouped {
		for tp := range rates {
			rates[tp] /= float64(keys)
		}
	}
	res, err := core.Optimize(w, rates, core.OptimizerOptions{
		Strategy: core.StrategySharon,
		Expand:   true,
		Budget:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, stream, res.Plan
}

func runSeqEngine(t testing.TB, w query.Workload, plan core.Plan, stream event.Stream, emitEmpty bool) []Result {
	t.Helper()
	en, err := NewEngine(w, plan, Options{Collect: true, EmitEmpty: emitEmpty})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range stream {
		if err := en.Process(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := en.Flush(); err != nil {
		t.Fatal(err)
	}
	return en.Results()
}

func runParEngine(t testing.TB, w query.Workload, plan core.Plan, stream event.Stream, workers int, emitEmpty bool) []Result {
	t.Helper()
	p, err := NewParallelEngine(w, plan, workers, Options{Collect: true, EmitEmpty: emitEmpty})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FeedBatch(stream); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	return p.Results()
}

// assertIdenticalResults requires byte-identical result sets: same
// windows, same groups, same aggregate values.
func assertIdenticalResults(t *testing.T, want, got []Result, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestParallelEngineMatchesSequential is the core equivalence check: the
// group-hash sharded engine produces byte-identical results to the
// sequential engine, shared plan or not, for various worker counts.
func TestParallelEngineMatchesSequential(t *testing.T) {
	w, stream, plan := parallelFixture(t, 8, 6000, 16, true)
	for _, tc := range []struct {
		name string
		plan core.Plan
	}{
		{"shared-plan", plan},
		{"non-shared", nil},
	} {
		want := runSeqEngine(t, w, tc.plan, stream, false)
		if len(want) == 0 {
			t.Fatalf("%s: sequential run produced no results", tc.name)
		}
		for _, workers := range []int{2, 3, 4, 8} {
			got := runParEngine(t, w, tc.plan, stream, workers, false)
			assertIdenticalResults(t, want, got, tc.name+"/workers="+itoa(workers))
		}
	}
}

// TestParallelEngineEmitEmpty checks the EmitEmpty window-accounting
// parity: watermark-driven shard engines must close exactly the windows
// the sequential engine closes for every group.
func TestParallelEngineEmitEmpty(t *testing.T) {
	w, stream, plan := parallelFixture(t, 4, 3000, 8, true)
	want := runSeqEngine(t, w, plan, stream, true)
	got := runParEngine(t, w, plan, stream, 4, true)
	assertIdenticalResults(t, want, got, "emit-empty")
}

// TestParallelEngineUngrouped pins the degenerate case: an ungrouped
// workload aggregates all events under one group regardless of their
// keys, so it cannot shard by key hash — the constructor clamps to one
// worker and results stay identical even when the stream carries many
// distinct keys.
func TestParallelEngineUngrouped(t *testing.T) {
	w, stream, plan := parallelFixture(t, 4, 2000, 8, false)
	want := runSeqEngine(t, w, plan, stream, false)
	p, err := NewParallelEngine(w, plan, 4, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Workers(); got != 1 {
		t.Fatalf("ungrouped workload got %d workers, want 1 (cannot shard by key)", got)
	}
	if err := p.FeedBatch(stream); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	assertIdenticalResults(t, want, p.Results(), "ungrouped")
}

// TestParallelEmissionOrderDeterministic runs the parallel engine twice
// with a streaming OnResult and requires the emission sequences to be
// identical, and ordered by (window end, query, window, group).
func TestParallelEmissionOrderDeterministic(t *testing.T) {
	w, stream, plan := parallelFixture(t, 6, 4000, 12, true)
	win := w[0].Window
	run := func() []Result {
		var seq []Result
		p, err := NewParallelEngine(w, plan, 4, Options{OnResult: func(r Result) { seq = append(seq, r) }})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range stream {
			if err := p.Process(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		return seq
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no results emitted")
	}
	assertIdenticalResults(t, a, b, "repeat-run")
	for i := 1; i < len(a); i++ {
		pe, ce := win.End(a[i-1].Win), win.End(a[i].Win)
		if pe > ce {
			t.Fatalf("emission %d: window end %d after %d", i, ce, pe)
		}
		if pe == ce {
			if a[i-1].Query > a[i].Query ||
				(a[i-1].Query == a[i].Query && a[i-1].Group >= a[i].Group) {
				t.Fatalf("emission %d out of (query, group) order: %+v then %+v", i, a[i-1], a[i])
			}
		}
	}
}

// mixedWorkload builds a three-segment workload (two windows, one
// predicate variant) for the partitioned executors.
func mixedWorkload(t *testing.T) (query.Workload, event.Stream) {
	t.Helper()
	reg := event.NewRegistry()
	mk := func(text string) *query.Query { return query.MustParse(text, reg) }
	w := query.Workload{
		mk("RETURN COUNT(*) PATTERN SEQ(A, B) WHERE [key] WITHIN 4s SLIDE 2s"),
		mk("RETURN COUNT(*) PATTERN SEQ(A, B, C) WHERE [key] WITHIN 4s SLIDE 2s"),
		mk("RETURN SUM(C.val) PATTERN SEQ(B, C) WHERE [key] WITHIN 8s SLIDE 4s"),
		mk("RETURN COUNT(*) PATTERN SEQ(A, C) WHERE A.val > 40 WITHIN 6s SLIDE 3s"),
	}
	w.Renumber()
	types := []event.Type{reg.Lookup("A"), reg.Lookup("B"), reg.Lookup("C")}
	stream := gen.StreamForWorkload(types, 3, 3000, 6, 400, 1, 3)
	return w, stream
}

// TestParallelPartitionedMatchesSequential checks segment sharding: the
// broadcast-routed parallel partitioned executor equals the sequential
// one on a mixed-window/predicate workload.
func TestParallelPartitionedMatchesSequential(t *testing.T) {
	w, stream := mixedWorkload(t)
	rates := core.Rates(stream.Rates())
	optOpts := core.OptimizerOptions{Strategy: core.StrategySharon, Expand: true, Budget: time.Second}

	seq, err := NewPartitioned(w, rates, Options{Collect: true}, optOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range stream {
		if err := seq.Process(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := seq.Flush(); err != nil {
		t.Fatal(err)
	}
	want := seq.Results()
	if len(want) == 0 {
		t.Fatal("sequential partitioned produced no results")
	}

	specs, err := PlanSegments(PartitionWorkload(w), rates, optOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		p, err := NewParallelPartitioned(specs, workers, Options{Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Workers(); got > len(specs) {
			t.Fatalf("workers = %d, want <= %d segments", got, len(specs))
		}
		if err := p.FeedBatch(stream); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		assertIdenticalResults(t, want, p.Results(), "partitioned/workers="+itoa(workers))
	}
}

// TestParallelDynamicMatchesSequential checks the sharded §7.4 dynamic
// executor: per-shard rate monitoring and independent migrations must
// not change window results.
func TestParallelDynamicMatchesSequential(t *testing.T) {
	w, stream, _ := parallelFixture(t, 4, 4000, 8, true)
	rates := core.Rates(stream[:500].Rates())
	cfg := DynamicConfig{Options: Options{Collect: true}, DriftThreshold: 0.3}

	seq, err := NewDynamic(w, rates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range stream {
		if err := seq.Process(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := seq.Flush(); err != nil {
		t.Fatal(err)
	}
	want := seq.Results()
	if len(want) == 0 {
		t.Fatal("sequential dynamic produced no results")
	}

	p, dyns, err := NewParallelDynamic(w, rates, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FeedBatch(stream); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	assertIdenticalResults(t, want, p.Results(), "dynamic/workers=4")
	if len(dyns) != 4 {
		t.Fatalf("shards = %d, want 4", len(dyns))
	}
}

// TestParallelRejectsOutOfOrder mirrors the sequential contract: the
// feeder rejects a non-increasing timestamp synchronously.
func TestParallelRejectsOutOfOrder(t *testing.T) {
	w, stream, plan := parallelFixture(t, 2, 100, 4, true)
	p, err := NewParallelEngine(w, plan, 2, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Process(stream[1]); err != nil {
		t.Fatal(err)
	}
	if err := p.Process(stream[0]); err == nil {
		t.Error("out-of-order event accepted")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.Process(stream[2]); err == nil {
		t.Error("Process after Flush accepted")
	}
	if err := p.Flush(); err != nil {
		t.Errorf("repeated Flush: %v", err)
	}
}

// TestParallelStopDiscardsPending checks the abandoned-run teardown: a
// Stop mid-stream must not emit the still-open windows as if they were
// complete aggregates.
func TestParallelStopDiscardsPending(t *testing.T) {
	w, stream, plan := parallelFixture(t, 4, 2000, 8, true)
	var emitted int
	p, err := NewParallelEngine(w, plan, 4, Options{OnResult: func(Result) { emitted++ }})
	if err != nil {
		t.Fatal(err)
	}
	// Feed only events inside the first window (length 4000, slide 1000:
	// nothing closes before t=4000), then abandon the run.
	for _, e := range stream {
		if e.Time >= 3000 {
			break
		}
		if err := p.Process(e); err != nil {
			t.Fatal(err)
		}
	}
	p.Stop()
	if emitted != 0 {
		t.Errorf("Stop emitted %d truncated window results, want 0", emitted)
	}
	if err := p.Process(stream[len(stream)-1]); err == nil {
		t.Error("Process accepted after Stop")
	}
	if err := p.Flush(); err != nil {
		t.Errorf("Flush after Stop: %v", err)
	}
	if emitted != 0 {
		t.Errorf("Flush after Stop emitted %d results, want 0", emitted)
	}
}

// TestParallelStats checks the throughput / shard-occupancy counters.
func TestParallelStats(t *testing.T) {
	w, stream, plan := parallelFixture(t, 4, 4000, 16, true)
	p, err := NewParallelEngine(w, plan, 4, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FeedBatch(stream); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Workers != 4 {
		t.Errorf("Workers = %d, want 4", st.Workers)
	}
	if st.EventsFed != int64(len(stream)) {
		t.Errorf("EventsFed = %d, want %d", st.EventsFed, len(stream))
	}
	if st.TotalShardEvents() != int64(len(stream)) {
		t.Errorf("TotalShardEvents = %d, want %d (hash routing)", st.TotalShardEvents(), len(stream))
	}
	if st.ResultsMerged != p.ResultCount() {
		t.Errorf("ResultsMerged = %d, ResultCount = %d", st.ResultsMerged, p.ResultCount())
	}
	var occ float64
	for _, f := range st.Occupancy() {
		occ += f
	}
	if occ < 0.999 || occ > 1.001 {
		t.Errorf("occupancy sums to %v, want 1", occ)
	}
	if st.Imbalance() < 1 {
		t.Errorf("imbalance = %v, want >= 1", st.Imbalance())
	}
	if st.Rounds <= 0 {
		t.Errorf("rounds = %d, want > 0", st.Rounds)
	}
	if st.Elapsed <= 0 || st.Throughput() <= 0 {
		t.Errorf("elapsed=%v throughput=%v, want > 0 after Flush", st.Elapsed, st.Throughput())
	}
	if s := st.String(); s == "" {
		t.Error("empty stats string")
	}
}

// TestParallelExplain checks that the sharded engine still reports its
// per-query decomposition.
func TestParallelExplain(t *testing.T) {
	reg := event.NewRegistry()
	w := query.Workload{
		query.MustParse("RETURN COUNT(*) PATTERN SEQ(A, B, C) WHERE [key] WITHIN 10s SLIDE 5s", reg),
		query.MustParse("RETURN COUNT(*) PATTERN SEQ(A, B, D) WHERE [key] WITHIN 10s SLIDE 5s", reg),
	}
	w.Renumber()
	plan := core.Plan{core.FindCandidates(w)[0]}
	p, err := NewParallelEngine(w, plan, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Explain(reg); s == "" {
		t.Error("parallel Explain returned nothing")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
