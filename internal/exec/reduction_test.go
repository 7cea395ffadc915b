package exec

import (
	"math/rand"
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/gen"
	"github.com/sharon-project/sharon/internal/query"
)

// runEngine builds an engine with the given options, runs the stream, and
// returns (engine, results).
func runEngine(t *testing.T, w query.Workload, plan core.Plan, stream event.Stream, opts Options) (*Engine, []Result) {
	t.Helper()
	opts.Collect = true
	en, err := NewEngine(w, plan, opts)
	must(t, err)
	runAll(t, en, stream)
	return en, en.Results()
}

// TestStateReductionOracleRandomized is the oracle for the SHARP-style
// state reduction: over randomized workloads, plans, and streams, the
// reduced engine (dead-suffix prune + node/stage merging, the default)
// must produce exactly the results of an engine with
// DisableStateReduction — reduction only removes state that can never
// reach an emitted window total. The prune must also actually fire
// somewhere across the sweep, so the equivalence is not vacuous.
func TestStateReductionOracleRandomized(t *testing.T) {
	var prunedTotal, mergedTotal int64
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wcfg := gen.WorkloadConfig{
			NumQueries: 3 + rng.Intn(4), PatternLen: 4 + rng.Intn(3),
			SharedChunks: 2 + rng.Intn(2), ChunkLen: 2, ChunksPerQuery: 1 + rng.Intn(2),
			FillerPool: 6,
			Window:     int64(1000 * (2 + rng.Intn(3))), Slide: 1000,
			GroupBy: rng.Intn(2) == 0, Seed: seed,
		}
		w, types := gen.GenWorkload(event.NewRegistry(), wcfg)
		keys := 1 + rng.Intn(8)
		stream := gen.StreamForWorkload(types, gen.NumHotTypes(wcfg), 4000, keys, 300+float64(rng.Intn(500)), 3, seed)
		res, err := core.Optimize(w, core.Rates(stream.Rates()), core.OptimizerOptions{
			Strategy: core.StrategySharon, Expand: true, Budget: 2 * time.Second,
		})
		must(t, err)

		for _, plan := range []core.Plan{res.Plan, nil} {
			reduced, got := runEngine(t, w, plan, stream, Options{})
			_, want := runEngine(t, w, plan, stream, Options{DisableStateReduction: true})
			if diff := diffResults(want, got); diff != "" {
				t.Fatalf("seed %d (plan size %d): reduced engine diverges: %s", seed, len(plan), diff)
			}
			prunedTotal += reduced.PrunedStarts()
			mergedTotal += reduced.MergedNodes() + reduced.MergedStages()
		}
	}
	// Dense gen streams keep every prefix count above zero, so the merge
	// half dominates here; prune firing is asserted on rare-prefix
	// streams in TestDeadSuffixPruneRandomized.
	if mergedTotal == 0 {
		t.Fatal("node/stage merging never fired across the randomized sweep")
	}
	t.Logf("pruned %d starts, merged %d nodes+stages across sweep", prunedTotal, mergedTotal)
}

// TestDeadSuffixPruneRandomized is the oracle for the prune half on the
// streams it is built for: the shared (C,D) suffix is hot while the
// private (A,B)/(F,B) prefixes are rare, so many C starts arrive with
// zero prefix matches in every open window and die at birth. Equivalence
// against the unreduced engine must hold while the prune fires heavily.
func TestDeadSuffixPruneRandomized(t *testing.T) {
	f := newFixture()
	w := query.Workload{
		f.query(0, "ABCD", 64, 16),
		f.query(1, "FBCD", 64, 16),
	}
	plan := core.Plan{core.NewCandidate(f.pat("CD"), []int{0, 1})}
	types := []event.Type{f.ids['A'], f.ids['F'], f.ids['B'], f.ids['C'], f.ids['D']}
	weights := []float64{0.03, 0.03, 0.2, 1, 1}

	var prunedTotal int64
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cum := make([]float64, len(weights))
		sum := 0.0
		for i, wt := range weights {
			sum += wt
			cum[i] = sum
		}
		stream := make(event.Stream, 3000)
		for i := range stream {
			x := rng.Float64() * sum
			ti := 0
			for cum[ti] < x {
				ti++
			}
			stream[i] = event.Event{Time: int64(i + 1), Type: types[ti], Val: 1}
		}

		reduced, got := runEngine(t, w, plan, stream, Options{})
		_, want := runEngine(t, w, plan, stream, Options{DisableStateReduction: true})
		if diff := diffResults(want, got); diff != "" {
			t.Fatalf("seed %d: pruned engine diverges: %s", seed, diff)
		}
		prunedTotal += reduced.PrunedStarts()
	}
	if prunedTotal == 0 {
		t.Fatal("dead-suffix prune never fired on rare-prefix streams")
	}
	t.Logf("pruned %d starts across seeds", prunedTotal)
}

// TestStateReductionMergesDuplicateChains checks the merge half of the
// reduction on a workload where it provably applies: two queries with the
// same pattern, window, and aggregate sharing a (C,D) candidate must
// collapse to one private (A,B) node and one set of stages, and a third
// distinct query must not be merged into them. Results must match the
// unreduced engine on both queries.
func TestStateReductionMergesDuplicateChains(t *testing.T) {
	f := newFixture()
	// Query 2 computes (C,D) privately: were it in the candidate, its
	// stage-0 listener would read the shared node's totals and disable
	// the head-only prune.
	w := query.Workload{
		f.query(0, "ABCD", 100, 50),
		f.query(1, "ABCD", 100, 50), // exact duplicate: chains merge end-to-end
		f.query(2, "CD", 100, 50),
	}
	plan := core.Plan{core.NewCandidate(f.pat("CD"), []int{0, 1})}
	// Leading C/D events arrive with no (A,B) pair in any open window:
	// their START records on the head-only (C,D) node are dead at birth.
	stream := f.stream("CDCDABCDABCDCD", 1)

	reduced, got := runEngine(t, w, plan, stream, Options{})
	_, want := runEngine(t, w, plan, stream, Options{DisableStateReduction: true})
	if diff := diffResults(want, got); diff != "" {
		t.Fatalf("reduced engine diverges on duplicate chains: %s", diff)
	}
	if reduced.MergedNodes() == 0 {
		t.Error("duplicate (A,B) prefix nodes were not merged")
	}
	if reduced.MergedStages() == 0 {
		t.Error("duplicate chain stages were not merged")
	}
	if reduced.PrunedStarts() == 0 {
		t.Error("leading C starts were not pruned on the head-only shared node")
	}
	// Duplicate queries must report identical per-window counts.
	byQuery := map[int]map[int64]float64{0: {}, 1: {}}
	for _, r := range got {
		if m, ok := byQuery[r.Query]; ok {
			m[r.Win] = r.State.Count
		}
	}
	for win, c0 := range byQuery[0] {
		if c1 := byQuery[1][win]; c0 != c1 {
			t.Errorf("window %d: query 0 count %v != query 1 count %v", win, c0, c1)
		}
	}
}

// TestStateReductionSnapshotRoundTrip cuts a run over merged chains at
// several points and requires snapshot→restore→tail to reproduce the
// uninterrupted emission exactly: merged stages are serialized once under
// their owner chain and re-aliased on restore.
func TestStateReductionSnapshotRoundTrip(t *testing.T) {
	f := newFixture()
	w := query.Workload{
		f.query(0, "ABCD", 40, 10),
		f.query(1, "ABCD", 40, 10),
		f.query(2, "CD", 40, 10),
	}
	plan := core.Plan{core.NewCandidate(f.pat("CD"), []int{0, 1})}
	stream := f.stream("CDABCDABCDCDABCDABCDCDABCD", 1)

	ref := &emissionLog{}
	en, err := NewEngine(w, plan, Options{OnResult: ref.sink})
	must(t, err)
	runAll(t, en, stream)
	// Group runtimes build lazily on first event, so the merge counters
	// are only meaningful after the run.
	if en.MergedStages() == 0 {
		t.Fatal("fixture does not exercise merged stages")
	}

	for _, cut := range []int{1, len(stream) / 2, len(stream) - 1} {
		log := &emissionLog{}
		first, err := NewEngine(w, plan, Options{OnResult: log.sink})
		must(t, err)
		for _, e := range stream[:cut] {
			must(t, first.Process(e))
		}
		snap := mustSnap(t, first)

		second, err := NewEngine(w, plan, Options{OnResult: log.sink})
		must(t, err)
		must(t, second.Restore(snap))
		for _, e := range stream[cut:] {
			must(t, second.Process(e))
		}
		must(t, second.Flush())
		assertSameEmission(t, ref.results(), log.results(), "merged-chain restore")
	}
}
