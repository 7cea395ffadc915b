package exec

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

// groupedStream generates a keyed stream over ABCD with deterministic
// pseudo-random keys, one tick apart.
func groupedStream(f *fixture, n, groups int, seed int64) event.Stream {
	rng := rand.New(rand.NewSource(seed))
	types := []byte("ABCD")
	out := make(event.Stream, n)
	for i := 0; i < n; i++ {
		out[i] = event.Event{
			Time: int64(i + 1),
			Type: f.ids[types[rng.Intn(len(types))]],
			Key:  event.GroupKey(rng.Intn(groups)),
			Val:  float64(i%7 + 1),
		}
	}
	return out
}

func groupedQuery(f *fixture, id int, pat string, win, slide int64) *query.Query {
	q := f.query(id, pat, win, slide)
	q.GroupBy = true
	return q
}

func sortedResults(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	slices.SortFunc(out, cmpResult)
	return out
}

// TestSliceAbsorbEquivalence is the state-transfer core of the cluster
// tier at engine level: a stream split across two engines by key, one
// engine's groups sliced out at a watermark and absorbed by the other,
// which then serves the whole key space — the union of results must be
// exactly a single engine's results, with and without a sharing plan.
func TestSliceAbsorbEquivalence(t *testing.T) {
	f := newFixture()
	w := query.Workload{groupedQuery(f, 0, "ABCD", 40, 10), groupedQuery(f, 1, "CD", 40, 10)}
	plans := map[string]core.Plan{
		"aseq":   nil,
		"shared": {core.NewCandidate(f.pat("CD"), []int{0, 1})},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			stream := groupedStream(f, 2000, 8, 7)
			cut := 1000
			cutWM := stream[cut-1].Time
			keep := func(k event.GroupKey) bool { return k%2 == 0 }

			ref, err := NewEngine(w, plan, Options{Collect: true})
			must(t, err)
			for _, e := range stream {
				must(t, ref.Process(e))
			}
			must(t, ref.Flush())

			// Owner A holds the even keys, owner B the odd ones.
			a, err := NewEngine(w, plan, Options{Collect: true})
			must(t, err)
			b, err := NewEngine(w, plan, Options{Collect: true})
			must(t, err)
			for _, e := range stream[:cut] {
				if keep(e.Key) {
					must(t, a.Process(e))
				} else {
					must(t, b.Process(e))
				}
			}
			// The hand-off barrier: both engines quiesced at the same
			// watermark, then B's groups move to A.
			a.AdvanceWatermark(cutWM)
			b.AdvanceWatermark(cutWM)
			slice, err := SliceGroups(mustSnap(t, b), func(event.GroupKey) bool { return true })
			must(t, err)
			if len(slice.Groups) == 0 {
				t.Fatal("empty slice")
			}
			must(t, a.AbsorbSlice(slice))

			// A serves the whole key space from here.
			for _, e := range stream[cut:] {
				must(t, a.Process(e))
			}
			must(t, a.Flush())

			union := sortedResults(append(b.Results(), a.Results()...))
			want := ref.Results()
			if len(union) != len(want) {
				t.Fatalf("union has %d results, single engine %d", len(union), len(want))
			}
			for i := range want {
				if union[i] != want[i] {
					t.Fatalf("result %d differs:\n  union:  %+v\n  single: %+v", i, union[i], want[i])
				}
			}
		})
	}
}

// TestSliceGroupsParallelFlatten slices across a parallel snapshot's
// shards and absorbs into a sequential engine: the snapshot's shards
// flatten into one aligned slice regardless of the source worker count.
func TestSliceGroupsParallelFlatten(t *testing.T) {
	f := newFixture()
	w := query.Workload{groupedQuery(f, 0, "AB", 40, 10)}
	stream := groupedStream(f, 1500, 12, 11)
	cut := 700
	cutWM := stream[cut-1].Time

	var mu sync.Mutex
	var early []Result
	p, err := NewParallelEngine(w, nil, 3, Options{OnResult: func(r Result) {
		mu.Lock()
		early = append(early, r)
		mu.Unlock()
	}})
	must(t, err)
	must(t, p.FeedBatch(stream[:cut]))
	p.AdvanceWatermark(cutWM)
	must(t, p.Quiesce()) // every window at or before cutWM delivered
	snap, err := p.Snapshot()
	must(t, err)
	slice, err := SliceGroups(snap, func(event.GroupKey) bool { return true })
	must(t, err)
	p.Stop() // the open windows past cutWM move with the slice

	seq, err := NewEngine(w, nil, Options{Collect: true})
	must(t, err)
	must(t, seq.AbsorbSlice(slice))
	for _, e := range stream[cut:] {
		must(t, seq.Process(e))
	}
	must(t, seq.Flush())

	ref, err := NewEngine(w, nil, Options{Collect: true})
	must(t, err)
	for _, e := range stream {
		must(t, ref.Process(e))
	}
	must(t, ref.Flush())

	mu.Lock()
	union := sortedResults(append(early, seq.Results()...))
	mu.Unlock()
	want := ref.Results()
	if len(union) != len(want) {
		t.Fatalf("union has %d results, single engine %d", len(union), len(want))
	}
	for i, r := range want {
		if union[i] != r {
			t.Fatalf("result %d differs: %+v vs %+v", i, union[i], r)
		}
	}
}

// TestRemoveGroups checks removal: the dropped groups stop contributing
// and the live-group gauge shrinks.
func TestRemoveGroups(t *testing.T) {
	f := newFixture()
	w := query.Workload{groupedQuery(f, 0, "AB", 40, 10)}
	en, err := NewEngine(w, nil, Options{Collect: true})
	must(t, err)
	stream := groupedStream(f, 400, 6, 3)
	for _, e := range stream {
		must(t, en.Process(e))
	}
	before := en.GroupCount()
	removed, _ := en.RemoveGroups(func(k event.GroupKey) bool { return k < 3 })
	if removed == 0 || en.GroupCount() != before-int64(removed) {
		t.Fatalf("removed %d of %d groups, %d left", removed, before, en.GroupCount())
	}
	must(t, en.Flush())
	// Windows closed before removal (ends <= 400, i.e. win <= 36)
	// legitimately include the removed groups; the flush tail (win 37+)
	// must not.
	for _, r := range en.Results() {
		if r.Win >= 37 && r.Group < 3 {
			t.Fatalf("removed group %d still emitted window %d", r.Group, r.Win)
		}
	}
}

// TestAbsorbMisaligned refuses a graft at a different stream position.
func TestAbsorbMisaligned(t *testing.T) {
	f := newFixture()
	w := query.Workload{groupedQuery(f, 0, "AB", 40, 10)}
	a, err := NewEngine(w, nil, Options{})
	must(t, err)
	b, err := NewEngine(w, nil, Options{})
	must(t, err)
	stream := groupedStream(f, 200, 4, 5)
	for _, e := range stream[:100] {
		must(t, a.Process(e))
	}
	for _, e := range stream[:150] {
		must(t, b.Process(e))
	}
	slice, err := SliceGroups(mustSnap(t, b), func(event.GroupKey) bool { return true })
	must(t, err)
	if err := a.AbsorbSlice(slice); err == nil {
		t.Fatal("misaligned absorb accepted")
	}
}

// TestAbsorbDuplicateGroup refuses two owners for the same key.
func TestAbsorbDuplicateGroup(t *testing.T) {
	f := newFixture()
	w := query.Workload{groupedQuery(f, 0, "AB", 40, 10)}
	a, err := NewEngine(w, nil, Options{})
	must(t, err)
	b, err := NewEngine(w, nil, Options{})
	must(t, err)
	stream := groupedStream(f, 100, 4, 9)
	for _, e := range stream {
		must(t, a.Process(e))
		must(t, b.Process(e))
	}
	slice, err := SliceGroups(mustSnap(t, b), func(event.GroupKey) bool { return true })
	must(t, err)
	if err := a.AbsorbSlice(slice); err == nil {
		t.Fatal("duplicate-group absorb accepted")
	}
}

// TestSliceGroupsUnsupportedKinds rejects non-sliceable snapshots.
func TestSliceGroupsUnsupportedKinds(t *testing.T) {
	for _, kind := range []string{KindDynamic, KindPartitioned} {
		s := &SystemSnapshot{Kind: kind}
		if _, err := SliceGroups(s, func(event.GroupKey) bool { return true }); err == nil {
			t.Fatalf("SliceGroups accepted %q snapshot", kind)
		}
	}
}
