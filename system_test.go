// Public-API equivalence tests for the one System type: whatever
// executor NewSystem composes — uniform, multi-segment, dynamic,
// adaptive, each sequential or sharded — it must emit the bytes of a
// plain sequential uniform run, in the same order, through either
// delivery mode, and across a mid-stream Snapshot/Restore. Run with
// -race (CI does) to exercise the worker/merge concurrency.
package sharon_test

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/gen"
)

// genGrouped builds a grouped multi-query chunk workload and a matching
// stream from the paper generator.
func genGrouped(t *testing.T, nq, events, keys int) (sharon.Workload, sharon.Stream) {
	t.Helper()
	wcfg := gen.WorkloadConfig{
		NumQueries: nq, PatternLen: 6,
		SharedChunks: 3, ChunkLen: 2, ChunksPerQuery: 2, FillerPool: 10,
		Window: 5000, Slide: 1000,
		GroupBy: true, Seed: 3,
	}
	w, types := gen.GenWorkload(event.NewRegistry(), wcfg)
	stream := gen.StreamForWorkload(types, gen.NumHotTypes(wcfg), events, keys, 500, 3, 3)
	return w, stream
}

// genBursty builds a sharable grouped workload and a square-wave bursty
// stream (short windows, long valleys) that drives the dynamic executor
// through plan migrations and the adaptive one through several
// share→split rounds.
func genBursty(t *testing.T) (sharon.Workload, sharon.Stream) {
	t.Helper()
	wcfg := gen.WorkloadConfig{
		NumQueries: 4, PatternLen: 6,
		SharedChunks: 3, ChunkLen: 2, ChunksPerQuery: 2, FillerPool: 8,
		Window: 2000, Slide: 500,
		GroupBy: true, Seed: 7,
	}
	w, types := gen.GenWorkload(event.NewRegistry(), wcfg)
	stream := gen.BurstyStreamForWorkload(types, gen.NumHotTypes(wcfg), 3, gen.BurstyConfig{
		NumKeys: 8, Events: 12000,
		BaseRate: 100, BurstRate: 1000,
		Period: 8, Duty: 0.25,
		Shape: gen.ShapeSquare, Seed: 11,
	})
	return w, stream
}

// genIdleGroups re-keys the bursty stream over 600 groups, 8 of them hot:
// in any one window most groups have nothing to emit, so window close
// must find the few that do without losing or reordering any.
func genIdleGroups(t *testing.T) (sharon.Workload, sharon.Stream) {
	t.Helper()
	w, bursty := genBursty(t)
	rng := rand.New(rand.NewSource(23))
	stream := append(sharon.Stream(nil), bursty...)
	for i := range stream {
		if rng.Intn(10) < 7 {
			stream[i].Key = sharon.GroupKey(rng.Intn(8))
		} else {
			stream[i].Key = sharon.GroupKey(8 + rng.Intn(592))
		}
	}
	return w, stream
}

// genMixed builds a workload that partitions into three uniform
// segments (two windows, one predicate) and a stream over its types.
func genMixed(t *testing.T) (sharon.Workload, sharon.Stream) {
	t.Helper()
	reg := sharon.NewRegistry()
	w := sharon.Workload{
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B) WHERE [key] WITHIN 4s SLIDE 2s", reg),
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B, C) WHERE [key] WITHIN 4s SLIDE 2s", reg),
		sharon.MustParseQuery("RETURN SUM(C.val) PATTERN SEQ(B, C) WHERE [key] WITHIN 8s SLIDE 4s", reg),
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, C) WHERE A.val > 40 WITHIN 6s SLIDE 3s", reg),
	}
	w.Renumber()
	types := []sharon.Type{reg.Lookup("A"), reg.Lookup("B"), reg.Lookup("C")}
	return w, gen.StreamForWorkload(types, 3, 4000, 6, 400, 1, 9)
}

// requireIdentical compares full result sequences byte-for-byte.
func requireIdentical(t *testing.T, want, got []sharon.Result, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// pushOrder returns rs re-sorted into the sink's delivery order —
// (window end, query ID, window, group). Results() reports query-major
// order instead, so tests comparing a collected reference against a
// pushed sequence sort the reference first.
func pushOrder(w sharon.Workload, rs []sharon.Result) []sharon.Result {
	win := make(map[int]sharon.Window, len(w))
	for _, q := range w {
		win[q.ID] = q.Window
	}
	out := append([]sharon.Result(nil), rs...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if ea, eb := win[a.Query].End(a.Win), win[b.Query].End(b.Win); ea != eb {
			return ea < eb
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		if a.Win != b.Win {
			return a.Win < b.Win
		}
		return a.Group < b.Group
	})
	return out
}

// sequentialUniformReference is the oracle of every test in this file:
// each uniform segment of w run on its own through a plain sequential
// non-shared system, merged into Results() order.
func sequentialUniformReference(t *testing.T, w sharon.Workload, stream sharon.Stream) []sharon.Result {
	t.Helper()
	probe, err := sharon.NewSystem(w, sharon.Options{Strategy: sharon.StrategyNonShared, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	var all []sharon.Result
	for i := 0; i < probe.Segments(); i++ {
		seg, _ := probe.SegmentPlan(i)
		sys, err := sharon.NewSystem(seg, sharon.Options{Strategy: sharon.StrategyNonShared, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sys.Segments() != 1 {
			t.Fatalf("segment %d is not uniform: splits into %d", i, sys.Segments())
		}
		if err := sys.ProcessAll(stream); err != nil {
			t.Fatal(err)
		}
		all = append(all, sys.Results()...)
		sys.Close()
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		if a.Win != b.Win {
			return a.Win < b.Win
		}
		return a.Group < b.Group
	})
	if len(all) == 0 {
		t.Fatal("reference run produced no results")
	}
	return all
}

// systemKind is one row of the equivalence matrices.
type systemKind struct {
	name     string
	w        sharon.Workload
	stream   sharon.Stream
	segments int
	opts     func(c *kindCounters) sharon.Options
}

// execModes are the two Parallelism settings every matrix crosses.
var execModes = []struct {
	name string
	par  int
}{{"sequential", 1}, {"sharded", 4}}

// kindCounters collects a run's Dynamic callbacks (serialized by the
// system across shards, so plain ints suffice).
type kindCounters struct{ migrations, decisions int }

func systemKinds(t *testing.T) []systemKind {
	bw, bs := genBursty(t)
	mw, ms := genMixed(t)
	iw, is := genIdleGroups(t)
	rates := sharon.MeasureRates(bs[:500], bw)
	dynamic := func(adaptive bool) func(*kindCounters) sharon.Options {
		return func(c *kindCounters) sharon.Options {
			return sharon.Options{Rates: rates, Dynamic: &sharon.DynamicOptions{
				CheckEvery:     500,
				DriftThreshold: 0.3,
				Adaptive:       adaptive,
				OnMigrate:      func(int64, sharon.Plan, sharon.Plan) { c.migrations++ },
				OnDecision:     func(int64, sharon.BurstState, sharon.Plan) { c.decisions++ },
			}}
		}
	}
	return []systemKind{
		{"uniform", bw, bs, 1, func(*kindCounters) sharon.Options { return sharon.Options{Rates: rates} }},
		{"non-shared", bw, bs, 1, func(*kindCounters) sharon.Options {
			return sharon.Options{Strategy: sharon.StrategyNonShared}
		}},
		{"multi-segment", mw, ms, 3, func(*kindCounters) sharon.Options { return sharon.Options{} }},
		{"dynamic", bw, bs, 1, dynamic(false)},
		{"adaptive", bw, bs, 1, dynamic(true)},
		{"idle-groups", iw, is, 1, func(*kindCounters) sharon.Options { return sharon.Options{Rates: rates} }},
		{"idle-groups-dynamic", iw, is, 1, dynamic(false)},
	}
}

// feedUneven feeds the stream through FeedBatch in chunks that cross the
// sharded executor's dispatch-batch boundaries.
func feedUneven(t *testing.T, sys *sharon.System, stream sharon.Stream) {
	t.Helper()
	for i := 0; i < len(stream); i += 700 {
		if err := sys.FeedBatch(stream[i:min(i+700, len(stream))]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSystemMatrix is the public acceptance check: {uniform, non-shared,
// multi-segment, dynamic, adaptive, and the static and dynamic executors
// over 600 mostly idle groups} × {Parallelism 1, 4} × {collect, OnResult}
// all equal the sequential uniform reference byte for byte,
// and the Results()/sink duality holds on each: a system with an
// attached sink never retains results while ResultCount still reports
// the delivered total.
func TestSystemMatrix(t *testing.T) {
	for _, kind := range systemKinds(t) {
		want := sequentialUniformReference(t, kind.w, kind.stream)
		for _, mode := range execModes {
			par := mode.par
			for _, push := range []bool{false, true} {
				delivery := "collect"
				if push {
					delivery = "onresult"
				}
				t.Run(kind.name+"/"+mode.name+"/"+delivery, func(t *testing.T) {
					var c kindCounters
					opts := kind.opts(&c)
					opts.Parallelism = par
					var pushed []sharon.Result // merge goroutine when sharded; read after Flush
					if push {
						opts.OnResult = func(r sharon.Result) { pushed = append(pushed, r) }
					}
					sys, err := sharon.NewSystem(kind.w, opts)
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					if sys.Segments() != kind.segments {
						t.Fatalf("Segments() = %d, want %d", sys.Segments(), kind.segments)
					}
					if push && sys.Results() != nil {
						t.Fatal("Results() before feed with a sink attached, want nil")
					}
					feedUneven(t, sys, kind.stream)
					if err := sys.Flush(); err != nil {
						t.Fatal(err)
					}

					if push {
						requireIdentical(t, pushOrder(kind.w, want), pushed, "pushed sequence")
						if got := sys.Results(); got != nil {
							t.Fatalf("Results() with a sink attached = %d results, want nil", len(got))
						}
					} else {
						requireIdentical(t, want, sys.Results(), "collected results")
					}
					if sys.ResultCount() != int64(len(want)) {
						t.Fatalf("ResultCount() = %d, want %d", sys.ResultCount(), len(want))
					}
					if sys.PeakMemoryStates() <= 0 {
						t.Error("PeakMemoryStates() accounted nothing")
					}

					st := sys.ParallelStats()
					if par == 1 && st.Workers != 0 {
						t.Fatalf("sequential run reports %d workers", st.Workers)
					}
					if par > 1 {
						wantWorkers := par // by group-key hash; by segment when there are several
						if kind.segments > 1 {
							wantWorkers = min(par, kind.segments)
						}
						if st.Workers != wantWorkers {
							t.Fatalf("ParallelStats.Workers = %d, want %d", st.Workers, wantWorkers)
						}
						if st.EventsFed != int64(len(kind.stream)) {
							t.Fatalf("ParallelStats.EventsFed = %d, want %d", st.EventsFed, len(kind.stream))
						}
					}

					ds := sys.DynamicStats()
					if ds.Migrations != c.migrations {
						t.Fatalf("DynamicStats.Migrations = %d, OnMigrate fired %d times", ds.Migrations, c.migrations)
					}
					if ds.ShareTransitions+ds.SplitTransitions != c.decisions {
						t.Fatalf("share+split = %d+%d, OnDecision fired %d times", ds.ShareTransitions, ds.SplitTransitions, c.decisions)
					}
					switch {
					case kind.name == "dynamic":
						if ds.Migrations == 0 {
							t.Error("the bursty stream triggered no plan migration")
						}
					case kind.name == "adaptive":
						if ds.ShareTransitions == 0 || ds.SplitTransitions == 0 {
							t.Errorf("share=%d split=%d transitions, want both", ds.ShareTransitions, ds.SplitTransitions)
						}
					case opts.Dynamic == nil:
						if ds != (sharon.DynamicStats{}) {
							t.Errorf("DynamicStats without Options.Dynamic = %+v", ds)
						}
					}
					// (A dynamic run counts its current engine's groups only.)
					if kind.name == "idle-groups" && sys.GroupCount() < 500 {
						t.Errorf("GroupCount() = %d, want the stream's 500+ groups", sys.GroupCount())
					}
					_ = sys.Plan() // post-flush introspection reads worker-owned state
				})
			}
		}
	}
}

// TestSystemSnapshotRoundTrip cuts each executor kind mid-stream, at
// both parallelisms: Snapshot, abandon the system like a crash, Restore
// into a fresh NewSystem with the same options, feed the tail — the
// concatenated emission must equal the uninterrupted one.
func TestSystemSnapshotRoundTrip(t *testing.T) {
	for _, kind := range systemKinds(t) {
		want := pushOrder(kind.w, sequentialUniformReference(t, kind.w, kind.stream))
		for _, mode := range execModes {
			par := mode.par
			t.Run(kind.name+"/"+mode.name, func(t *testing.T) {
				var mu sync.Mutex // two systems' merge goroutines append in turn
				var got []sharon.Result
				build := func() *sharon.System {
					opts := kind.opts(&kindCounters{})
					opts.Parallelism = par
					opts.OnResult = func(r sharon.Result) {
						mu.Lock()
						got = append(got, r)
						mu.Unlock()
					}
					sys, err := sharon.NewSystem(kind.w, opts)
					if err != nil {
						t.Fatal(err)
					}
					return sys
				}
				cut := len(kind.stream) / 2

				first := build()
				defer first.Close()
				if err := first.FeedBatch(kind.stream[:cut]); err != nil {
					t.Fatal(err)
				}
				snap, err := first.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				delivered := len(got)
				mu.Unlock()
				first.Close() // windows past the snapshot die with it
				mu.Lock()
				if len(got) != delivered {
					t.Fatalf("Close delivered %d results after the snapshot", len(got)-delivered)
				}
				mu.Unlock()

				second := build()
				defer second.Close()
				if err := second.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if err := second.FeedBatch(kind.stream[cut:]); err != nil {
					t.Fatal(err)
				}
				if err := second.Flush(); err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				defer mu.Unlock()
				requireIdentical(t, want, got, "snapshot + restore + tail")
			})
		}
	}
}

// TestNewSystemRejects pins the option combinations NewSystem refuses
// instead of silently running something else.
func TestNewSystemRejects(t *testing.T) {
	uniform, _ := genGrouped(t, 4, 10, 2)
	mixed, _ := genMixed(t)
	cands := sharon.FindCandidates(uniform)
	if len(cands) == 0 {
		t.Fatal("fixture has no sharing candidate")
	}
	plan := sharon.Plan{cands[0]}
	for _, tc := range []struct {
		name string
		w    sharon.Workload
		opts sharon.Options
		want string
	}{
		{"strategy out of range", uniform, sharon.Options{Strategy: sharon.StrategyNonShared + 1}, "unknown Strategy"},
		{"negative strategy", uniform, sharon.Options{Strategy: -1}, "unknown Strategy"},
		{"strategy out of range, multi-segment", mixed, sharon.Options{Strategy: 5}, "unknown Strategy"},
		{"plan on multi-segment", mixed, sharon.Options{Plan: plan}, "Options.Plan"},
		{"dynamic on multi-segment", mixed, sharon.Options{Dynamic: &sharon.DynamicOptions{}}, "Options.Dynamic"},
		{"dynamic with plan", uniform, sharon.Options{Plan: plan, Dynamic: &sharon.DynamicOptions{}}, "Options.Dynamic"},
		{"dynamic with strategy", uniform, sharon.Options{Strategy: sharon.StrategyGreedy, Dynamic: &sharon.DynamicOptions{}}, "Options.Dynamic"},
		{"empty workload", nil, sharon.Options{}, "empty workload"},
	} {
		sys, err := sharon.NewSystem(tc.w, tc.opts)
		if err == nil {
			sys.Close()
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	// The same plan on the uniform workload it spans is fine.
	sys, err := sharon.NewSystem(uniform, sharon.Options{Plan: plan})
	if err != nil {
		t.Fatalf("explicit plan on a uniform workload: %v", err)
	}
	sys.Close()
}

// TestSystemGroupSlicesNeedUniformStatic pins which executors host the
// cluster tier's group hand-offs: the uniform static ones, sequential or
// sharded; the others refuse without touching state.
func TestSystemGroupSlicesNeedUniformStatic(t *testing.T) {
	for _, kind := range systemKinds(t) {
		for _, mode := range execModes {
			par := mode.par
			opts := kind.opts(&kindCounters{})
			hosts := kind.segments == 1 && opts.Dynamic == nil
			opts.Parallelism = par
			sys, err := sharon.NewSystem(kind.w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.FeedBatch(kind.stream[:2000]); err != nil {
				t.Fatal(err)
			}
			if err := sys.Quiesce(); err != nil {
				t.Fatal(err)
			}
			before := sys.GroupCount()
			if before == 0 {
				t.Fatalf("%s/%d: no live groups after 2000 events", kind.name, par)
			}
			n, err := sys.RemoveGroups(func(sharon.GroupKey) bool { return true })
			switch {
			case hosts && (err != nil || int64(n) != before):
				t.Errorf("%s/%d: RemoveGroups = %d, %v; want all %d groups", kind.name, par, n, err, before)
			case !hosts && (err == nil || sys.GroupCount() != before):
				t.Errorf("%s/%d: RemoveGroups = %d, %v with %d of %d groups left; want a refusal", kind.name, par, n, err, sys.GroupCount(), before)
			}
			// A refusal leaves the run healthy.
			if err := sys.Flush(); err != nil {
				t.Errorf("%s/%d: Flush after RemoveGroups: %v", kind.name, par, err)
			}
			sys.Close()
		}
	}
}

// TestSystemExplainSurvivesSharding checks plan introspection on the
// sharded path.
func TestSystemExplainSurvivesSharding(t *testing.T) {
	reg := sharon.NewRegistry()
	w := sharon.Workload{
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B, C) WHERE [vehicle] WITHIN 10s SLIDE 5s", reg),
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B, D) WHERE [vehicle] WITHIN 10s SLIDE 5s", reg),
	}
	w.Renumber()
	cands := sharon.FindCandidates(w)
	sys, err := sharon.NewSystem(w, sharon.Options{Plan: sharon.Plan{cands[0]}, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if s := sys.Explain(reg); s == "" {
		t.Error("Explain returned nothing under Parallelism: 2")
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
}
