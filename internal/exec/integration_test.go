package exec

import (
	"slices"
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/agg"
	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/gen"
	"github.com/sharon-project/sharon/internal/query"
)

// TestOptimizerPlansExecuteCorrectly is the end-to-end integration
// property: for generated workloads (both sharing topologies, grouped
// streams), the plan chosen by the real Sharon optimizer executes to
// exactly the same results as the non-shared engine.
func TestOptimizerPlansExecuteCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs generated workloads")
	}
	cases := []struct {
		name string
		cfg  gen.WorkloadConfig
	}{
		{"chunks", gen.WorkloadConfig{
			NumQueries: 12, PatternLen: 6,
			SharedChunks: 3, ChunkLen: 3, ChunksPerQuery: 1, FillerPool: 10,
			UniquePatterns: 6,
			Window:         4000, Slide: 1000, GroupBy: true, Seed: 21,
		}},
		{"corridor", gen.WorkloadConfig{
			Mode:       gen.ModeCorridor,
			NumQueries: 10, PatternLen: 5, CorridorLen: 7, SliceLen: 3,
			Window: 4000, Slide: 2000, GroupBy: true, Seed: 22,
		}},
		{"duplicates", gen.WorkloadConfig{
			NumQueries: 10, PatternLen: 5,
			SharedChunks: 2, ChunkLen: 2, ChunksPerQuery: 1, FillerPool: 8,
			DuplicateFraction: 0.6,
			Window:            4000, Slide: 1000, GroupBy: false, Seed: 23,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, types := gen.GenWorkload(event.NewRegistry(), tc.cfg)
			stream := gen.StreamForWorkload(types, gen.NumHotTypes(tc.cfg), 6000, 4, 1000, 3, tc.cfg.Seed)
			rates := core.Rates(stream.Rates())
			if tc.cfg.GroupBy {
				for k := range rates {
					rates[k] /= 4
				}
			}
			res, err := core.Optimize(w, rates, core.OptimizerOptions{
				Strategy:     core.StrategySharon,
				Expand:       true,
				ExpandConfig: core.ExpandConfig{MaxOptionsPerCandidate: 8, MaxTotalVertices: 256},
				Budget:       5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Plan.Validate(w); err != nil {
				t.Fatalf("optimizer produced invalid plan: %v", err)
			}

			ref, err := NewEngine(w, nil, Options{Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			runAll(t, ref, stream)

			shared, err := NewEngine(w, res.Plan, Options{Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			runAll(t, shared, stream)

			want, got := ref.Results(), shared.Results()
			if len(want) == 0 {
				t.Fatal("workload matched nothing; test is vacuous")
			}
			if msg := diffResults(want, got); msg != "" {
				t.Fatalf("shared execution differs under optimizer plan (%d candidates): %s",
					len(res.Plan), msg)
			}
			t.Logf("plan: %d candidates, score %.4g, %d results", len(res.Plan), res.Score, len(got))
		})
	}
}

// TestDynamicUnderOptimizedPlans stresses §7.4 on a generated workload
// with a mid-stream rate flip, comparing against non-shared execution.
func TestDynamicUnderOptimizedPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := gen.WorkloadConfig{
		Mode:       gen.ModeCorridor,
		NumQueries: 8, PatternLen: 4, CorridorLen: 6, SliceLen: 3,
		Window: 3000, Slide: 1000, GroupBy: false, Seed: 31,
	}
	w, types := gen.GenWorkload(event.NewRegistry(), cfg)
	// First half: corridor types hot; second half: fillers hot.
	half1 := gen.StreamForWorkload(types, gen.NumHotTypes(cfg), 3000, 1, 1000, 5, 31)
	half2raw := gen.StreamForWorkload(types, gen.NumHotTypes(cfg), 3000, 1, 1000, 0.2, 32)
	offset := half1[len(half1)-1].Time + 1
	var stream event.Stream
	stream = append(stream, half1...)
	for _, e := range half2raw {
		e.Time += offset
		stream = append(stream, e)
	}
	if err := stream.Validate(); err != nil {
		t.Fatal(err)
	}

	d, err := NewDynamic(w, core.Rates(half1.Rates()), DynamicConfig{
		Options:        Options{Collect: true},
		CheckEvery:     1500,
		DriftThreshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, d, stream)

	ref, err := NewEngine(w, nil, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, ref, stream)

	want, got := ref.Results(), d.Results()
	if len(want) != len(got) {
		t.Fatalf("result counts: dynamic %d vs static %d (migrations=%d)", len(got), len(want), d.Migrations)
	}
	for i := range want {
		if want[i].Query != got[i].Query || want[i].Win != got[i].Win ||
			want[i].Group != got[i].Group || !agg.ApproxEqual(want[i].State, got[i].State) {
			t.Fatalf("result %d differs (migrations=%d):\nstatic  %+v\ndynamic %+v",
				i, d.Migrations, want[i], got[i])
		}
	}
	t.Logf("migrations: %d over %d events", d.Migrations, len(stream))
}

// TestPartitionedUnderMixedWindows combines §7.2 partitioning with real
// optimizer plans per segment.
func TestPartitionedUnderMixedWindows(t *testing.T) {
	reg := event.NewRegistry()
	mk := func(text string) *query.Query { return query.MustParse(text, reg) }
	w := query.Workload{
		mk("RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 3s SLIDE 1s"),
		mk("RETURN COUNT(*) PATTERN SEQ(A, B, D) WITHIN 3s SLIDE 1s"),
		mk("RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 6s SLIDE 2s"),
		mk("RETURN SUM(B.val) PATTERN SEQ(A, B) WITHIN 6s SLIDE 2s"),
	}
	w.Renumber()
	var stream event.Stream
	letters := []string{"A", "B", "C", "D"}
	for i := 0; i < 800; i++ {
		stream = append(stream, event.Event{
			Time: int64(i+1) * 25,
			Type: reg.Lookup(letters[i%4]),
			Val:  float64(i % 7),
		})
	}
	rates := core.Rates(stream.Rates())
	p, err := NewPartitioned(w, rates, Options{Collect: true}, core.OptimizerOptions{
		Strategy: core.StrategySharon, Expand: true, Budget: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, p, stream)
	got := p.Results()

	var want []Result
	for _, seg := range PartitionWorkload(w) {
		oracle, err := Oracle(stream, seg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, oracle...)
	}
	slices.SortFunc(want, cmpResult)
	slices.SortFunc(got, cmpResult)
	if msg := diffResults(want, got); msg != "" {
		t.Fatal(msg)
	}
}
