// Benchmarks regenerating each table and figure of the paper's evaluation
// (§8) at benchmark-friendly scale. One testing.B per experiment; the
// full-size sweeps (with the paper's parameter ranges) are produced by
// cmd/sharon-bench, and EXPERIMENTS.md records paper-vs-measured.
package sharon_test

import (
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/exec"
	"github.com/sharon-project/sharon/internal/gen"
	"github.com/sharon-project/sharon/internal/query"
)

// benchSetup bundles a workload, a stream, and an optimized plan.
type benchSetup struct {
	w      query.Workload
	stream event.Stream
	plan   core.Plan
	rates  core.Rates
}

func perGroupRates(stream event.Stream, w query.Workload) core.Rates {
	rates := core.Rates(stream.Rates())
	if len(w) > 0 && w[0].GroupBy {
		keys := make(map[event.GroupKey]bool)
		for _, e := range stream {
			keys[e.Key] = true
		}
		if n := float64(len(keys)); n > 1 {
			for t := range rates {
				rates[t] /= n
			}
		}
	}
	return rates
}

func setupChunks(b *testing.B, nq, plen, events int, winLen int64) *benchSetup {
	b.Helper()
	wcfg := gen.WorkloadConfig{
		NumQueries: nq, PatternLen: plen,
		SharedChunks: 3, ChunkLen: 2 * plen / 5, ChunksPerQuery: 2, FillerPool: 20,
		UniquePatterns: nq / 2,
		Window:         winLen, Slide: winLen / 2,
		GroupBy: true, Seed: 1,
	}
	w, types := gen.GenWorkload(event.NewRegistry(), wcfg)
	stream := gen.StreamForWorkload(types, gen.NumHotTypes(wcfg), events, 20, 1000, 3, 1)
	rates := perGroupRates(stream, w)
	res, err := core.Optimize(w, rates, core.OptimizerOptions{
		Strategy:     core.StrategySharon,
		Expand:       true,
		ExpandConfig: core.ExpandConfig{MaxOptionsPerCandidate: 4, MaxTotalVertices: 512},
		Budget:       2 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	return &benchSetup{w: w, stream: stream, plan: res.Plan, rates: rates}
}

func runExecutor(b *testing.B, mk func() (exec.Executor, error), stream event.Stream) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := mk()
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range stream {
			if err := ex.Process(e); err != nil {
				b.Fatal(err)
			}
		}
		if err := ex.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(stream)) * 16)
}

// BenchmarkTable1Candidates regenerates Table 1: sharable-pattern
// detection (modified CCSpan) plus Sharon graph construction and the plan
// search on the paper's traffic workload.
func BenchmarkTable1Candidates(b *testing.B) {
	tr := gen.Traffic()
	rates := core.Rates{}
	for t := range tr.Workload.Types() {
		rates[t] = 10
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cands := core.FindCandidates(tr.Workload)
		if len(cands) != 7 {
			b.Fatalf("candidates = %d, want 7", len(cands))
		}
		model := core.NewCostModel(tr.Workload, rates)
		g := core.BuildGraph(model, cands)
		red := core.Reduce(g)
		core.SearchPlan(red.Reduced, red.ConflictFree, time.Time{})
	}
}

// BenchmarkFig13TwoStepVsOnline regenerates Figure 13 at one sweep point:
// the four executors on the same window contents. The two-step baselines'
// times explode with events/window; the online ones stay near-linear.
func BenchmarkFig13TwoStepVsOnline(b *testing.B) {
	const n = 600 // events per window: small enough for two-step baselines
	winLen := int64(n)
	wcfg := gen.WorkloadConfig{
		NumQueries: 6, PatternLen: 3,
		SharedChunks: 2, ChunkLen: 2, ChunksPerQuery: 1, FillerPool: 6,
		Window: winLen, Slide: winLen,
		Seed: 1,
	}
	w, types := gen.GenWorkload(event.NewRegistry(), wcfg)
	stream := gen.StreamForWorkload(types, 4, 3*n, 1, 1000, 2, 1)
	rates := perGroupRates(stream, w)
	res, err := core.Optimize(w, rates, core.OptimizerOptions{Strategy: core.StrategySharon, Expand: true, Budget: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	plan := res.Plan

	b.Run("Flink", func(b *testing.B) {
		runExecutor(b, func() (exec.Executor, error) { return exec.NewTwoStep(w, exec.Options{}) }, stream)
	})
	b.Run("SPASS", func(b *testing.B) {
		runExecutor(b, func() (exec.Executor, error) { return exec.NewSPASS(w, plan, exec.Options{}) }, stream)
	})
	b.Run("A-Seq", func(b *testing.B) {
		runExecutor(b, func() (exec.Executor, error) { return exec.NewEngine(w, nil, exec.Options{}) }, stream)
	})
	b.Run("Sharon", func(b *testing.B) {
		runExecutor(b, func() (exec.Executor, error) { return exec.NewEngine(w, plan, exec.Options{}) }, stream)
	})
}

// BenchmarkFig14EventsPerWindow regenerates Figure 14(a,e): the online
// approaches while the events per window grow.
func BenchmarkFig14EventsPerWindow(b *testing.B) {
	for _, n := range []int{5000, 20000} {
		s := setupChunks(b, 20, 10, 2*n, int64(n))
		b.Run("A-Seq/"+itoa(n), func(b *testing.B) {
			runExecutor(b, func() (exec.Executor, error) { return exec.NewEngine(s.w, nil, exec.Options{}) }, s.stream)
		})
		b.Run("Sharon/"+itoa(n), func(b *testing.B) {
			runExecutor(b, func() (exec.Executor, error) { return exec.NewEngine(s.w, s.plan, exec.Options{}) }, s.stream)
		})
	}
}

// BenchmarkFig14QueryCount regenerates Figure 14(b,f,d): the online
// approaches while the workload grows.
func BenchmarkFig14QueryCount(b *testing.B) {
	for _, nq := range []int{20, 60} {
		s := setupChunks(b, nq, 10, 12000, 6000)
		b.Run("A-Seq/"+itoa(nq), func(b *testing.B) {
			runExecutor(b, func() (exec.Executor, error) { return exec.NewEngine(s.w, nil, exec.Options{}) }, s.stream)
		})
		b.Run("Sharon/"+itoa(nq), func(b *testing.B) {
			runExecutor(b, func() (exec.Executor, error) { return exec.NewEngine(s.w, s.plan, exec.Options{}) }, s.stream)
		})
	}
}

// BenchmarkFig14PatternLength regenerates Figure 14(c,g,h): the online
// approaches while the pattern length grows.
func BenchmarkFig14PatternLength(b *testing.B) {
	for _, plen := range []int{10, 20} {
		s := setupChunks(b, 12, plen, 12000, 6000)
		b.Run("A-Seq/"+itoa(plen), func(b *testing.B) {
			runExecutor(b, func() (exec.Executor, error) { return exec.NewEngine(s.w, nil, exec.Options{}) }, s.stream)
		})
		b.Run("Sharon/"+itoa(plen), func(b *testing.B) {
			runExecutor(b, func() (exec.Executor, error) { return exec.NewEngine(s.w, s.plan, exec.Options{}) }, s.stream)
		})
	}
}

// BenchmarkFig15Optimizers regenerates Figure 15: the optimizer strategies
// on the conflict-rich corridor workload.
func BenchmarkFig15Optimizers(b *testing.B) {
	wcfg := gen.WorkloadConfig{
		Mode:       gen.ModeCorridor,
		NumQueries: 30, PatternLen: 8, CorridorLen: 10, SliceLen: 4,
		Window: 60000, Slide: 6000,
		GroupBy: true, Seed: 1,
	}
	w, types := gen.GenWorkload(event.NewRegistry(), wcfg)
	sample := gen.StreamForWorkload(types, gen.NumHotTypes(wcfg), 20000, 20, 3000, 3, 1)
	rates := perGroupRates(sample, w)
	expandCfg := core.ExpandConfig{MaxOptionsPerCandidate: 8, MaxTotalVertices: 512}

	b.Run("GO", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Optimize(w, rates, core.OptimizerOptions{Strategy: core.StrategyGreedy}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SO", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Optimize(w, rates, core.OptimizerOptions{
				Strategy: core.StrategySharon, Expand: true, ExpandConfig: expandCfg,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig16PlanQuality regenerates Figure 16: the executor guided by
// the greedy versus the optimal plan on the replicated traffic workload.
func BenchmarkFig16PlanQuality(b *testing.B) {
	const copies = 6 // 42 queries
	w, types, weights := gen.TrafficReplicas(event.NewRegistry(), copies)
	winLen := int64(4000)
	for i := range w {
		w[i].Window = query.Window{Length: winLen, Slide: winLen / 2}
	}
	stream := gen.Generate(gen.StreamConfig{
		Types: types, TypeWeights: weights,
		NumKeys: 20, Events: 8000,
		StartRate: 1000, EndRate: 1000, Seed: 1,
	})
	rates := core.Rates{}
	for i, t := range types {
		rates[t] = weights[i] * 1.5
	}
	greedy, err := core.Optimize(w, rates, core.OptimizerOptions{Strategy: core.StrategyGreedy})
	if err != nil {
		b.Fatal(err)
	}
	optimal, err := core.Optimize(w, rates, core.OptimizerOptions{Strategy: core.StrategySharon, Expand: true, Budget: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	if optimal.Score < greedy.Score {
		b.Fatalf("optimal score %v below greedy %v", optimal.Score, greedy.Score)
	}
	b.Run("GreedyPlan", func(b *testing.B) {
		runExecutor(b, func() (exec.Executor, error) { return exec.NewEngine(w, greedy.Plan, exec.Options{}) }, stream)
	})
	b.Run("OptimalPlan", func(b *testing.B) {
		runExecutor(b, func() (exec.Executor, error) { return exec.NewEngine(w, optimal.Plan, exec.Options{}) }, stream)
	})
}

// BenchmarkParallelThroughput sweeps the sharded parallel executor's
// worker count on a multi-query grouped workload (the group-hash
// sharding axis). workers=1 is the sequential engine baseline; on a
// multi-core machine the 4-worker run should sustain at least twice the
// single-thread throughput (on a single-core machine the sweep only
// measures dispatch overhead). Events are fed through FeedBatch, which
// hoists per-call checks; the executor batches events into shard
// messages internally on either entry point.
func BenchmarkParallelThroughput(b *testing.B) {
	s := setupChunks(b, 20, 10, 40000, 8000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var ex exec.Executor
				var err error
				if workers == 1 {
					ex, err = exec.NewEngine(s.w, s.plan, exec.Options{})
				} else {
					ex, err = exec.NewParallelEngine(s.w, s.plan, workers, exec.Options{})
				}
				if err != nil {
					b.Fatal(err)
				}
				type batcher interface{ FeedBatch([]event.Event) error }
				if f, ok := ex.(batcher); ok {
					if err := f.FeedBatch(s.stream); err != nil {
						b.Fatal(err)
					}
				} else {
					for _, e := range s.stream {
						if err := ex.Process(e); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := ex.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(s.stream)) * 16)
		})
	}
}

// BenchmarkAggregatorProcess measures the core online aggregation hot path
// in isolation (not a paper figure; ablation reference).
func BenchmarkAggregatorProcess(b *testing.B) {
	s := setupChunks(b, 1, 6, 20000, 5000)
	b.Run("single-query", func(b *testing.B) {
		runExecutor(b, func() (exec.Executor, error) { return exec.NewEngine(s.w, nil, exec.Options{}) }, s.stream)
	})
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
