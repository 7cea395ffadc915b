// Ablation benchmarks for the optimizer's design choices called out in
// DESIGN.md: the GWMIN-bound graph reduction (§5), the branch-and-bound
// plan search vs. exhaustive enumeration (§6), and the conflict-resolution
// expansion (§7.1). Each pair isolates one mechanism
// on the same input.
package sharon_test

import (
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/exec"
	"github.com/sharon-project/sharon/internal/gen"
)

// ablationGraph builds the conflict-rich corridor graph used by all
// optimizer ablations.
func ablationGraph(b *testing.B, nq int) (*core.Graph, *core.CostModel) {
	b.Helper()
	wcfg := gen.WorkloadConfig{
		Mode:       gen.ModeCorridor,
		NumQueries: nq, PatternLen: 8, CorridorLen: 10, SliceLen: 4,
		Window: 60000, Slide: 6000,
		GroupBy: true, Seed: 1,
	}
	w, types := gen.GenWorkload(event.NewRegistry(), wcfg)
	sample := gen.StreamForWorkload(types, gen.NumHotTypes(wcfg), 20000, 20, 3000, 3, 1)
	rates := perGroupRates(sample, w)
	model := core.NewCostModel(w, rates)
	g := core.BuildGraph(model, core.FindCandidates(w))
	if g.NumVertices() < 8 {
		b.Fatalf("ablation graph too small: %d vertices", g.NumVertices())
	}
	return g, model
}

// BenchmarkAblationReduction compares the plan search with and without
// the §5 GWMIN-bound reduction on the same graph.
func BenchmarkAblationReduction(b *testing.B) {
	g, _ := ablationGraph(b, 40)
	b.Run("with-reduction", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			red := core.Reduce(g)
			_, score, _ := core.SearchPlan(red.Reduced, red.ConflictFree, time.Time{})
			if score <= 0 {
				b.Fatal("no plan")
			}
		}
	})
	b.Run("without-reduction", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, score, _ := core.SearchPlan(g, nil, time.Time{})
			if score <= 0 {
				b.Fatal("no plan")
			}
		}
	})
}

// BenchmarkAblationPlanFinderVsExhaustive compares the clique-bounded
// branch and bound (§6) against full subset enumeration.
func BenchmarkAblationPlanFinderVsExhaustive(b *testing.B) {
	g, _ := ablationGraph(b, 40)
	if g.NumVertices() > 22 {
		b.Skipf("graph has %d vertices; exhaustive ablation needs <= 22", g.NumVertices())
	}
	b.Run("plan-finder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.SearchPlan(g, nil, time.Time{})
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.ExhaustivePlanSearch(g)
		}
	})
}

// BenchmarkAblationExpansion measures the cost and the score gain of the
// §7.1 conflict-resolution expansion.
func BenchmarkAblationExpansion(b *testing.B) {
	g, model := ablationGraph(b, 40)
	cfg := core.ExpandConfig{MaxOptionsPerCandidate: 8, MaxTotalVertices: 512}

	b.Run("without-expansion", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			red := core.Reduce(g)
			core.SearchPlan(red.Reduced, red.ConflictFree, time.Time{})
		}
	})
	b.Run("with-expansion", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eg := model.Expand(g, cfg)
			red := core.Reduce(eg)
			core.SearchPlan(red.Reduced, red.ConflictFree, time.Time{})
		}
	})
}

// BenchmarkAblationSharedVsNonShared quantifies the shared executor's
// snapshot-based combination against the non-shared engine on a
// duplicate-heavy workload: the difference is the paper's
// count-combination overhead (Eq. 5) versus repeated computation (Eq. 3).
func BenchmarkAblationSharedVsNonShared(b *testing.B) {
	s := setupChunks(b, 24, 10, 16000, 8000)
	b.Run("shared", func(b *testing.B) {
		runExecutor(b, func() (exec.Executor, error) { return exec.NewEngine(s.w, s.plan, exec.Options{}) }, s.stream)
	})
	b.Run("non-shared", func(b *testing.B) {
		runExecutor(b, func() (exec.Executor, error) { return exec.NewEngine(s.w, nil, exec.Options{}) }, s.stream)
	})
}
