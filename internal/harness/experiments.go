package harness

import (
	"fmt"
	"strings"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/exec"
	"github.com/sharon-project/sharon/internal/gen"
	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/query"
)

// Config scales the experiments. Scale = 1 reproduces the paper's shapes
// at roughly one tenth of the paper's absolute stream sizes (so a full
// suite finishes in minutes on a laptop); Scale = 10 matches the paper's
// event counts. EXPERIMENTS.md records the mapping per experiment.
type Config struct {
	// Scale multiplies stream sizes (default 1).
	Scale float64
	// Seed drives all generators (default 1).
	Seed int64
	// Verbose prints progress to the writer set by the caller.
	Progress func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Progress == nil {
		c.Progress = func(string, ...any) {}
	}
}

func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// ratesOf measures per-type rates from a stream sample for the optimizer.
// With GROUP-BY workloads the executor partitions the stream and runs one
// aggregator per group, so the cost model must see per-group rates: the
// non-shared cost is quadratic in the rate while the combination overhead
// is cubic (Eq. 2 vs Eq. 5), and global rates would overestimate the
// latter by the group count.
func ratesOf(stream event.Stream, w query.Workload) core.Rates {
	rates := core.Rates(stream.Rates())
	if len(w) == 0 || !w[0].GroupBy {
		return rates
	}
	keys := make(map[event.GroupKey]bool)
	for _, e := range stream {
		keys[e.Key] = true
	}
	if n := float64(len(keys)); n > 1 {
		for t := range rates {
			rates[t] /= n
		}
	}
	return rates
}

// optimalPlan runs the Sharon optimizer (with conflict resolution) and
// returns its plan. The executor experiments bound the optimizer —
// expansion options and plan-search time — because their subject is the
// executor; the optimizer's own cost is Figure 15's subject.
func optimalPlan(w query.Workload, rates core.Rates) (core.Plan, error) {
	res, err := core.Optimize(w, rates, core.OptimizerOptions{
		Strategy:     core.StrategySharon,
		Expand:       true,
		ExpandConfig: core.ExpandConfig{MaxOptionsPerCandidate: 4, MaxTotalVertices: 1024},
		Budget:       2 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// --- Table 1 -------------------------------------------------------------

// Table1 reproduces Table 1 and the Figure 4 analysis on the paper's
// traffic workload: the sharing candidates, the Sharon graph with the
// paper's weights, the GWMIN guaranteed weight, and the optimal vs greedy
// plans of Examples 7–12.
func Table1(cfg Config) (string, error) {
	cfg.fill()
	tr := gen.Traffic()
	var b strings.Builder

	cands := core.FindCandidates(tr.Workload)
	fmt.Fprintf(&b, "Table 1 — sharing candidates of the traffic workload Q (q1..q7)\n")
	rows := [][]string{{"pattern p", "queries Qp"}}
	for _, c := range cands {
		names := make([]string, len(c.Queries))
		for i, id := range c.Queries {
			names[i] = tr.Workload[id].Label()
		}
		rows = append(rows, []string{c.Pattern.Format(tr.Reg), strings.Join(names, ", ")})
	}
	writeAligned(&b, rows)

	// Figure 4 graph with the paper's benefit values.
	paperCands := make([]core.Candidate, len(tr.Patterns))
	for i, p := range tr.Patterns {
		var qs []int
		for _, q := range tr.Workload {
			if q.Pattern.Contains(p) {
				qs = append(qs, q.ID)
			}
		}
		paperCands[i] = core.NewCandidate(p, qs)
	}
	g := core.BuildGraphWithWeights(tr.Workload, paperCands, tr.Weights)
	fmt.Fprintf(&b, "\nFigure 4 — Sharon graph (paper weights)\n%s", g.Format(tr.Reg, tr.Workload))
	fmt.Fprintf(&b, "GWMIN guaranteed weight (Eq. 10): %.2f\n", g.GuaranteedWeight())

	red := core.Reduce(g)
	fmt.Fprintf(&b, "reduction: %d conflict-ridden pruned, %d conflict-free fast-pathed, %d vertices remain\n",
		red.PrunedConflictRidden, len(red.ConflictFree), red.Reduced.NumVertices())

	plan, score, stats := core.SearchPlan(red.Reduced, red.ConflictFree, time.Time{})
	fmt.Fprintf(&b, "optimal plan (Example 10): %s  score=%.0f  (%d search nodes)\n",
		plan.Format(tr.Reg, tr.Workload), score, stats.PlansConsidered)

	set := core.GWMIN(g)
	fmt.Fprintf(&b, "greedy plan  (Example 12): %s  score=%.0f\n",
		g.PlanOf(set).Format(tr.Reg, tr.Workload), g.SetWeight(set))
	return b.String(), nil
}

// --- Figure 13 -----------------------------------------------------------

// Fig13 compares the two-step baselines (Flink-style TwoStep, SPASS)
// against the online approaches (A-Seq, Sharon) while the number of
// events per window grows. Two-step latency explodes and the executors
// stop terminating (DNF) within the sweep, while the online approaches
// stay flat — the paper's Figure 13.
func Fig13(cfg Config) ([]Figure, error) {
	cfg.fill()
	latency := Figure{ID: "fig13a", Title: "Two-step vs online (Linear Road)", XLabel: "events/window", YLabel: "latency ms/window"}
	throughput := Figure{ID: "fig13b", Title: "Two-step vs online (Linear Road)", XLabel: "events/window", YLabel: "throughput events/s"}
	series := []string{"Flink", "SPASS", "A-Seq", "Sharon"}
	lat := make(map[string]*[]Point)
	thr := make(map[string]*[]Point)
	for _, s := range series {
		latency.Series = append(latency.Series, Series{Name: s})
		throughput.Series = append(throughput.Series, Series{Name: s})
	}
	for i := range latency.Series {
		lat[latency.Series[i].Name] = &latency.Series[i].Points
		thr[throughput.Series[i].Name] = &throughput.Series[i].Points
	}

	for _, n := range []int{1000, 2000, 3000, 4000, 5000, 6000, 7000} {
		n = cfg.scaled(n)
		winLen := int64(n) // at 1000 ev/s and 1000 ticks/s: N events per window
		wl, types := gen.GenWorkload(nil2reg(), gen.WorkloadConfig{
			NumQueries: 6, PatternLen: 3,
			SharedChunks: 2, ChunkLen: 2, ChunksPerQuery: 1, FillerPool: 6,
			Window: winLen, Slide: winLen, // tumbling: events/window == n
			Seed: cfg.Seed,
		})
		stream := gen.StreamForWorkload(types, 4, 3*n, 1, 1000, 2, cfg.Seed)
		rates := ratesOf(stream, wl)
		plan, err := optimalPlan(wl, rates)
		if err != nil {
			return nil, err
		}
		// Work budget per window: large enough that the two-step
		// executors finish the low-rate points, small enough that the
		// exponential points abort in seconds instead of the paper's
		// 41 minutes per window.
		const fig13Cap = 32 << 20
		runs := []struct {
			name string
			mk   func() (exec.Executor, error)
		}{
			{"Flink", func() (exec.Executor, error) {
				ts, err := exec.NewTwoStep(wl, exec.Options{})
				if ts != nil {
					ts.Cap = fig13Cap
				}
				return ts, err
			}},
			{"SPASS", func() (exec.Executor, error) {
				sp, err := exec.NewSPASS(wl, plan, exec.Options{})
				if sp != nil {
					sp.Cap = fig13Cap
				}
				return sp, err
			}},
			{"A-Seq", func() (exec.Executor, error) { return exec.NewEngine(wl, nil, exec.Options{}) }},
			{"Sharon", func() (exec.Executor, error) { return exec.NewEngine(wl, plan, exec.Options{}) }},
		}
		for _, r := range runs {
			ex, err := r.mk()
			if err != nil {
				return nil, err
			}
			stats, err := RunWindowed(ex, stream, winLen, winLen)
			if err != nil {
				return nil, fmt.Errorf("fig13 %s n=%d: %w", r.name, n, err)
			}
			cfg.Progress("fig13 n=%d %s", n, stats)
			*lat[r.name] = append(*lat[r.name], Point{X: float64(n), Y: stats.LatencyMs(), DNF: stats.DNF})
			*thr[r.name] = append(*thr[r.name], Point{X: float64(n), Y: stats.Throughput(), DNF: stats.DNF})
		}
	}
	return []Figure{latency, throughput}, nil
}

func nil2reg() *event.Registry { return event.NewRegistry() }

// --- Figure 14 -----------------------------------------------------------

// fig14Run measures A-Seq and Sharon on one configuration.
func fig14Run(wl query.Workload, stream event.Stream, winLen, slide int64) (aseq, sharon metrics.RunStats, err error) {
	rates := ratesOf(stream, wl)
	plan, err := optimalPlan(wl, rates)
	if err != nil {
		return aseq, sharon, err
	}
	ea, err := exec.NewEngine(wl, nil, exec.Options{})
	if err != nil {
		return aseq, sharon, err
	}
	aseq, err = RunWindowed(ea, stream, winLen, slide)
	if err != nil {
		return aseq, sharon, err
	}
	es, err := exec.NewEngine(wl, plan, exec.Options{})
	if err != nil {
		return aseq, sharon, err
	}
	sharon, err = RunWindowed(es, stream, winLen, slide)
	return aseq, sharon, err
}

func twoSeries(id, title, x, y string) Figure {
	return Figure{ID: id, Title: title, XLabel: x, YLabel: y,
		Series: []Series{{Name: "A-Seq"}, {Name: "Sharon"}}}
}

func appendPair(f *Figure, x float64, a, s float64) {
	f.Series[0].Points = append(f.Series[0].Points, Point{X: x, Y: a})
	f.Series[1].Points = append(f.Series[1].Points, Point{X: x, Y: s})
}

// Fig14EventsPerWindow reproduces Fig. 14(a,e): latency and throughput of
// the online approaches on the taxi stand-in while events per window grow
// from 200k to 1.2M (scaled by Config.Scale/10 by default — see
// EXPERIMENTS.md).
func Fig14EventsPerWindow(cfg Config) ([]Figure, error) {
	cfg.fill()
	latF := twoSeries("fig14a", "Online approaches (Taxi)", "events/window", "latency ms/window")
	thrF := twoSeries("fig14e", "Online approaches (Taxi)", "events/window", "throughput events/s")
	for _, base := range []int{200000, 400000, 600000, 800000, 1000000, 1200000} {
		n := cfg.scaled(base / 10)
		winLen := int64(n) // 1000 ev/s at ms ticks: n events per window
		wcfg := gen.WorkloadConfig{
			NumQueries: 20, PatternLen: 10,
			SharedChunks: 3, ChunkLen: 4, ChunksPerQuery: 2, FillerPool: 20,
			DuplicateFraction: 0.5,
			Window:            winLen, Slide: winLen / 2,
			GroupBy: true, Seed: cfg.Seed,
		}
		wl, types := gen.GenWorkload(nil2reg(), wcfg)
		stream := gen.StreamForWorkload(types, gen.NumHotTypes(wcfg), 2*n, 50, 1000, 3, cfg.Seed)
		a, s, err := fig14Run(wl, stream, winLen, winLen/2)
		if err != nil {
			return nil, fmt.Errorf("fig14ae n=%d: %w", base, err)
		}
		cfg.Progress("fig14ae n=%d\n  %s\n  %s", base, a, s)
		appendPair(&latF, float64(base), a.LatencyMs(), s.LatencyMs())
		appendPair(&thrF, float64(base), a.Throughput(), s.Throughput())
	}
	return []Figure{latF, thrF}, nil
}

// Fig14QueryCount reproduces Fig. 14(b,f,d): latency, throughput, and peak
// memory of the online approaches on the Linear Road stand-in while the
// workload grows from 20 to 120 queries.
func Fig14QueryCount(cfg Config) ([]Figure, error) {
	cfg.fill()
	latF := twoSeries("fig14b", "Online approaches (Linear Road)", "queries", "latency ms/window")
	thrF := twoSeries("fig14f", "Online approaches (Linear Road)", "queries", "throughput events/s")
	memF := twoSeries("fig14d", "Online approaches (Linear Road)", "queries", "peak memory bytes")
	n := cfg.scaled(20000)
	winLen := int64(n)
	for _, nq := range []int{20, 40, 60, 80, 100, 120} {
		// A fixed street grid with a growing subscriber population: the
		// unique-pattern pool grows sublinearly with the workload, so the
		// sharing degree — and Sharon's advantage — grows with it
		// (paper: 5-fold at 20 queries to 18-fold at 120).
		unique := nq / 6
		if unique < 8 {
			unique = 8
		}
		wcfg := gen.WorkloadConfig{
			NumQueries: nq, PatternLen: 10,
			SharedChunks: 3, ChunkLen: 4, ChunksPerQuery: 2, FillerPool: 20,
			UniquePatterns: unique,
			Window:         winLen, Slide: winLen / 2,
			GroupBy: true, Seed: cfg.Seed,
		}
		wl, types := gen.GenWorkload(nil2reg(), wcfg)
		stream := gen.StreamForWorkload(types, gen.NumHotTypes(wcfg), 2*n, 50, 1000, 3, cfg.Seed)
		a, s, err := fig14Run(wl, stream, winLen, winLen/2)
		if err != nil {
			return nil, fmt.Errorf("fig14bfd nq=%d: %w", nq, err)
		}
		cfg.Progress("fig14bfd nq=%d\n  %s\n  %s", nq, a, s)
		appendPair(&latF, float64(nq), a.LatencyMs(), s.LatencyMs())
		appendPair(&thrF, float64(nq), a.Throughput(), s.Throughput())
		appendPair(&memF, float64(nq), float64(a.MemoryBytes()), float64(s.MemoryBytes()))
	}
	return []Figure{latF, thrF, memF}, nil
}

// Fig14PatternLength reproduces Fig. 14(c,g,h): latency, throughput, and
// peak memory of the online approaches on the e-commerce stand-in while
// the pattern length grows from 10 to 30.
func Fig14PatternLength(cfg Config) ([]Figure, error) {
	cfg.fill()
	latF := twoSeries("fig14c", "Online approaches (E-commerce)", "pattern length", "latency ms/window")
	thrF := twoSeries("fig14g", "Online approaches (E-commerce)", "pattern length", "throughput events/s")
	memF := twoSeries("fig14h", "Online approaches (E-commerce)", "pattern length", "peak memory bytes")
	n := cfg.scaled(20000)
	winLen := int64(n)
	for _, plen := range []int{10, 15, 20, 25, 30} {
		wcfg := gen.WorkloadConfig{
			NumQueries: 20, PatternLen: plen,
			SharedChunks: 3, ChunkLen: 2 * plen / 5, ChunksPerQuery: 2, FillerPool: 20,
			DuplicateFraction: 0.5,
			Window:            winLen, Slide: winLen / 2,
			GroupBy: true, Seed: cfg.Seed,
		}
		wl, types := gen.GenWorkload(nil2reg(), wcfg)
		stream := gen.StreamForWorkload(types, gen.NumHotTypes(wcfg), 2*n, 20, 1000, 3, cfg.Seed)
		a, s, err := fig14Run(wl, stream, winLen, winLen/2)
		if err != nil {
			return nil, fmt.Errorf("fig14cgh plen=%d: %w", plen, err)
		}
		cfg.Progress("fig14cgh plen=%d\n  %s\n  %s", plen, a, s)
		appendPair(&latF, float64(plen), a.LatencyMs(), s.LatencyMs())
		appendPair(&thrF, float64(plen), a.Throughput(), s.Throughput())
		appendPair(&memF, float64(plen), float64(a.MemoryBytes()), float64(s.MemoryBytes()))
	}
	return []Figure{latF, thrF, memF}, nil
}

// --- Figure 15 -----------------------------------------------------------

// exhaustiveVertexLimit bounds the exhaustive optimizer: beyond ~2^24
// subsets it "fails to terminate", as the paper reports for >20 queries.
const exhaustiveVertexLimit = 24

// Fig15 reproduces Fig. 15(a,b): optimizer latency (per phase) and peak
// memory for the greedy (GO), Sharon (SO), and exhaustive (EO) optimizers
// as the e-commerce workload grows. EO is reported DNF once its expanded
// graph exceeds the subset-enumeration limit.
func Fig15(cfg Config) ([]Figure, error) {
	cfg.fill()
	latF := Figure{ID: "fig15a", Title: "Optimizer latency (E-commerce workload)", XLabel: "queries", YLabel: "latency ms",
		Series: []Series{{Name: "GO"}, {Name: "SO"}, {Name: "EO"}}}
	memF := Figure{ID: "fig15b", Title: "Optimizer memory (E-commerce workload)", XLabel: "queries", YLabel: "peak entries",
		Series: []Series{{Name: "GO"}, {Name: "SO"}, {Name: "EO"}}}
	phasesF := Figure{ID: "fig15a-phases", Title: "Sharon optimizer phase breakdown", XLabel: "queries", YLabel: "latency ms",
		Series: []Series{{Name: "graph"}, {Name: "expand"}, {Name: "reduce"}, {Name: "find"}}}

	for _, nq := range []int{10, 20, 30, 40, 50, 60, 70} {
		wcfg := gen.WorkloadConfig{
			Mode:       gen.ModeCorridor,
			NumQueries: nq, PatternLen: 8, CorridorLen: 10, SliceLen: 4,
			Window: 60000, Slide: 6000,
			GroupBy: true, Seed: cfg.Seed,
		}
		wl, types := gen.GenWorkload(nil2reg(), wcfg)
		// Rates from a small stream sample.
		sample := gen.StreamForWorkload(types, gen.NumHotTypes(wcfg), 20000, 20, 3000, 3, cfg.Seed)
		rates := ratesOf(sample, wl)

		// The §7.1 expansion is exponential (Eq. 14); all strategies that
		// expand share one cap so their phases stay comparable.
		expandCfg := core.ExpandConfig{MaxOptionsPerCandidate: 8, MaxTotalVertices: 512}
		for i, strat := range []core.Strategy{core.StrategyGreedy, core.StrategySharon, core.StrategyExhaustive} {
			opts := core.OptimizerOptions{Strategy: strat, Expand: strat != core.StrategyGreedy, ExpandConfig: expandCfg}
			if strat == core.StrategyExhaustive {
				// Check feasibility first: build + expand only.
				pre, err := core.Optimize(wl, rates, core.OptimizerOptions{Strategy: core.StrategySharon, Expand: true, ExpandConfig: expandCfg})
				if err != nil {
					return nil, err
				}
				verts := pre.ExpandedVertices
				if verts == 0 {
					verts = pre.GraphVertices
				}
				if verts > exhaustiveVertexLimit {
					latF.Series[i].Points = append(latF.Series[i].Points, Point{X: float64(nq), DNF: true})
					memF.Series[i].Points = append(memF.Series[i].Points, Point{X: float64(nq), DNF: true})
					cfg.Progress("fig15 nq=%d EO: DNF (%d expanded candidates)", nq, verts)
					continue
				}
			}
			res, err := core.Optimize(wl, rates, opts)
			if err != nil {
				return nil, fmt.Errorf("fig15 nq=%d %v: %w", nq, strat, err)
			}
			cfg.Progress("fig15 nq=%d %v: %v score=%.3g plan=%d cand (graph %dv/%de)",
				nq, strat, res.TotalElapsed.Round(time.Microsecond), res.Score, len(res.Plan), res.GraphVertices, res.GraphEdges)
			latF.Series[i].Points = append(latF.Series[i].Points, Point{X: float64(nq), Y: float64(res.TotalElapsed.Microseconds()) / 1000})
			memF.Series[i].Points = append(memF.Series[i].Points, Point{X: float64(nq), Y: float64(res.PeakLiveStates)})
			if strat == core.StrategySharon {
				for pi, name := range []string{"graph", "expand", "reduce", "find"} {
					d := res.PhaseDuration(name)
					phasesF.Series[pi].Points = append(phasesF.Series[pi].Points,
						Point{X: float64(nq), Y: float64(d.Microseconds()) / 1000})
				}
			}
		}
	}
	return []Figure{latF, memF, phasesF}, nil
}

// --- Figure 16 -----------------------------------------------------------

// Fig16 reproduces Fig. 16: executor latency and memory when guided by a
// greedily chosen plan versus an optimal plan, on the taxi stand-in, as
// the workload grows.
func Fig16(cfg Config) ([]Figure, error) {
	cfg.fill()
	latF := Figure{ID: "fig16-latency", Title: "Plan quality (Taxi)", XLabel: "queries", YLabel: "latency ms/window",
		Series: []Series{{Name: "Greedy plan"}, {Name: "Optimal plan"}}}
	memF := Figure{ID: "fig16-memory", Title: "Plan quality (Taxi)", XLabel: "queries", YLabel: "peak memory bytes",
		Series: []Series{{Name: "Greedy plan"}, {Name: "Optimal plan"}}}
	n := cfg.scaled(5000)
	winLen := int64(n)
	// 7 queries per city neighborhood: 21..182 queries (paper: 20..180).
	// Street popularity is skewed so the greedy optimizer repeats
	// Example 12's mistake in every neighborhood.
	for _, copies := range []int{3, 9, 15, 21, 26} {
		nq := 7 * copies
		wl, types, weights := gen.TrafficReplicas(nil2reg(), copies)
		for i := range wl {
			wl[i].Window = query.Window{Length: winLen, Slide: winLen / 2}
		}
		stream := gen.Generate(gen.StreamConfig{
			Types: types, TypeWeights: weights,
			NumKeys: 50, Events: 2 * n,
			StartRate: 1000, EndRate: 1000,
			Seed: cfg.Seed,
		})
		// The optimizer sees each neighborhood's peak-hour rate profile
		// (constant across city sizes) rather than the diluted city-wide
		// average: plan quality is decided by the per-neighborhood weight
		// structure, which is what the paper's Example 12 exercises.
		rates := core.Rates{}
		for i, t := range types {
			rates[t] = weights[i] * 1.5
		}

		greedy, err := core.Optimize(wl, rates, core.OptimizerOptions{Strategy: core.StrategyGreedy})
		if err != nil {
			return nil, err
		}
		optimal, err := core.Optimize(wl, rates, core.OptimizerOptions{Strategy: core.StrategySharon, Expand: true, Budget: 10 * time.Second})
		if err != nil {
			return nil, err
		}
		cfg.Progress("fig16 nq=%d greedy score=%.4g optimal score=%.4g", nq, greedy.Score, optimal.Score)
		for i, plan := range []core.Plan{greedy.Plan, optimal.Plan} {
			// Repeat and keep the fastest run; the absolute times are
			// small enough that scheduler noise would otherwise dominate.
			var stats metrics.RunStats
			for rep := 0; rep < 3; rep++ {
				ex, err := exec.NewEngine(wl, plan, exec.Options{})
				if err != nil {
					return nil, err
				}
				s, err := RunWindowed(ex, stream, winLen, winLen/2)
				if err != nil {
					return nil, fmt.Errorf("fig16 nq=%d: %w", nq, err)
				}
				if rep == 0 || s.Elapsed < stats.Elapsed {
					stats = s
				}
			}
			cfg.Progress("fig16 nq=%d plan=%d: %s", nq, i, stats)
			latF.Series[i].Points = append(latF.Series[i].Points, Point{X: float64(nq), Y: stats.LatencyMs()})
			memF.Series[i].Points = append(memF.Series[i].Points, Point{X: float64(nq), Y: float64(stats.MemoryBytes())})
		}
	}
	return []Figure{latF, memF}, nil
}

// All runs every experiment and returns the formatted report.
func All(cfg Config) (string, error) {
	cfg.fill()
	var b strings.Builder
	t1, err := Table1(cfg)
	if err != nil {
		return "", err
	}
	b.WriteString(t1)
	b.WriteString("\n")
	for _, f := range []func(Config) ([]Figure, error){
		Fig13, Fig14EventsPerWindow, Fig14QueryCount, Fig14PatternLength, Fig15, Fig16,
	} {
		figs, err := f(cfg)
		if err != nil {
			return "", err
		}
		for _, fig := range figs {
			b.WriteString(fig.Format())
			b.WriteString("\n")
		}
	}
	return b.String(), nil
}

// Experiments maps experiment ids to their runners, for the CLI.
var Experiments = map[string]func(Config) ([]Figure, error){
	"fig13":    Fig13,
	"fig14ae":  Fig14EventsPerWindow,
	"fig14bf":  Fig14QueryCount,
	"fig14cg":  Fig14PatternLength,
	"fig15":    Fig15,
	"fig16":    Fig16,
	"parallel": ParallelScaling,
}
