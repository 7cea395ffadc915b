// Command sharon-opt runs the Sharon optimizer on a workload and prints
// the sharable patterns, the Sharon graph, the reduction statistics, and
// the chosen sharing plan, comparing the Sharon, greedy, and (when
// feasible) exhaustive strategies.
//
// Workloads come either from a file of queries (one per line, SASE-style
// syntax; lines starting with # are comments) or from the built-in paper
// workloads:
//
//	sharon-opt -workload traffic
//	sharon-opt -workload purchases
//	sharon-opt -file queries.txt -rates "OakSt=20,MainSt=45"
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/gen"
	"github.com/sharon-project/sharon/internal/query"
)

func main() {
	var (
		workload = flag.String("workload", "traffic", "built-in workload: traffic or purchases")
		file     = flag.String("file", "", "file with one query per line (overrides -workload)")
		ratesArg = flag.String("rates", "", "comma-separated Type=rate pairs (default: uniform 10/s)")
		budget   = flag.Duration("budget", 10*time.Second, "plan search time budget")
		expand   = flag.Bool("expand", true, "apply §7.1 conflict-resolution expansion")
	)
	flag.Parse()

	reg, w, err := loadWorkload(*workload, *file)
	if err != nil {
		fatal(err)
	}
	rates, err := loadRates(*ratesArg, reg, w)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("workload: %d queries\n", len(w))
	for _, q := range w {
		fmt.Printf("  %-4s %s\n", q.Label()+":", q.Format(reg))
	}

	cands := core.FindCandidates(w)
	fmt.Printf("\nsharable patterns (modified CCSpan, Appendix A): %d\n", len(cands))
	for _, c := range cands {
		fmt.Printf("  %s\n", c.Format(reg, w))
	}

	model := core.NewCostModel(w, rates)
	g := core.BuildGraph(model, cands)
	fmt.Printf("\nSharon graph: %d beneficial candidates, %d conflicts\n", g.NumVertices(), g.NumEdges())
	fmt.Print(g.Format(reg, w))
	fmt.Printf("GWMIN guaranteed weight (Eq. 10): %.4g\n", g.GuaranteedWeight())

	for _, strat := range []core.Strategy{core.StrategyGreedy, core.StrategySharon, core.StrategyExhaustive} {
		opts := core.OptimizerOptions{Strategy: strat, Expand: *expand && strat != core.StrategyGreedy, Budget: *budget}
		if strat == core.StrategyExhaustive && g.NumVertices() > 22 {
			fmt.Printf("\n%-10s: skipped (graph too large for subset enumeration)\n", strat)
			continue
		}
		res, err := core.Optimize(w, rates, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%-10s: score=%.4g elapsed=%v\n", strat, res.Score, res.TotalElapsed.Round(time.Microsecond))
		for _, ph := range res.Phases {
			fmt.Printf("  phase %-7s %10v  (%d entries)\n", ph.Name, ph.Elapsed.Round(time.Microsecond), ph.LiveStates)
		}
		if strat == core.StrategySharon {
			fmt.Printf("  reduction: %d conflict-ridden pruned, %d conflict-free; search: %d nodes, gap %.4g (timed out: %v)\n",
				res.PrunedConflictRidden, res.ConflictFree, res.FinderStats.PlansConsidered, res.FinderStats.Gap, res.FinderStats.TimedOut)
		}
		fmt.Printf("  plan: %s\n", res.Plan.Format(reg, w))
	}
}

func loadWorkload(name, file string) (*event.Registry, query.Workload, error) {
	if file != "" {
		reg := event.NewRegistry()
		f, err := os.Open(file)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		var w query.Workload
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			q, err := query.Parse(text, reg)
			if err != nil {
				return nil, nil, fmt.Errorf("%s:%d: %w", file, line, err)
			}
			w = append(w, q)
		}
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
		w.Renumber()
		return reg, w, nil
	}
	switch name {
	case "traffic":
		tr := gen.Traffic()
		return tr.Reg, tr.Workload, nil
	case "purchases":
		pw := gen.Purchases()
		return pw.Reg, pw.Workload, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want traffic or purchases)", name)
}

func loadRates(arg string, reg *event.Registry, w query.Workload) (core.Rates, error) {
	rates := core.Rates{}
	for t := range w.Types() {
		rates[t] = 10
	}
	if arg == "" {
		return rates, nil
	}
	for _, pair := range strings.Split(arg, ",") {
		kv := strings.SplitN(strings.TrimSpace(pair), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad rate %q (want Type=rate)", pair)
		}
		t := reg.Lookup(kv[0])
		if t == event.NoType {
			return nil, fmt.Errorf("unknown event type %q", kv[0])
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate value %q: %w", kv[1], err)
		}
		rates[t] = v
	}
	return rates, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sharon-opt:", err)
	os.Exit(1)
}
