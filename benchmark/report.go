package main

import (
	"context"
	"fmt"
	"math"
	"os"
)

// report is the full run a person starts: every selected workload end to
// end, then traced, every metric printed by name with its unit. With
// -repeat N the end-to-end set runs N times and the runs are compared
// against the bounds; any failed operation, and any pair of runs further
// apart than a metric's bound, makes the exit status non-zero.
func (b *bench) report(ctx context.Context) error {
	selected := specs
	if b.o.workload != "" {
		s, err := specByName(b.o.workload)
		if err != nil {
			return err
		}
		selected = []spec{s}
	}
	failed := 0
	runs := make([]map[string]*outcome, b.o.repeat)
	if b.o.trace != "1" {
		for rep := range runs {
			runs[rep] = map[string]*outcome{}
			for _, s := range selected {
				o, err := b.runOne(ctx, s, false)
				if err != nil {
					return err
				}
				fmt.Printf("run %d, seed %d, end to end\n", rep+1, b.o.seed)
				printMetrics(os.Stdout, s.name, o, endToEnd)
				runs[rep][s.name] = o
				failed += o.Failed
			}
		}
	}
	if b.o.repeat > 1 {
		failed += compareRuns(selected, runs)
	}
	if b.o.trace != "0" {
		for _, s := range selected {
			o, err := b.runOne(ctx, s, true)
			if err != nil {
				return err
			}
			fmt.Printf("seed %d, traced\n", b.o.seed)
			printMetrics(os.Stdout, s.name, o, perLayer)
			failed += o.Failed
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d failures", failed)
	}
	return nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func (m metric) worsening(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.lower {
		return (b - a) / math.Abs(a)
	}
	return (a - b) / math.Abs(a)
}

// compareRuns prints, for every end-to-end metric of every workload, the
// value of each run, the widest disagreement between two runs and the
// bound, and counts the metrics whose runs disagree by more than it.
func compareRuns(selected []spec, runs []map[string]*outcome) (over int) {
	fmt.Println("repeatability: every pair of runs against each metric's bound")
	for _, s := range selected {
		for _, m := range endToEnd {
			var vals []float64
			worst := 0.0
			for _, run := range runs {
				vals = append(vals, run[s.name].Metrics[m.name])
			}
			for _, a := range vals {
				for _, c := range vals {
					worst = math.Max(worst, m.worsening(a, c))
				}
			}
			verdict := "ok"
			if worst > m.bound {
				verdict = "OVER BOUND"
				over++
			}
			fmt.Printf("  %-14s %-20s %v  diff %.4f  bound %.2f  %s\n", s.name, m.name, vals, worst, m.bound, verdict)
		}
	}
	return over
}
