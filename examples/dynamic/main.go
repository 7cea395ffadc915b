// Dynamic re-optimization (paper §7.4): the stream's hot corridor shifts
// at runtime, flipping which of two *conflicting* sharing candidates is
// beneficial. q1's pattern contains both (OakSt, MainSt) and (MainSt,
// WestSt), which overlap at MainSt — the executor can share only one of
// them (Definition 6). While Oak-side traffic dominates, sharing
// (OakSt, MainSt) with q2 wins; when the rush moves to the Park/West
// side, sharing (MainSt, WestSt) with q3 wins. With Options.Dynamic set
// the system detects the rate drift, re-optimizes, and migrates plans
// mid-stream without losing or corrupting any window result.
//
// Run:
//
//	go run ./examples/dynamic
package main

import (
	"fmt"
	"log"
	"math/rand"

	sharon "github.com/sharon-project/sharon"
)

func main() {
	reg := sharon.NewRegistry()
	texts := []string{
		"RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, WestSt) WITHIN 30s SLIDE 5s",
		"RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, ElmSt) WITHIN 30s SLIDE 5s",
		"RETURN COUNT(*) PATTERN SEQ(ParkAve, MainSt, WestSt) WITHIN 30s SLIDE 5s",
	}
	var workload sharon.Workload
	for _, t := range texts {
		workload = append(workload, sharon.MustParseQuery(t, reg))
	}
	workload.Renumber()

	stream := shiftingStream(reg, 200_000)

	// Seed the optimizer with rates measured on the first phase only —
	// they become stale when the rush hour moves.
	warmup := stream[:20_000]
	sys, err := sharon.NewSystem(workload, sharon.Options{
		Rates: sharon.MeasureRates(warmup, workload),
		Dynamic: &sharon.DynamicOptions{
			DriftThreshold: 0.4,
			OnMigrate: func(at int64, old, new sharon.Plan) {
				fmt.Printf("t=%6.1fs: rate drift — migrating %s -> %s\n",
					float64(at)/sharon.TicksPerSecond,
					old.Format(reg, workload), new.Format(reg, workload))
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	fmt.Printf("initial plan: %s\n", sys.Plan().Format(reg, workload))

	if err := sys.ProcessAll(stream); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final plan:   %s\n", sys.Plan().Format(reg, workload))
	fmt.Printf("migrations: %d, results: %d\n", sys.DynamicStats().Migrations, len(sys.Results()))
}

// shiftingStream emits position reports whose popularity flips halfway:
// first OakSt and ElmSt are hot (the Oak corridor), then ParkAve and
// WestSt (the Park corridor). MainSt, the arterial both corridors cross,
// stays constant.
func shiftingStream(reg *sharon.Registry, n int) sharon.Stream {
	type weighted struct {
		name string
		a, b int // per-phase weights
	}
	table := []weighted{
		{"OakSt", 45, 3},
		{"ElmSt", 25, 3},
		{"MainSt", 18, 18},
		{"ParkAve", 3, 45},
		{"WestSt", 3, 25},
	}
	rng := rand.New(rand.NewSource(3))
	stream := make(sharon.Stream, n)
	for i := range stream {
		phaseB := i > n/2
		total := 0
		for _, w := range table {
			if phaseB {
				total += w.b
			} else {
				total += w.a
			}
		}
		x := rng.Intn(total)
		var name string
		for _, w := range table {
			wt := w.a
			if phaseB {
				wt = w.b
			}
			if x < wt {
				name = w.name
				break
			}
			x -= wt
		}
		stream[i] = sharon.Event{
			Time: int64(i+1) * 4, // 250 reports/second
			Type: reg.Intern(name),
			Key:  sharon.GroupKey(rng.Intn(8)),
		}
	}
	return stream
}
