package harness

import (
	"strings"
	"testing"

	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/exec"
	"github.com/sharon-project/sharon/internal/gen"
	"github.com/sharon-project/sharon/internal/query"
)

func TestFigureFormat(t *testing.T) {
	f := Figure{
		ID: "figX", Title: "demo", XLabel: "n", YLabel: "ms",
		Series: []Series{
			{Name: "A", Points: []Point{{X: 1, Y: 10}, {X: 2, Y: 20}}},
			{Name: "B", Points: []Point{{X: 1, Y: 5}, {X: 2, DNF: true}}},
		},
	}
	out := f.Format()
	for _, want := range []string{"figX", "demo", "DNF", "A", "B", "n"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, ylabel, header, 2 rows
		t.Errorf("Format() has %d lines:\n%s", len(lines), out)
	}
}

func TestFigureSpeedupSummary(t *testing.T) {
	f := Figure{
		Series: []Series{
			{Name: "A-Seq", Points: []Point{{X: 1, Y: 100}, {X: 2, Y: 300}}},
			{Name: "Sharon", Points: []Point{{X: 1, Y: 50}, {X: 2, Y: 60}}},
		},
	}
	min, max, ok := f.SpeedupSummary("A-Seq", "Sharon")
	if !ok || min != 2 || max != 5 {
		t.Errorf("SpeedupSummary = %v..%v ok=%v, want 2..5 true", min, max, ok)
	}
	if _, _, ok := f.SpeedupSummary("A-Seq", "missing"); ok {
		t.Error("summary over missing series reported ok")
	}
}

func TestRunAndRunWindowed(t *testing.T) {
	reg := event.NewRegistry()
	w := query.Workload{
		query.MustParse("RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 4s SLIDE 2s", reg),
	}
	w.Renumber()
	var stream event.Stream
	for i := int64(0); i < 100; i++ {
		name := "A"
		if i%2 == 1 {
			name = "B"
		}
		stream = append(stream, event.Event{Time: (i + 1) * 100, Type: reg.Lookup(name)})
	}
	en, err := exec.NewEngine(w, nil, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunWindowed(en, stream, 4000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 100 || stats.Results == 0 || stats.Windows == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.DNF {
		t.Error("online run reported DNF")
	}
}

func TestRunReportsDNF(t *testing.T) {
	reg := event.NewRegistry()
	w := query.Workload{
		query.MustParse("RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10s SLIDE 10s", reg),
	}
	w.Renumber()
	ts, err := exec.NewTwoStep(w, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts.Cap = 2
	var stream event.Stream
	for i := int64(0); i < 40; i++ {
		name := "A"
		if i >= 20 {
			name = "B"
		}
		stream = append(stream, event.Event{Time: (i + 1) * 100, Type: reg.Lookup(name)})
	}
	stats, err := Run(ts, stream)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.DNF {
		t.Error("cap breach not reported as DNF")
	}
}

// TestTable1Content checks the Table 1 report contains the paper's
// headline numbers: guaranteed weight 38.57, optimal score 50, greedy 43.
func TestTable1Content(t *testing.T) {
	out, err := Table1(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"38.57", "score=50", "score=43", "search nodes", "(OakSt, MainSt)", "q6, q7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

// TestExperimentsTinyScale smoke-runs each figure experiment at a tiny
// scale and checks the basic shape invariants hold.
func TestExperimentsTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take seconds")
	}
	cfg := Config{Scale: 0.05, Seed: 1}

	t.Run("fig13", func(t *testing.T) {
		figs, err := Fig13(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(figs) != 2 {
			t.Fatalf("fig13 returned %d figures", len(figs))
		}
		lat := figs[0]
		if len(lat.Series) != 4 {
			t.Fatalf("fig13a series = %d", len(lat.Series))
		}
		// The two-step baseline must fall behind the online executor as
		// windows grow (at the tiniest scale the first point can tie on
		// fixed overheads, so assert on the best observed ratio).
		_, max, ok := lat.SpeedupSummary("Flink", "Sharon")
		if ok && max < 1.2 {
			t.Errorf("Flink never fell behind Sharon (max ratio %v)", max)
		}
	})

	t.Run("fig14", func(t *testing.T) {
		figs, err := Fig14QueryCount(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(figs) != 3 {
			t.Fatalf("fig14bfd returned %d figures", len(figs))
		}
		for _, f := range figs {
			if len(f.Series) != 2 || len(f.Series[0].Points) == 0 {
				t.Errorf("%s malformed", f.ID)
			}
		}
	})

	t.Run("fig15", func(t *testing.T) {
		figs, err := Fig15(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(figs) < 2 {
			t.Fatalf("fig15 returned %d figures", len(figs))
		}
	})

	t.Run("fig16", func(t *testing.T) {
		figs, err := Fig16(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(figs) != 2 {
			t.Fatalf("fig16 returned %d figures", len(figs))
		}
	})
}

func TestGenWorkloadHotTypes(t *testing.T) {
	cfg := gen.WorkloadConfig{NumQueries: 10, PatternLen: 8, SharedChunks: 3, ChunkLen: 3}
	if got := gen.NumHotTypes(cfg); got != 9 {
		t.Errorf("NumHotTypes chunks = %d, want 9", got)
	}
	ccfg := gen.WorkloadConfig{Mode: gen.ModeCorridor, PatternLen: 8, CorridorLen: 12}
	if got := gen.NumHotTypes(ccfg); got != 12 {
		t.Errorf("NumHotTypes corridor = %d, want 12", got)
	}
}
