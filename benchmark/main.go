// Command benchmark is the repository's benchmark: four workloads from
// the in-process engine to a two-worker cluster, driven the way users
// drive the system, with every output checked against a sequential
// A-Seq reference. See README.md for the metrics, the workloads and the
// calibration record.
//
//	bash benchmark/run.sh                              # all workloads, end-to-end then traced
//	bash benchmark/run.sh -workload serve-stream       # one workload
//	bash benchmark/run.sh -seed 7 -repeat 2            # the whole set twice, compared
//	bash benchmark/run.sh --workload cluster-2w --seed 3 --seconds 20 --trace 0   # driver protocol
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type options struct {
	root     string
	buildNs  int64
	workload string
	seed     uint64
	seconds  float64
	trace    string
	repeat   int
	child    bool
}

func main() {
	var o options
	flag.StringVar(&o.root, "root", "", "checkout root (set by run.sh)")
	flag.Int64Var(&o.buildNs, "build-ns", 0, "how long run.sh's go build took (set by run.sh)")
	flag.StringVar(&o.workload, "workload", "", "run one workload: engine-shared | engine-churn | serve-stream | cluster-2w (default: all)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated event stream")
	flag.Float64Var(&o.seconds, "seconds", calibratedSeconds, "length of the timed sections of one run")
	flag.StringVar(&o.trace, "trace", "", "0 = end-to-end run, 1 = traced per-layer run (default: both, end-to-end first)")
	flag.IntVar(&o.repeat, "repeat", 1, "run the end-to-end set this many times and compare the runs")
	flag.BoolVar(&o.child, "child", false, "internal: run an engine workload's passes in this process")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if o.child {
		return childMain(o)
	}
	if o.root == "" {
		return fmt.Errorf("-root is required: start the benchmark with bash benchmark/run.sh")
	}
	// One driver process, at most nproc (two here) OS threads of Go code.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	b := &bench{o: o, fleet: &fleet{}}
	defer b.fleet.stop()
	// Children and data dirs must not outlive an interrupted run.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-ctx.Done():
			b.fleet.stop()
			fmt.Fprintln(os.Stderr, "benchmark: interrupted")
			os.Exit(1)
		case <-finished:
		}
	}()
	if o.workload != "" && (o.trace == "0" || o.trace == "1") && o.repeat == 1 {
		return b.protocolRun(ctx)
	}
	return b.report(ctx)
}

// bench is one invocation of the driver.
type bench struct {
	o     options
	fleet *fleet
}

func (b *bench) outDir() string { return filepath.Join(b.o.root, "benchmark", "out") }

// runOne runs one workload once, end to end (traced false) or traced.
func (b *bench) runOne(ctx context.Context, s spec, traced bool) (*outcome, error) {
	if err := os.MkdirAll(b.outDir(), 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(b.outDir(), s.name+".trace.json")
	var o *outcome
	var err error
	if s.engine {
		o, err = b.engineRun(ctx, s, traced, tracePath)
	} else {
		runDir := filepath.Join(b.outDir(), fmt.Sprintf("%s-%d", s.name, os.Getpid()))
		if err := b.fleet.scratch(runDir); err != nil {
			return nil, err
		}
		st := childStage{
			l:       &launcher{sharond: filepath.Join(b.o.root, ".bench_build", "bin", "sharond"), runDir: runDir, fleet: b.fleet},
			cluster: s.cluster,
		}
		if traced {
			o, err = servedTraced(ctx, s, st, b.o.seed, b.o.seconds, tracePath, b.outDir())
		} else {
			o, err = servedEndToEnd(ctx, s, st, b.o.seed, b.o.seconds)
		}
		b.fleet.stop()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	o.Metrics["driver.build_s"] = float64(b.o.buildNs) / 1e9
	return o, nil
}

// engineRun runs an engine workload's passes in a fresh child of this
// binary, so that process CPU and peak RSS are the systems' own, and for
// a traced run the isolated layer replays here.
func (b *bench) engineRun(ctx context.Context, s spec, traced bool, tracePath string) (*outcome, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, os.Args[0], "-child", "-workload", s.name,
		"-seed", fmt.Sprint(b.o.seed), "-seconds", fmt.Sprint(b.o.seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("engine child: %w", err)
	}
	o := newOutcome()
	if err := json.Unmarshal(out, o); err != nil {
		return nil, fmt.Errorf("engine child output: %w", err)
	}
	if !traced {
		return o, nil
	}
	// The replays' spans follow the child's on one clock.
	tr := newTracer()
	tr.spans, o.Spans = o.Spans, nil
	var childEnd int64
	for _, sp := range tr.spans {
		childEnd = max(childEnd, sp.End)
	}
	tr.t0 = tr.t0.Add(-time.Duration(childEnd))
	d := s.def()
	if err := layerReplays(s, d, s.newSource(d, b.o.seed), b.outDir(), o, tr); err != nil {
		return nil, err
	}
	finishTraceMetrics(s, o, tr)
	return o, tr.write(tracePath)
}

// childMain is the engine child: it prints its outcome, spans included,
// as JSON on standard output.
func childMain(o options) error {
	s, err := specByName(o.workload)
	if err != nil {
		return err
	}
	var tr *tracer
	if o.trace == "1" {
		tr = newTracer()
	}
	eo, err := engineChild(s, o.seed, o.seconds, tr)
	if err != nil {
		return err
	}
	if tr != nil {
		eo.Spans = tr.spans
	}
	return json.NewEncoder(os.Stdout).Encode(eo)
}

// protocolRun is the driver protocol: one workload, one kind of run,
// and the result as one JSON object on the last line of standard output.
func (b *bench) protocolRun(ctx context.Context) error {
	s, err := specByName(b.o.workload)
	if err != nil {
		return err
	}
	traced := b.o.trace == "1"
	if !traced && b.o.trace != "0" {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	o, err := b.runOne(ctx, s, traced)
	if err != nil {
		return err
	}
	catalogue := endToEnd
	if traced {
		catalogue = perLayer
	}
	printMetrics(os.Stderr, s.name, o, catalogue)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: o.Failed == 0, Attempted: max(o.Attempted, 1), Failed: o.Failed, Metrics: map[string]value{}}
	for _, m := range catalogue {
		res.Metrics[m.name] = value{Value: o.Metrics[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if o.Failed > 0 {
		return fmt.Errorf("%s: %d operations failed", s.name, o.Failed)
	}
	return nil
}

// printMetrics lists the catalogue's metrics by name with units, then
// every other figure the run produced (diagnostics), then failure notes.
func printMetrics(w io.Writer, workload string, o *outcome, catalogue []metric) {
	listed := map[string]bool{}
	fmt.Fprintf(w, "%s: ops_attempted %d, ops_failed %d\n", workload, o.Attempted, o.Failed)
	for _, m := range catalogue {
		listed[m.name] = true
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", m.name, o.Metrics[m.name], m.unit)
	}
	var rest []string
	for name := range o.Metrics {
		if !listed[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		fmt.Fprintf(w, "  %-40s %14.4f\n", name, o.Metrics[name])
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}
