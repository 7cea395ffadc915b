package main

import (
	"context"
	"fmt"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/chash"
)

// stage is where a served workload's system comes from: sharond children
// in a real run, in-process servers in the unit smoke test. start brings
// a fresh system up; stop tears the current one down.
type stage interface {
	start(ctx context.Context, tag string) (clusterTarget, error)
	// startSolo brings up one durable worker on its own, the traced
	// cluster run's single-node comparison.
	startSolo(ctx context.Context, tag string) (target, error)
	stop()
}

// childStage runs the real binary.
type childStage struct {
	l       *launcher
	cluster bool
}

func (c childStage) start(ctx context.Context, tag string) (clusterTarget, error) {
	if c.cluster {
		return c.l.cluster(ctx, tag)
	}
	t, err := c.l.single(ctx, tag)
	return clusterTarget{target: t}, err
}

func (c childStage) startSolo(ctx context.Context, tag string) (target, error) {
	port, err := freePort(portWorker)
	if err != nil {
		return target{}, err
	}
	p, url, _, err := c.l.worker(ctx, tag, port)
	return target{ingestURL: url, subURL: url, procs: []*proc{p}}, err
}

func (c childStage) stop() { c.l.fleet.kill() }

// outcome is one run's result in the driver protocol's terms. It is also
// what the engine child prints for the driver, spans of a traced run
// included.
type outcome struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

func newOutcome() *outcome { return &outcome{Metrics: map[string]float64{}} }

func (o *outcome) fail(n int, notes ...string) {
	o.Failed += n
	o.Notes = append(o.Notes, notes...)
}

// probePerSec is how many events per second of --seconds the in-process
// engine probe of a served workload times, past its warm-up.
const probePerSec = 45_000

// engineProbe measures the two engine-level metrics, sharing_speedup
// and peak_live_states, on a served workload's own queries and stream:
// interleaved Sharon and A-Seq passes in process, as the engine workloads
// run them at full length.
func engineProbe(d workloadDef, src source, seconds float64, o *outcome) error {
	rig := engineRig{d: d, src: src}
	shared, w, _, err := rig.build(sharon.StrategySharon, nil)
	if err != nil {
		return err
	}
	control, _, _, err := rig.build(sharon.StrategyNonShared, nil)
	if err != nil {
		return err
	}
	sh, ct, failed, notes, err := rig.capPasses(shared, control, w, int(probePerSec*seconds)/batchSize*batchSize, nil)
	if err != nil {
		return err
	}
	o.fail(failed, notes...)
	o.Metrics["sharing_speedup"] = speedup(ct, sh)
	o.Metrics["peak_live_states"] = float64(shared.sys.PeakMemoryStates())
	return nil
}

// setupReps is how many times a served run brings its system up: the
// median is setup_s, the last one is measured.
const setupReps = 3

// servedEndToEnd is the --trace 0 run of a served workload.
func servedEndToEnd(ctx context.Context, s spec, st stage, seed uint64, seconds float64) (*outcome, error) {
	d := s.def()
	src := s.newSource(d, seed)
	n := s.counts(seconds)
	phases := plan(d,
		[]string{"warmup", "cap", "r1", "r2"},
		[]int{warmupEvents, n.cap, n.r1, n.r2},
		[]int{0, 0, s.r1, s.r2})
	ref, err := referenceRun(d, src, phases)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	if err := engineProbe(d, src, seconds, o); err != nil {
		return nil, err
	}
	defer st.stop()

	// Set-up, several times: spawn -> healthy -> subscription open ->
	// warm-up results delivered. Only the last system is kept.
	var setups []float64
	var run *servedRun
	var tgt clusterTarget
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if tgt, err = st.start(ctx, fmt.Sprintf("setup%d", rep)); err != nil {
			return nil, err
		}
		if run, err = connect(tgt.target, d, src, ref, nil); err != nil {
			return nil, err
		}
		if _, err = run.run(phases[0], nil); err != nil {
			run.disconnect()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			run.disconnect()
			st.stop()
		}
	}
	o.Metrics["setup_s"] = median(setups)

	stats, err := run.runAll(phases[1:], tgt.procs, o)
	if err != nil {
		run.disconnect()
		return nil, err
	}
	var rss float64
	for _, p := range tgt.procs {
		mb, err := peakRSS(p.pid())
		if err != nil {
			run.disconnect()
			return nil, err
		}
		rss += mb
	}
	run.disconnect()
	failed, notes := run.verdict()
	o.fail(failed, notes...)

	capSt, r1, r2 := stats[0], stats[1], stats[2]
	o.Metrics["events_per_s"] = float64(capSt.events) / capSt.elapsed
	o.Metrics["cpu_us_per_event"] = capSt.cpu * 1e6 / float64(capSt.events)
	o.Metrics["rss_peak_mb"] = rss
	capMetrics(o.Metrics, capSt)
	latencyMetrics(o.Metrics, r1.latMs, r2.latMs)
	// The run is valid when the generator kept its schedule and left the
	// system most of the machine.
	o.Metrics["driver.valid"] = b2f(quantileOf(r1.lagMs, 0.99) < 1 && o.Metrics["driver.cpu_share"] < 0.35)
	for i, ps := range []phaseStats{r1, r2} {
		suffix := []string{"", "_r2"}[i]
		o.Metrics["driver.sched_lag_p99_ms"+suffix] = quantileOf(ps.lagMs, 0.99)
		o.Metrics["driver.within_limit_share"+suffix] = shareWithin(ps.latMs, latencyLimitMs, ps.windows)
		o.Metrics["driver.backlog_end_batches"+suffix] = ps.backlog
		o.Metrics["driver.cpu_share"+suffix] = ps.driver / (ps.driver + ps.cpu)
	}
	return o, nil
}

// partitionSkew is max/mean events per worker when the stream's first n
// events are placed by the router's consistent-hash ring.
func partitionSkew(src source, n int, workers []string) (float64, error) {
	ring, err := chash.New(workers, 0)
	if err != nil {
		return 0, err
	}
	per := make(map[string]int, len(workers))
	buf := make([]sharon.Event, batchSize)
	for from := 0; from < n; from += batchSize {
		src.fill(buf, from, 0)
		for _, e := range buf {
			per[ring.Owner(e.Key)]++
		}
	}
	most := 0
	for _, c := range per {
		most = max(most, c)
	}
	return float64(most) * float64(len(workers)) / float64(n/batchSize*batchSize), nil
}
