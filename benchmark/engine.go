package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	sharon "github.com/sharon-project/sharon"
)

// segmentBatches is the interleaving grain of the two passes: the
// Sharon plan and the A-Seq control take turns on the same 64 Ki events,
// so drift in machine speed lands on both sides of the ratio alike.
const segmentBatches = 128

// engineSystem is one in-process system with the results it emitted
// since the last drain.
type engineSystem struct {
	sys     *sharon.System
	out     []sharon.Result
	onFirst func(win int64) // open loop: called on a window's first result
	lastWin int64
}

func (e *engineSystem) onResult(r sharon.Result) {
	if e.onFirst != nil && r.Win != e.lastWin {
		e.lastWin = r.Win
		e.onFirst(r.Win)
	}
	e.out = append(e.out, r)
}

// drain moves the buffered results into the digest (outside any timed
// section).
func (e *engineSystem) drain(g *digest, each func(sharon.Result)) {
	for _, r := range e.out {
		if each != nil {
			each(r)
		}
		g.add(r)
	}
	e.out = e.out[:0]
}

// engineRig builds systems for one engine workload the way a library
// user does: parse the query texts, measure rates on a stream sample,
// NewSystem with default options, feed.
type engineRig struct {
	d   workloadDef
	src source
	tr  *tracer
}

// build compiles the workload and constructs a system; with a nil plan
// the default optimizer runs. The returned seconds cover parse, rate
// measurement, optimizer, system build and the warm-up feed: setup_s.
func (rig engineRig) build(strategy sharon.Strategy, plan sharon.Plan) (*engineSystem, sharon.Workload, float64, error) {
	sample := make([]sharon.Event, rateSample)
	rig.src.fill(sample, 0, 0)
	t0 := time.Now()
	root := rig.tr.begin("build", -1, -1)
	parse := rig.tr.begin("parse", root, -1)
	w, _, err := rig.d.compile()
	rig.tr.finish(parse)
	if err != nil {
		return nil, nil, 0, err
	}
	es := &engineSystem{lastWin: -1}
	opt := rig.tr.begin("optimize", root, -1)
	es.sys, err = sharon.NewSystem(w, sharon.Options{
		Strategy:    strategy,
		Rates:       sharon.MeasureRates(sample, w),
		Plan:        plan,
		Parallelism: 1,
		OnResult:    es.onResult,
	})
	rig.tr.finish(opt)
	if err != nil {
		return nil, nil, 0, err
	}
	warm := rig.tr.begin("warmup", root, -1)
	for from := 0; from < warmupEvents; from += batchSize {
		if err := es.sys.FeedBatch(sample[from:min(from+batchSize, warmupEvents)]); err != nil {
			return nil, nil, 0, err
		}
	}
	rig.tr.finish(warm)
	rig.tr.finish(root)
	return es, w, time.Since(t0).Seconds(), nil
}

// checkpoint is the state of the control pass's digest right after the
// last result of window win: what a replay of the stream's prefix must
// reproduce.
type checkpoint struct {
	win   int64
	count int64
	sum   [32]byte
	set   bool
}

// passTimes accumulates the timed segments of one system.
type passTimes struct {
	elapsed time.Duration
	cpu     time.Duration
	segs    []time.Duration // elapsed of each interleaved segment
}

// speedup is the control pass's time over the Sharon pass's, as the
// median of the per-segment ratios: each ratio compares the two systems
// on the same events a moment apart, and the median drops the segments a
// collection cycle or a scheduling hiccup landed on.
func speedup(control, shared passTimes) float64 {
	ratios := make([]float64, len(shared.segs))
	for i := range ratios {
		ratios[i] = control.segs[i].Seconds() / shared.segs[i].Seconds()
	}
	return median(ratios)
}

// feedTimed feeds events in batches and adds wall and process CPU time
// to pt. When traced, every batch is a span, and the event that crosses
// a slide boundary (the one that closes windows) is fed on its own as an
// advance span.
func (rig engineRig) feedTimed(es *engineSystem, events []sharon.Event, pt *passTimes, batch0 int, nextEnd *int64) error {
	cpu0, t0 := selfCPU(), time.Now()
	for from, b := 0, batch0; from < len(events); from, b = from+batchSize, b+1 {
		batch := events[from:min(from+batchSize, len(events))]
		if rig.tr == nil {
			if err := es.sys.FeedBatch(batch); err != nil {
				return err
			}
			continue
		}
		root := rig.tr.begin("feed", -1, b)
		for len(batch) > 0 {
			cut := len(batch)
			for i, e := range batch {
				if e.Time >= *nextEnd {
					cut = i
					break
				}
			}
			if err := es.sys.FeedBatch(batch[:cut]); err != nil {
				return err
			}
			if cut < len(batch) {
				adv := rig.tr.begin("advance", root, b)
				err := es.sys.FeedBatch(batch[cut : cut+1])
				rig.tr.finish(adv)
				if err != nil {
					return err
				}
				*nextEnd = (batch[cut].Time/rig.d.slide + 1) * rig.d.slide
				cut++
			}
			batch = batch[cut:]
		}
		rig.tr.finish(root)
	}
	seg := time.Since(t0)
	pt.elapsed += seg
	pt.segs = append(pt.segs, seg)
	pt.cpu += selfCPU() - cpu0
	return nil
}

// capPasses runs the closed-loop section: the Sharon plan and the
// A-Seq control over the identical events, segment by segment. It
// returns both systems' times and checks that their outputs agree.
func (rig engineRig) capPasses(shared, control *engineSystem, w sharon.Workload, n int, cps []*checkpoint) (sh, ct passTimes, failed int, notes []string, err error) {
	gs, gc := newDigest(w), newDigest(w)
	mark := func(r sharon.Result) {
		for _, cp := range cps {
			if !cp.set && r.Win > cp.win {
				cp.set, cp.count, cp.sum = true, gc.seq, gc.sum()
			}
		}
	}
	buf := make([]sharon.Event, segmentBatches*batchSize)
	nextEnd := int64(0)
	for from := warmupEvents; from < warmupEvents+n; from += len(buf) {
		seg := buf[:min(len(buf), warmupEvents+n-from)]
		rig.src.fill(seg, from, 0)
		// The two systems take turns going first, and the garbage of
		// hashing the previous segment is collected before the clock
		// starts, so neither side of the ratio inherits the other's, or
		// the benchmark's, collection work.
		ctlRig := rig
		ctlRig.tr = nil // spans describe the Sharon pass only
		first, second := func() error { return rig.feedTimed(shared, seg, &sh, from/batchSize, &nextEnd) },
			func() error { return ctlRig.feedTimed(control, seg, &ct, 0, &nextEnd) }
		if len(sh.segs)%2 == 1 {
			first, second = second, first
		}
		runtime.GC()
		if err = first(); err != nil {
			return
		}
		if err = second(); err != nil {
			return
		}
		shared.drain(gs, nil)
		control.drain(gc, mark)
	}
	// The closing flush is the engine's closing watermark: its emission
	// is part of the pass it ends.
	for _, p := range []struct {
		es *engineSystem
		pt *passTimes
	}{{shared, &sh}, {control, &ct}} {
		cpu0, t0 := selfCPU(), time.Now()
		if err = p.es.sys.Flush(); err != nil {
			return
		}
		p.pt.elapsed += time.Since(t0)
		p.pt.cpu += selfCPU() - cpu0
	}
	shared.drain(gs, nil)
	control.drain(gc, mark)
	if gs.seq != gc.seq {
		failed += int(max(gs.seq-gc.seq, gc.seq-gs.seq))
		notes = append(notes, fmt.Sprintf("cap: Sharon emitted %d results, the A-Seq reference %d", gs.seq, gc.seq))
	} else if gs.sum() != gc.sum() {
		failed++
		notes = append(notes, fmt.Sprintf("cap: Sharon payload SHA-256 %x differs from the A-Seq reference %x", gs.sum(), gc.sum()))
	}
	return
}

// openLoop replays the stream's first n events past the warm-up into a
// fresh Sharon system at a fixed rate, timing every window from the due
// instant of the batch that closes it, and checks the output against
// the control pass's checkpoint for the same prefix.
func (rig engineRig) openLoop(es *engineSystem, w sharon.Workload, n, rate int, cp *checkpoint) (lat, lag []float64, failed int, notes []string, err error) {
	d := rig.d
	due := make([]int64, d.closedBy(int64(warmupEvents+n))+2)
	recv := make([]int64, len(due))
	t0 := time.Now()
	clock := func() int64 { return int64(time.Since(t0)) + 1 }
	es.onFirst = func(win int64) {
		if win < int64(len(recv)) {
			recv[win] = clock()
		}
	}
	// Results are only set aside while the feeder is paced: encoding and
	// hashing them here would put garbage, and with it collection cycles,
	// into the latencies being measured.
	var kept [][]sharon.Result
	interval := time.Duration(float64(batchSize) / float64(rate) * float64(time.Second))
	buf := make([]sharon.Event, batchSize)
	closed := d.closedBy(int64(warmupEvents))
	firstWin := closed + 1
	start := time.Now()
	startNs := clock()
	for b, from := 0, warmupEvents; from < warmupEvents+n; b, from = b+1, from+batchSize {
		batch := buf[:min(batchSize, warmupEvents+n-from)]
		rig.src.fill(batch, from, 0)
		sleepUntil(start.Add(time.Duration(b) * interval))
		dueNs := startNs + int64(time.Duration(b)*interval)
		lag = append(lag, float64(clock()-dueNs)/1e6)
		hi := d.closedBy(batch[len(batch)-1].Time)
		for k := closed + 1; k <= hi; k++ {
			due[k] = dueNs
		}
		closed = hi
		if err = es.sys.FeedBatch(batch); err != nil {
			return
		}
		if len(es.out) >= 4096 {
			kept = append(kept, es.out)
			es.out = make([]sharon.Result, 0, 8192)
		}
	}
	g := newDigest(w)
	for _, chunk := range append(kept, es.out) {
		for _, r := range chunk {
			g.add(r)
		}
	}
	es.out = nil
	for k := firstWin; k <= closed; k++ {
		if recv[k] != 0 {
			lat = append(lat, float64(recv[k]-due[k])/1e6)
		}
	}
	switch {
	case !cp.set || cp.win != closed:
		failed++
		notes = append(notes, fmt.Sprintf("open loop at %d/s: no reference checkpoint for window %d", rate, closed))
	case g.seq != cp.count:
		failed += int(max(g.seq-cp.count, cp.count-g.seq))
		notes = append(notes, fmt.Sprintf("open loop at %d/s: %d results, the A-Seq reference has %d for the same prefix", rate, g.seq, cp.count))
	case g.sum() != cp.sum:
		failed++
		notes = append(notes, fmt.Sprintf("open loop at %d/s: payload SHA-256 differs from the A-Seq reference", rate))
	}
	return
}

// engineChild is the body of the fresh child process an engine workload
// runs in: nothing but the systems under test and their input buffers
// live here, so process CPU and peak RSS are theirs.
func engineChild(s spec, seed uint64, seconds float64, tr *tracer) (*outcome, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	d := s.def()
	rig := engineRig{d: d, src: s.newSource(d, seed), tr: tr}
	n := s.counts(seconds)
	if tr != nil {
		// A traced run only repeats the closed loop, at a fifth of the
		// length, once without and once with spans.
		n = counts{cap: n.cap / 5 / batchSize * batchSize}
	}
	out := newOutcome()

	shared, w, setup, err := rig.build(sharon.StrategySharon, nil)
	if err != nil {
		return nil, err
	}
	setups := []float64{setup}
	plain := rig
	plain.tr = nil
	control, _, _, err := plain.build(sharon.StrategyNonShared, nil)
	if err != nil {
		return nil, err
	}
	cp1 := &checkpoint{win: d.closedBy(int64(warmupEvents + n.r1))}
	cp2 := &checkpoint{win: d.closedBy(int64(warmupEvents + n.r2))}

	var untraced float64 // events/s of the closed loop without spans
	if tr != nil {
		// Untraced twin first, on the same events, for the overhead figure.
		us, _, _, err := plain.build(sharon.StrategySharon, shared.sys.Plan())
		if err != nil {
			return nil, err
		}
		uc, _, _, err := plain.build(sharon.StrategyNonShared, nil)
		if err != nil {
			return nil, err
		}
		ush, _, f, notes, err := plain.capPasses(us, uc, w, n.cap, nil)
		if err != nil {
			return nil, err
		}
		out.fail(f, notes...)
		untraced = float64(n.cap) / ush.elapsed.Seconds()
		out.Metrics["trace.cpu_us_per_event"] = ush.cpu.Seconds() * 1e6 / float64(n.cap)
	}

	sh, ct, f, notes, err := rig.capPasses(shared, control, w, n.cap, []*checkpoint{cp1, cp2})
	if err != nil {
		return nil, err
	}
	out.fail(f, notes...)
	out.Attempted += (n.cap + batchSize - 1) / batchSize
	out.Metrics["events_per_s"] = float64(n.cap) / sh.elapsed.Seconds()
	if tr != nil {
		out.Metrics["trace.overhead_share"] = 1 - out.Metrics["events_per_s"]/untraced
	}
	out.Metrics["cpu_us_per_event"] = sh.cpu.Seconds() * 1e6 / float64(n.cap)
	out.Metrics["sharing_speedup"] = speedup(ct, sh)
	out.Metrics["peak_live_states"] = float64(shared.sys.PeakMemoryStates())
	out.Metrics["control.peak_live_states"] = float64(control.sys.PeakMemoryStates())
	plan := shared.sys.Plan()
	shared, control = nil, nil // let the open-loop systems reuse the heap

	var lats [2][]float64
	for i, ph := range []struct {
		n, rate int
		cp      *checkpoint
	}{{n.r1, s.r1, cp1}, {n.r2, s.r2, cp2}} {
		if ph.n == 0 {
			continue
		}
		// engine-shared's optimizer runs for seconds, so its open-loop
		// systems reuse the plan and setup_s keeps the one full sample;
		// where the optimizer is quick every build is a sample.
		reuse := plan
		if setup < 1 {
			reuse = nil
		}
		es, _, secs, err := plain.build(sharon.StrategySharon, reuse)
		if err != nil {
			return nil, err
		}
		if reuse == nil {
			setups = append(setups, secs)
		}
		lat, lag, f, notes, err := plain.openLoop(es, w, ph.n, ph.rate, ph.cp)
		if err != nil {
			return nil, err
		}
		out.fail(f, notes...)
		out.Attempted += (ph.n + batchSize - 1) / batchSize
		lats[i] = lat
		suffix := []string{"", "_r2"}[i]
		out.Metrics["driver.sched_lag_p99_ms"+suffix] = quantileOf(lag, 0.99)
		out.Metrics["driver.within_limit_share"+suffix] = shareWithin(lat, latencyLimitMs, len(lat))
		out.Metrics["driver.backlog_end_batches"+suffix] = lag[len(lag)-1] / (float64(batchSize) / float64(ph.rate) * 1e3)
	}
	if tr == nil {
		latencyMetrics(out.Metrics, lats[0], lats[1])
	}
	out.Metrics["setup_s"] = median(setups)
	out.Metrics["driver.setup_samples"] = float64(len(setups))
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	out.Metrics["rss_peak_mb"] = rss
	return out, nil
}
