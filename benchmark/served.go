package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	sharon "github.com/sharon-project/sharon"
)

// target is a running system under test as its clients see it.
type target struct {
	ingestURL string
	subURL    string
	stream    bool    // /ingest/stream with acks; else one-shot POST /ingest
	procs     []*proc // children whose CPU and memory are the system's (none in process)
}

// phaseStats is what one phase of a served run measured.
type phaseStats struct {
	phase    phase
	events   int
	batches  int
	refused  int       // busy acks / 429s / 503s, all retried
	elapsed  float64   // s, first batch sent -> last result frame received
	accepted float64   // s, first batch sent -> last batch acked
	cpu      float64   // s, summed over the target's processes
	cpuBy    []float64 // s, per process of the target
	driver   float64   // s, the driver's own CPU over the same interval
	ackMs    []float64
	lagMs    []float64 // open loop: how late each batch was sent
	latMs    []float64 // per window end: first frame - due time of the closing batch
	delivMs  []float64 // per window end: first frame - ack of the closing batch
	windows  int       // window ends this phase's events closed that emit rows
	missing  int       // of those, how many never arrived
	backlog  float64   // open loop: batches behind schedule when the last one went out
}

// servedRun drives one target through a plan of phases over two
// connections: one ingest, one subscription.
type servedRun struct {
	d      workloadDef
	src    source
	ref    *reference
	tr     *tracer
	t0     time.Time
	ing    ingester
	sub    *subscriber
	client *http.Client

	due    []int64 // by window index: due time of the batch that closes it
	ack    []int64 // by window index: when that batch was acknowledged
	closed int64   // highest window index closed by what was sent so far
	sent   int     // batches sent, the trace's shared identifier
	buf    []sharon.Event
}

func (r *servedRun) clock() int64 { return int64(time.Since(r.t0)) + 1 }

// connect opens the two connections; the subscription is confirmed
// before any event is sent, so every result is observed live.
func connect(t target, d workloadDef, src source, ref *reference, tr *tracer) (*servedRun, error) {
	r := &servedRun{
		d: d, src: src, ref: ref, tr: tr, t0: time.Now(),
		client: newHTTPClient(),
		due:    make([]int64, len(ref.hasResult)),
		ack:    make([]int64, len(ref.hasResult)),
		closed: -1,
		buf:    make([]sharon.Event, batchSize),
	}
	sub, err := subscribe(r.client, t.subURL, len(ref.hasResult), r.clock)
	if err != nil {
		return nil, err
	}
	r.sub = sub
	if t.stream {
		if r.ing, err = dialStream(r.client, t.ingestURL, d.typeNames); err != nil {
			sub.stop()
			return nil, err
		}
	} else {
		r.ing = newPostIngest(r.client, t.ingestURL, d.typeNames)
	}
	return r, nil
}

func (r *servedRun) disconnect() {
	r.ing.close()
	r.sub.stop()
	r.client.CloseIdleConnections()
}

// spinWindow is how close to a due instant the sender stops sleeping
// and yields in a loop instead: timer wake-ups on a busy two-core box
// overshoot by more than the lateness limit the run is judged by.
const spinWindow = 150 * time.Microsecond

func sleepUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// run sends one phase and waits for every result the reference says is
// due by its end.
func (r *servedRun) run(p phase, procs []*proc) (phaseStats, error) {
	want := r.ref.phaseCount[p.index]
	st := phaseStats{phase: p, events: p.n}
	cpu0, drv0 := cpuOf(procs), selfCPU()
	firstWin := r.closed + 1
	interval := time.Duration(0)
	if p.rate > 0 {
		interval = time.Duration(float64(batchSize) / float64(p.rate) * float64(time.Second))
	}
	start := time.Now()
	startNs := r.clock()
	var lastAck int64
	for b, from := 0, p.from; from < p.from+p.n; b, from = b+1, from+batchSize {
		events := r.buf[:min(batchSize, p.from+p.n-from)]
		r.src.fill(events, from, p.offset)
		due := r.clock()
		if p.rate > 0 {
			at := start.Add(time.Duration(b) * interval)
			sleepUntil(at)
			due = startNs + int64(time.Duration(b)*interval)
		}
		sendAt := r.clock()
		if p.rate > 0 {
			st.lagMs = append(st.lagMs, float64(sendAt-due)/1e6)
			st.backlog = float64(sendAt-due) / float64(interval)
		}
		root := r.tr.add("batch", -1, r.sent, due, due)
		refused, err := r.ing.send(events, -1)
		ackAt := r.clock()
		if r.tr != nil {
			r.tr.add("send", root, r.sent, sendAt, ackAt)
			r.tr.spans[root].End = ackAt
		}
		st.refused += refused
		if err != nil {
			return st, fmt.Errorf("%s batch %d: %w", p.name, b, err)
		}
		// Every window ending at or before this batch's last tick waits
		// for exactly this batch: stamp them with its due time.
		hi := r.d.closedBy(events[len(events)-1].Time)
		for k := r.closed + 1; k <= hi; k++ {
			r.due[k], r.ack[k] = due, ackAt
		}
		r.closed = hi
		st.ackMs = append(st.ackMs, float64(ackAt-sendAt)/1e6)
		st.batches++
		r.sent++
		lastAck = ackAt
	}
	lastWin := r.closed
	refused, err := r.ing.send(nil, p.closeWM)
	st.refused += refused
	if err != nil {
		return st, fmt.Errorf("%s closing watermark: %w", p.name, err)
	}
	r.closed = r.d.closedBy(p.closeWM)
	if !r.sub.await(want, 60*time.Second) {
		return st, fmt.Errorf("%s: %d of %d result frames arrived (stream %q, %v)",
			p.name, r.sub.count.Load(), want, r.sub.terminal, r.sub.err)
	}
	st.elapsed = float64(r.sub.lastAt.Load()-startNs) / 1e9
	st.accepted = float64(lastAck-startNs) / 1e9
	for i, c := range cpuOf(procs) {
		st.cpuBy = append(st.cpuBy, (c - cpu0[i]).Seconds())
		st.cpu += st.cpuBy[i]
	}
	st.driver = (selfCPU() - drv0).Seconds()
	for k := firstWin; k <= lastWin; k++ {
		if !r.ref.hasResult[k] {
			continue
		}
		st.windows++
		at := r.sub.recv[k].Load()
		if at == 0 {
			st.missing++
			continue
		}
		st.latMs = append(st.latMs, float64(at-r.due[k])/1e6)
		st.delivMs = append(st.delivMs, float64(max(at-r.ack[k], 0))/1e6)
		r.tr.add("deliver", -1, int(k), r.ack[k], max(at, r.ack[k]))
	}
	return st, nil
}

// cpuOf reads each process's CPU time so far; a process that is gone
// reads as zero.
func cpuOf(procs []*proc) []time.Duration {
	out := make([]time.Duration, len(procs))
	for i, p := range procs {
		if c, err := p.cpu(); err == nil {
			out[i] = c
		}
	}
	return out
}

// runAll runs phases in order, booking their frames and missing windows
// on o.
func (r *servedRun) runAll(phases []phase, procs []*proc, o *outcome) ([]phaseStats, error) {
	var stats []phaseStats
	for _, p := range phases {
		ps, err := r.run(p, procs)
		if err != nil {
			return nil, err
		}
		stats = append(stats, ps)
		o.Attempted += ps.batches + 1
		o.fail(ps.missing)
	}
	return stats, nil
}

// capMetrics books what a closed-loop phase says about admission and
// about the driver's own share of the machine.
func capMetrics(m map[string]float64, ps phaseStats) {
	m["server.refused_share"] = float64(ps.refused) / float64(ps.batches+ps.refused)
	m["server.accept_events_per_s"] = float64(ps.events) / ps.accepted
	m["driver.cpu_share"] = ps.driver / (ps.driver + ps.cpu)
}

// verdict compares what the subscription received with the reference:
// count, order (the digest is order-sensitive), seq contiguity, and the
// SHA-256 over payload lines. Call after disconnect.
func (r *servedRun) verdict() (failed int, notes []string) {
	s := r.sub
	if got := s.count.Load(); got != r.ref.count {
		failed += int(max(got-r.ref.count, r.ref.count-got))
		notes = append(notes, fmt.Sprintf("%d result frames, reference has %d", got, r.ref.count))
	}
	if s.gaps+s.dups+s.strays > 0 {
		failed += int(s.gaps + s.dups + s.strays)
		notes = append(notes, fmt.Sprintf("seq gaps %d, duplicates %d, frames for unknown windows %d", s.gaps, s.dups, s.strays))
	}
	if failed == 0 && s.sum() != r.ref.sum {
		failed++
		notes = append(notes, fmt.Sprintf("payload SHA-256 %x differs from reference %x", s.sum(), r.ref.sum))
	}
	return failed, notes
}
