package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"github.com/sharon-project/sharon/internal/obs"
	"github.com/sharon-project/sharon/internal/persist"
	"github.com/sharon-project/sharon/internal/server"
)

// punctStamp records when a forwarded step's watermark left the router,
// so the lane can measure punctuation lag — forward to frontier-pass.
type punctStamp struct {
	wm int64
	at int64 // Unix nanoseconds at forward time
}

// maxPunctStamps bounds the telemetry queue on a stalled worker (the
// delta is the correctness-bearing buffer; stamps are droppable).
const maxPunctStamps = 8192

// lane is the router's view of one worker: the punctuated SSE
// subscription feeding the merge, the buffered results awaiting the
// global frontier, and the retained hand-off delta. pending, frontier,
// and delta are guarded by Router.mu; the reader goroutine owns the
// connection.
type lane struct {
	id     string
	spec   WorkerSpec
	cancel context.CancelFunc
	done   chan struct{}

	// frontier is the worker's last punctuation: it owes no further
	// results for windows ending at or before it. Router.mu.
	frontier int64
	// pending buffers received results by window end until the global
	// frontier passes them. Router.mu.
	pending map[int64][]server.WireResult
	// delta retains the forwarded steps newer than frontier — what a
	// successor must replay if this worker dies. Router.mu.
	delta []persist.BatchRecord
	// lastSeq is the highest worker-local result seq received; SSE
	// reconnects resume from it so no result is lost in the gap.
	// Reader goroutine only.
	lastSeq int64
	// adopted receives the op IDs of `adopted` markers (rebalance
	// completion barriers).
	adopted chan int64
	// gone marks a lane removed from membership: its reader exits
	// quietly instead of raising a death check. Atomic.
	gone atomic.Bool
	// mute makes the reader drop every frame unseen — the tests' stand-in
	// for frames dying in a socket buffer at a kill. Atomic.
	mute atomic.Bool

	healthy          atomic.Bool
	misses           atomic.Int64
	groups           atomic.Int64
	forwardedEvents  atomic.Int64
	forwardedBatches atomic.Int64
	retries429       atomic.Int64

	// Per-lane stage histograms (atomic; snapshotted lock-free).
	// forwardNs is the POST /ingest round trip including 429 retries;
	// holdNs is merge-hold (first result arrival for a window end →
	// merged emit); punctNs is punctuation lag (step forwarded → lane
	// frontier passes its watermark).
	forwardNs obs.Histogram
	holdNs    obs.Histogram
	punctNs   obs.Histogram
	// arrival stamps the first received result per window end
	// (merge-hold start). Router.mu.
	arrival map[int64]int64
	// punctQ holds forwarded-step watermark stamps awaiting
	// punctuation, oldest first. Router.mu.
	punctQ []punctStamp
}

// newLane subscribes to a worker's punctuated result stream and starts
// its reader. Called from New and the join path (pump goroutine).
func (r *Router) newLane(spec WorkerSpec) (*lane, error) {
	spec.URL = strings.TrimSuffix(spec.URL, "/")
	ctx, cancel := context.WithCancel(context.Background())
	ln := &lane{
		id:       spec.URL,
		spec:     spec,
		cancel:   cancel,
		done:     make(chan struct{}),
		frontier: -1,
		pending:  make(map[int64][]server.WireResult),
		arrival:  make(map[int64]int64),
		lastSeq:  -1,
		adopted:  make(chan int64, 4),
	}
	ln.healthy.Store(true)
	resp, err := r.subscribeLane(ctx, ln, false)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("cluster: subscribe %s: %w", ln.id, err)
	}
	go r.runLane(ctx, ln, resp)
	return ln, nil
}

// subscribeLane opens the SSE stream; resume re-reads from the last
// received seq via the worker's replay ring, so a dropped connection
// to a live worker loses nothing.
func (r *Router) subscribeLane(ctx context.Context, ln *lane, resume bool) (*http.Response, error) {
	url := ln.id + "/subscribe?type=result&type=wm&type=adopted"
	if resume {
		url = fmt.Sprintf("%s&after=%d", url, ln.lastSeq)
	}
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe status %d", resp.StatusCode)
	}
	return resp, nil
}

// runLane reads one worker's SSE stream: results into the merge
// buffers, punctuation into the frontier, adopt markers to the
// rebalancer. On a broken connection it resumes if the worker is still
// healthy, and raises a death check otherwise.
func (r *Router) runLane(ctx context.Context, ln *lane, resp *http.Response) {
	defer close(ln.done)
	for {
		r.readLane(ln, resp)
		resp.Body.Close()
		if ctx.Err() != nil || ln.gone.Load() {
			return
		}
		// Broken stream, lane still a member: probe, then resume from
		// the last received seq (the worker's replay ring backfills the
		// gap). A dead worker goes through the pump's rebalance.
		if healthy, _ := r.probe(ln.id); !healthy {
			r.suspectDead(ln.id)
			return
		}
		var err error
		resp, err = r.subscribeLane(ctx, ln, true)
		if err != nil {
			r.edge.Log.Warn("lane resume failed", "lane", ln.id, "err", err)
			r.suspectDead(ln.id)
			return
		}
		r.edge.Log.Info("lane resumed", "lane", ln.id, "seq", ln.lastSeq)
	}
}

// readLane consumes frames until the stream breaks or ends.
func (r *Router) readLane(ln *lane, resp *http.Response) {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	evtype := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			evtype = ""
		case strings.HasPrefix(line, "event: "):
			evtype = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if ln.mute.Load() {
				continue // dropped as if it never left the worker
			}
			payload := line[len("data: "):]
			switch evtype {
			case "":
				var wr server.WireResult
				if err := json.Unmarshal([]byte(payload), &wr); err != nil {
					r.fail("lane %s: malformed result %q: %v", ln.id, payload, err)
					return
				}
				if wr.Seq <= ln.lastSeq {
					continue // resume overlap
				}
				ln.lastSeq = wr.Seq
				r.mu.Lock()
				// A lane declared dead (or removed) mid-read must stop
				// touching the merge state: the rebalancer froze its
				// frontier and pruned its buffers under this same lock,
				// and a straggling frame — the connection may still be
				// draining when death is declared by failed probes —
				// would double what the successors regenerate.
				if ln.gone.Load() {
					r.mu.Unlock()
					return
				}
				ln.pending[wr.End] = append(ln.pending[wr.End], wr)
				if _, ok := ln.arrival[wr.End]; !ok {
					ln.arrival[wr.End] = time.Now().UnixNano()
				}
				r.mu.Unlock()
			case "wm":
				var p struct {
					Watermark int64 `json:"watermark"`
				}
				if json.Unmarshal([]byte(payload), &p) != nil {
					continue
				}
				now := time.Now().UnixNano()
				r.mu.Lock()
				if ln.gone.Load() {
					r.mu.Unlock()
					return
				}
				r.advanceLane(ln, p.Watermark, now)
				r.mu.Unlock()
			case "adopted":
				var p struct {
					Op        int64 `json:"op"`
					Watermark int64 `json:"watermark"`
				}
				if json.Unmarshal([]byte(payload), &p) != nil {
					continue
				}
				now := time.Now().UnixNano()
				r.mu.Lock()
				if ln.gone.Load() {
					r.mu.Unlock()
					return
				}
				r.advanceLane(ln, p.Watermark, now)
				r.mu.Unlock()
				select {
				case ln.adopted <- p.Op:
				default:
				}
			case "eof", "error", "dropped":
				return
			}
		}
	}
}

// advanceLane moves one lane's frontier, prunes its hand-off delta, and
// advances the merge. Caller holds Router.mu. A lane mid-rebalance (its
// worker died) never reaches here again, so the dead lane's frontier
// stays frozen and the merge cannot outrun the recovery. nowNano is the
// caller's wall-clock stamp (0 skips telemetry): a parameter, not a
// clock read, so this path stays deterministic.
//
//sharon:deterministic
func (r *Router) advanceLane(ln *lane, wm int64, nowNano int64) {
	if wm <= ln.frontier {
		return
	}
	ln.frontier = wm
	// Punctuation lag: every forwarded step the frontier just passed
	// was acknowledged end to end (forward → apply → punctuate → merge
	// frontier) in now − stamp.
	for len(ln.punctQ) > 0 && ln.punctQ[0].wm <= wm {
		if nowNano > 0 {
			ln.punctNs.Record(nowNano - ln.punctQ[0].at)
		}
		ln.punctQ = ln.punctQ[1:]
	}
	// A step whose watermark the worker has punctuated is fully applied
	// and durably logged there (WAL-before-apply); it will never need
	// replaying onto a successor.
	keep := ln.delta[:0]
	for _, b := range ln.delta {
		if b.Watermark > wm {
			keep = append(keep, b)
		}
	}
	clear(ln.delta[len(keep):])
	ln.delta = keep
	r.advanceMergeLocked(nowNano)
}

// advanceMergeLocked emits every buffered window at or below the global
// frontier (the minimum lane punctuation) in the canonical (window end,
// query, window, group) order, assigning the router's global sequence
// numbers — the same order and the same wire bytes a single sharond
// emits over the same input. Caller holds Router.mu. nowNano is the
// caller's wall-clock stamp for merge-hold telemetry and the published
// frames' fan-out stamps (0 skips both).
//
//sharon:deterministic
func (r *Router) advanceMergeLocked(nowNano int64) {
	if len(r.lanes) == 0 {
		return
	}
	frontier := int64(1<<63 - 1)
	//sharon:allow deterministicemit (min-reduction over lane frontiers is iteration-order independent)
	for _, ln := range r.lanes {
		if ln.frontier < frontier {
			frontier = ln.frontier
		}
	}
	if frontier <= r.mergedWM {
		return
	}
	var ends []int64
	//sharon:allow deterministicemit (the ranges only collect window ends; Sort+Compact below fixes the order)
	for _, ln := range r.lanes {
		//sharon:allow deterministicemit (same: collected ends are sorted and deduplicated below)
		for end := range ln.pending {
			if end <= frontier {
				ends = append(ends, end)
			}
		}
	}
	//sharon:allow deterministicemit (orphan ends join the same sorted, deduplicated list)
	for end := range r.orphan {
		if end <= frontier {
			ends = append(ends, end)
		}
	}
	slices.Sort(ends)
	ends = slices.Compact(ends)
	for _, end := range ends {
		var bucket []server.WireResult
		//sharon:allow deterministicemit (lanes hold disjoint group sets, and the bucket is totally ordered by the (query, window, group) sort below)
		for _, ln := range r.lanes {
			if rs, ok := ln.pending[end]; ok {
				bucket = append(bucket, rs...)
				delete(ln.pending, end)
			}
			if at, ok := ln.arrival[end]; ok {
				delete(ln.arrival, end)
				if nowNano > 0 {
					ln.holdNs.Record(nowNano - at)
				}
			}
		}
		if rs, ok := r.orphan[end]; ok {
			bucket = append(bucket, rs...)
			delete(r.orphan, end)
		}
		slices.SortFunc(bucket, func(a, b server.WireResult) int {
			switch {
			case a.Query != b.Query:
				return int(a.Query) - int(b.Query)
			case a.Win != b.Win:
				return cmp64(a.Win, b.Win)
			default:
				return cmp64(a.Group, b.Group)
			}
		})
		for i := range bucket {
			bucket[i].Seq = r.seq
			payload, err := json.Marshal(bucket[i])
			if err != nil {
				r.fail("marshal merged result: %v", err)
				return
			}
			r.edge.Ring.Append(r.seq, payload)
			r.edge.Hub.Publish(bucket[i].Query, bucket[i].Group, r.seq, payload, nowNano)
			r.seq++
			r.edge.Emitted.Add(1)
		}
	}
	r.mergedWM = frontier
	r.edge.Hub.PublishCtl("wm", fmt.Appendf(nil, `{"watermark":%d}`, frontier))
}

func cmp64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
