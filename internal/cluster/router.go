// Package cluster implements the sharond cluster tier: a router that
// consistent-hash-partitions a grouped event stream across N durable
// sharond workers and merges their result streams back into the exact
// deterministic (window end, query, group) order a single node emits —
// byte-identical output, horizontally sharded state.
//
// Data plane: each accepted ingest batch is late-filtered and split by
// group key over the consistent-hash ring (internal/chash); every
// worker receives its slice plus the batch's closing watermark, so all
// workers advance in lock-step and close the same windows a single node
// would. The router subscribes to each worker's punctuated SSE stream
// (?type=result&type=wm&type=adopted): workers mark "every result for windows ending <= W
// has been sent" after each applied step, the router's merge frontier
// is the minimum marker across workers, and buffered results at or
// below the frontier are emitted downstream in the canonical order with
// router-assigned sequence numbers.
//
// Failure plane: the router retains, per worker, the forwarded steps
// newer than that worker's frontier (the hand-off delta, pruned as
// punctuation advances). When a worker dies, the router drains the
// survivors to the current watermark, rebuilds the dead worker's groups
// from its checkpoint + WAL tail sliced per new owner, ships each slice
// plus the delta to the successors (/cluster/adopt), and the successors
// regenerate exactly the results the dead worker never delivered — no
// window lost, none duplicated. Worker joins and graceful leaves move
// ranges the same way via /cluster/extract. See the README "Clustering"
// section for the full protocol.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/chash"
	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/obs"
	"github.com/sharon-project/sharon/internal/persist"
	"github.com/sharon-project/sharon/internal/server"
)

// WorkerSpec names one worker: its base URL (also its ring member ID)
// and, for dead-worker recovery, the data directory its durable state
// lives in (reachable from the router's filesystem).
type WorkerSpec struct {
	URL     string `json:"url"`
	DataDir string `json:"data_dir,omitempty"`
}

// Config configures a cluster router.
type Config struct {
	// Workers is the initial membership. At least one worker.
	Workers []WorkerSpec
	// Queries is the served workload; every worker must be configured
	// with exactly the same queries (validated at startup). Empty
	// selects server.DefaultQueries. The workload must be uniform,
	// grouped, and non-dynamic.
	Queries []string
	// Rates mirrors the workers' optimizer rates configuration.
	Rates map[string]float64
	// VNodes is the consistent-hash virtual node count per worker
	// (default chash.DefaultVNodes).
	VNodes int

	// EdgeConfig holds the request edge's settings, shared with sharond.
	server.EdgeConfig

	// Standby names pre-provisioned fresh workers (running, empty
	// data-dir) the autoscaler may join into the ring when load calls
	// for it. Workers here are NOT initial members.
	Standby []WorkerSpec
	// OccupancyHigh arms elastic scale-out: when any member's live-group
	// gauge exceeds it, the router auto-joins one standby worker through
	// the existing checkpoint-handoff rebalance. 0 disables autoscaling.
	OccupancyHigh int64
	// OccupancyLow arms elastic scale-in: when every member's live-group
	// gauge is below it (and the cluster has spare capacity), the router
	// auto-leaves the least-occupied worker. 0 disables scale-in.
	OccupancyLow int64
	// AutoScaleEvery is the occupancy-evaluation interval (default
	// HealthEvery — the gauge refresh cadence).
	AutoScaleEvery time.Duration
	// AutoScaleCooldown is the minimum spacing between autoscale
	// operations (default 15s), damping flap while gauges catch up to a
	// rebalance.
	AutoScaleCooldown time.Duration

	// HealthEvery is the worker health-probe interval (default 2s).
	HealthEvery time.Duration
	// DeadAfter is how many consecutive failed probes (or forward
	// failures) declare a worker dead (default 3).
	DeadAfter int
	// BarrierTimeout bounds the rebalance barrier wait for survivors to
	// drain to the current watermark (default 30s).
	BarrierTimeout time.Duration
}

func (c *Config) fill() {
	if len(c.Queries) == 0 {
		c.Queries = server.DefaultQueries
	}
	if c.VNodes <= 0 {
		c.VNodes = chash.DefaultVNodes
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = 2 * time.Second
	}
	if c.AutoScaleEvery <= 0 {
		c.AutoScaleEvery = c.HealthEvery
	}
	if c.AutoScaleCooldown <= 0 {
		c.AutoScaleCooldown = 15 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	if c.BarrierTimeout <= 0 {
		c.BarrierTimeout = 30 * time.Second
	}
}

// routerMsg is one unit of router pump work. Recycling the batch after
// the step is safe: retainDelta copies every worker's slice into fresh
// backing arrays before forwardAll sends anything. AdmitNano also
// starts the batch trace span.
type routerMsg = server.PumpMsg[routerCtl]

// routerCtl is a membership change or a death check, serialized through
// the pump like the data plane.
type routerCtl struct {
	join      *WorkerSpec
	leave     string
	deadcheck string
	reply     chan ctlResult
}

type ctlResult struct {
	status int
	body   any
}

// Router is a running cluster router: one pump goroutine owning the
// forwarding plane and the membership, per-worker SSE reader goroutines
// feeding the merge, and the shared request edge whose hub fans the
// merged stream out.
type Router struct {
	cfg      Config
	edge     *server.Edge[routerCtl]
	reg      *sharon.Registry
	queries  map[int]*sharon.Query
	workload sharon.Workload
	plan     sharon.Plan
	// binPrefix is the binary wire header + type-table frame every
	// forward body starts with. The table lists the registry's names in
	// order, so an event's local id is numerically its sharon.Type and
	// forwards need no per-event name lookup.
	binPrefix []byte
	// fwdBufs recycles forward bodies across steps (one buffer per
	// in-flight worker forward).
	fwdBufs  sync.Pool
	grouped  bool
	maxAdv   int64
	client   *http.Client
	probeCli *http.Client

	// The router's own latency stages, in nanoseconds; the edge records
	// decode_ndjson, decode_binary and fanout (see README
	// "Observability"):
	//
	//	queue    ingest-queue admit → pump dequeue
	//	forward  ring split forwarded → every worker acked (the step's
	//	         slowest worker round trip, including retries)
	queueNs, forwardNs *obs.Histogram

	// wmState is the router's stream position; pump-owned, mirrored in
	// the edge's Watermark for handlers.
	wmState int64

	// mu guards the merge state: membership ring, lanes, buffered
	// results, the frontier, and the output sequence.
	mu       sync.Mutex
	chring   *chash.Ring
	lanes    map[string]*lane
	seq      int64
	mergedWM int64
	// orphan holds buffered results of removed lanes not yet past the
	// frontier (normally empty: the rebalance barrier merges a dead
	// lane's completed windows before the lane is dropped).
	orphan map[int64][]server.WireResult

	opSeq atomic.Int64

	// standby is the autoscaler's pool of joinable fresh workers; r.mu.
	standby []WorkerSpec
	// lastAuto stamps the newest autoscale operation (cooldown base).
	lastAuto      atomic.Int64
	autoOut       atomic.Int64
	autoIn        atomic.Int64
	autoScaleFail atomic.Int64

	rebalances    atomic.Int64
	rebalanceFail atomic.Int64
	lastRebalance atomic.Int64 // nanoseconds
}

// New validates the workload and the workers, subscribes to every
// worker's punctuated stream, and starts the pump. The workers must be
// running, recovered, and all serving exactly Config.Queries.
func New(cfg Config) (*Router, error) {
	cfg.fill()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: at least one worker required")
	}
	r := &Router{
		cfg:      cfg,
		reg:      sharon.NewRegistry(),
		client:   &http.Client{},
		probeCli: &http.Client{Timeout: 2 * time.Second},
		wmState:  -1,
		lanes:    make(map[string]*lane),
		mergedWM: -1,
		orphan:   make(map[int64][]server.WireResult),
	}
	r.edge = server.NewEdge[routerCtl](cfg.EdgeConfig, server.EdgeTier{
		Prefix: "sharon_router_",
		Stages: []string{"decode_ndjson", "decode_binary", "queue", "forward", "fanout"},
		QueryKnown: func(id int) bool {
			_, ok := r.queries[id]
			return ok
		},
		StreamWatermark: func() int64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.mergedWM
		},
	})
	r.queueNs, r.forwardNs = r.edge.Stage("queue"), r.edge.Stage("forward")
	r.standby = append([]WorkerSpec(nil), cfg.Standby...)

	// Compile the workload exactly like a worker does: same queries,
	// same rates, same (deterministic) optimizer — the plan is part of
	// the hand-off protocol (adopt refuses a mismatch).
	r.queries = make(map[int]*sharon.Query, len(cfg.Queries))
	for i, text := range cfg.Queries {
		q, err := sharon.ParseQuery(text, r.reg)
		if err != nil {
			return nil, fmt.Errorf("cluster: query %d: %w", i, err)
		}
		q.ID = i
		r.queries[i] = q
		r.workload = append(r.workload, q)
	}
	if err := r.workload.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	first := r.workload[0]
	if !first.GroupBy {
		return nil, fmt.Errorf("cluster: the workload is ungrouped; a single aggregate over all keys cannot be hash-partitioned across workers")
	}
	for _, q := range r.workload[1:] {
		if q.Window != first.Window || q.GroupBy != first.GroupBy {
			return nil, fmt.Errorf("cluster: non-uniform workload; the cluster tier requires one uniform segment (same window, grouping, predicates)")
		}
	}
	rates := sharon.Rates{}
	for t := range r.workload.Types() {
		rates[t] = 1
	}
	for name, v := range cfg.Rates {
		if t := r.reg.Lookup(name); t != sharon.NoType {
			rates[t] = v
		}
	}
	plan, _, err := sharon.Optimize(r.workload, rates)
	if err != nil {
		return nil, fmt.Errorf("cluster: optimize: %w", err)
	}
	r.plan = plan
	lookup := make(map[string]sharon.Type)
	for _, name := range r.reg.Names() {
		lookup[name] = r.reg.Lookup(name)
	}
	r.edge.SetTypes(lookup)
	r.binPrefix = server.AppendWireTypeTable(server.AppendWireHeader(nil), r.reg.Names())
	r.fwdBufs.New = func() any { return new([]byte) }
	var m int64
	for _, q := range r.workload {
		if v := q.Window.Length + q.Window.Slide; v > m {
			m = v
		}
	}
	r.maxAdv = 16 * m

	ids := make([]string, len(cfg.Workers))
	for i, w := range cfg.Workers {
		ids[i] = w.URL
	}
	ring, err := chash.New(ids, cfg.VNodes)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	r.chring = ring
	// Any validation failure must tear down the lanes already
	// subscribed, or their reader goroutines and SSE streams leak into
	// the embedding process.
	abort := func(err error) (*Router, error) {
		for _, l := range r.lanes {
			l.gone.Store(true)
			l.cancel()
		}
		return nil, err
	}
	for _, spec := range cfg.Workers {
		if err := r.checkWorkerWorkload(spec.URL); err != nil {
			return abort(err)
		}
		ln, err := r.newLane(spec)
		if err != nil {
			return abort(err)
		}
		r.lanes[ln.id] = ln
	}
	r.routes()
	r.edge.Start(r.pump)
	go r.healthLoop()
	go r.autoscaleLoop()
	return r, nil
}

// checkWorkerWorkload verifies a worker serves exactly the router's
// queries (a mismatched worker would compute different results and
// poison the merged stream).
func (r *Router) checkWorkerWorkload(url string) error {
	resp, err := r.client.Get(url + "/queries")
	if err != nil {
		return fmt.Errorf("cluster: worker %s unreachable: %w", url, err)
	}
	defer resp.Body.Close()
	var body struct {
		Queries []struct {
			ID    int    `json:"id"`
			Query string `json:"query"`
		} `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("cluster: worker %s /queries: %w", url, err)
	}
	if len(body.Queries) != len(r.cfg.Queries) {
		return fmt.Errorf("cluster: worker %s serves %d queries, router configured with %d", url, len(body.Queries), len(r.cfg.Queries))
	}
	for i, q := range body.Queries {
		if q.ID != i || q.Query != r.cfg.Queries[i] {
			return fmt.Errorf("cluster: worker %s query %d is %q, router expects %q (all workers must run the router's exact workload)", url, q.ID, q.Query, r.cfg.Queries[i])
		}
	}
	return nil
}

// fail records a fatal cluster condition; /healthz turns red and the
// edge and pump refuse further work (operators must intervene — the
// router never guesses once the merged stream's completeness is in
// doubt).
func (r *Router) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	//sharon:allow lockio (some callers hold r.mu; the handler ultimately writes to a log sink, and a fatal-path log line is worth the stall risk)
	r.edge.Log.Error("cluster FAILED", "err", msg)
	r.edge.Fail(msg)
}

// --- pump ---

func (r *Router) pump() {
	for {
		select {
		case msg := <-r.edge.Ingest():
			r.step(msg)
			server.PutBatch(msg.Recycle)
		case <-r.edge.DrainRequested():
			for {
				select {
				case msg := <-r.edge.Ingest():
					r.step(msg)
					server.PutBatch(msg.Recycle)
				default:
					r.finish()
					return
				}
			}
		}
	}
}

// step handles one pump message: a control request or an ingest batch
// (late-filter, clamp, split by ring, retain hand-off deltas, forward).
//
//sharon:pump
func (r *Router) step(msg routerMsg) {
	stepStart := time.Now()
	if msg.AdmitNano > 0 {
		r.queueNs.Record(stepStart.UnixNano() - msg.AdmitNano)
	}
	if msg.Ctl != nil {
		r.applyCtl(msg.Ctl)
		return
	}
	if r.edge.Failed() != "" {
		return // accepted before failure; nowhere safe to route now
	}
	b := msg.Batch
	events := b.Events
	for len(events) > 0 && events[0].Time <= r.wmState {
		events = events[1:]
		r.edge.DroppedLate.Add(1)
	}
	base := r.wmState
	if len(events) > 0 {
		base = events[len(events)-1].Time
	}
	wm := int64(-1)
	if v := r.clampWatermarkFrom(base, b.Watermark); v > base {
		wm = v
	}
	if len(events) == 0 && wm < 0 {
		return
	}
	batchWM := base
	if wm > batchWM {
		batchWM = wm
	}
	r.wmState = batchWM
	r.edge.Watermark.Store(batchWM)
	if len(events) > 0 {
		r.edge.Ingested.Add(int64(len(events)))
		r.edge.Batches.Add(1)
	}

	members, sub := r.retainDelta(events, batchWM)
	fwdStart := time.Now()
	r.forwardAll(members, sub, batchWM)
	if len(events) > 0 {
		// One forward-stage sample and one batch span per event-carrying
		// step, so the stage count equals the batches counter (a CI
		// consistency check); watermark-only steps skip both.
		r.forwardNs.Record(time.Since(fwdStart).Nanoseconds())
		start := msg.AdmitNano
		if start <= 0 {
			start = stepStart.UnixNano()
		}
		r.edge.Tracer.Record(obs.Span{
			Kind:      "batch",
			Start:     start,
			DurNs:     time.Now().UnixNano() - start,
			Batch:     r.edge.Batches.Load(),
			Events:    int64(len(events)),
			Watermark: batchWM,
		})
	}
}

// retainDelta splits a step by the current ring and retains every
// worker's slice in its hand-off delta before anything is sent: a
// forward that fails mid-flight is already covered by the delta the
// successor replays. This is the router's durable-logging half — the
// cluster analogue of the server's WAL append — so walbeforeapply
// requires it to dominate forwardAll in the pump.
//
//sharon:logs
func (r *Router) retainDelta(events []sharon.Event, batchWM int64) (members []string, sub map[string][]sharon.Event) {
	now := time.Now().UnixNano()
	r.mu.Lock()
	members = r.chring.Members()
	sub = make(map[string][]sharon.Event, len(members))
	for _, e := range events {
		id := r.chring.Owner(e.Key)
		sub[id] = append(sub[id], e)
	}
	for _, id := range members {
		if ln := r.lanes[id]; ln != nil {
			ln.delta = append(ln.delta, persist.BatchRecord{Events: sub[id], Watermark: batchWM})
			// Stamp the watermark we are about to forward so the lane can
			// measure punctuation lag when its frontier passes it. Bounded:
			// telemetry is droppable, the delta is the correctness buffer.
			if len(ln.punctQ) < maxPunctStamps {
				ln.punctQ = append(ln.punctQ, punctStamp{wm: batchWM, at: now})
			}
		}
	}
	r.mu.Unlock()
	return members, sub
}

// forwardAll posts every worker its slice (watermark-only when empty)
// in parallel, retrying backpressure, and rebalances on a dead worker —
// re-forwarding nothing: the failed slice rides the hand-off delta.
//
//sharon:applies
func (r *Router) forwardAll(members []string, sub map[string][]sharon.Event, batchWM int64) {
	type outcome struct {
		id  string
		err error
	}
	results := make(chan outcome, len(members))
	for _, id := range members {
		go func(id string) {
			results <- outcome{id: id, err: r.forward(id, sub[id], batchWM)}
		}(id)
	}
	var dead []string
	for range members {
		o := <-results
		if o.err != nil {
			r.edge.Log.Error("forward failed", "worker", o.id, "err", o.err)
			dead = append(dead, o.id)
		}
	}
	sort.Strings(dead)
	for _, id := range dead {
		if r.edge.Failed() != "" {
			return
		}
		r.rebalanceDead(id)
	}
}

// forward posts one worker's slice of a step. 429 retries forever (the
// worker is alive and draining its queue); connection errors consult
// /healthz and strike the worker out after DeadAfter consecutive
// failed probes — a kill -9's connection-refused is detected in a few
// hundred milliseconds instead of stalling the stream for the whole
// probe-interval budget.
func (r *Router) forward(id string, events []sharon.Event, batchWM int64) error {
	ln := r.lane(id)
	if ln == nil {
		return fmt.Errorf("no lane for %s", id)
	}
	// Forward bodies are binary batch frames — no per-event JSON
	// marshalling on the hop, and the pooled buffer amortizes to zero
	// allocations per step. Workers negotiate the codec off the
	// Content-Type exactly like external clients.
	bufp := r.fwdBufs.Get().(*[]byte)
	defer r.fwdBufs.Put(bufp)
	*bufp = append((*bufp)[:0], r.binPrefix...)
	*bufp = server.AppendWireBatch(*bufp, events, batchWM)
	body := *bufp
	t0 := time.Now()
	deadline := t0.Add(time.Duration(r.cfg.DeadAfter) * r.cfg.HealthEvery)
	strikes := 0
	for {
		resp, err := r.client.Post(id+"/ingest", server.BatchContentType, bytes.NewReader(body))
		if err != nil {
			if healthy, _ := r.probe(id); !healthy {
				strikes++
				if strikes >= r.cfg.DeadAfter {
					return err
				}
			} else {
				strikes = 0
			}
			if time.Now().After(deadline) {
				return err
			}
			time.Sleep(100 * time.Millisecond)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			ln.forwardedEvents.Add(int64(len(events)))
			ln.forwardedBatches.Add(1)
			// Whole round trip including 429/503 retries: what the slowest
			// worker costs the step, not just the final successful POST.
			ln.forwardNs.Record(time.Since(t0).Nanoseconds())
			return nil
		case http.StatusTooManyRequests:
			ln.retries429.Add(1)
			time.Sleep(20 * time.Millisecond)
		case http.StatusServiceUnavailable:
			// Recovering or draining; give it the probe budget.
			if time.Now().After(deadline) {
				return fmt.Errorf("worker %s: 503 past deadline", id)
			}
			time.Sleep(100 * time.Millisecond)
		default:
			return fmt.Errorf("worker %s: ingest status %d", id, resp.StatusCode)
		}
	}
}

// clampWatermarkFrom mirrors the single-node watermark clamp (see
// server.publishMaxAdvance): the router applies it once so its stream
// position tracks exactly what every worker will compute.
func (r *Router) clampWatermarkFrom(base, wm int64) int64 {
	if wm < 0 {
		return wm
	}
	if base < 0 {
		base = 0
	}
	if limit := base + r.maxAdv; wm > limit {
		r.edge.Log.Warn("watermark clamped", "watermark", wm, "limit", limit)
		return limit
	}
	return wm
}

func (r *Router) lane(id string) *lane {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lanes[id]
}

// finish ends the merged stream: subscribers get eof. Workers are left
// running — the router owns the stream, not the fleet.
func (r *Router) finish() {
	r.mu.Lock()
	for _, ln := range r.lanes {
		//sharon:allow lockio (context.CancelFunc never blocks: it closes the done channel)
		ln.cancel()
	}
	r.mu.Unlock()
	r.edge.Hub.Shutdown()
	r.edge.Log.Info("router drained", "events_forwarded", r.edge.Ingested.Load(), "results_merged", r.edge.Emitted.Load())
}

// Drain stops ingestion and ends the merged stream. Idempotent.
func (r *Router) Drain(ctx context.Context) error { return r.edge.Drain(ctx) }

// healthLoop probes the workers and injects death checks for broken
// ones; it also refreshes the per-worker occupancy gauges.
func (r *Router) healthLoop() {
	t := time.NewTicker(r.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-r.edge.Done():
			return
		case <-t.C:
		}
		r.mu.Lock()
		lanes := make([]*lane, 0, len(r.lanes))
		for _, ln := range r.lanes {
			lanes = append(lanes, ln)
		}
		r.mu.Unlock()
		for _, ln := range lanes {
			healthy, groups := r.probe(ln.id)
			ln.healthy.Store(healthy)
			if groups >= 0 {
				ln.groups.Store(groups)
			}
			if healthy {
				ln.misses.Store(0)
				continue
			}
			if n := ln.misses.Add(1); n >= int64(r.cfg.DeadAfter) {
				r.suspectDead(ln.id)
			}
		}
	}
}

// probe checks one worker's /healthz and reads its live-group gauge.
// It uses a short-timeout client so a black-holed worker cannot hang
// the caller (the pump's forward path strikes workers out with it).
func (r *Router) probe(id string) (healthy bool, groups int64) {
	groups = -1
	resp, err := r.probeCli.Get(id + "/healthz")
	if err != nil {
		return false, groups
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, groups
	}
	if m, err := r.probeCli.Get(id + "/metrics"); err == nil {
		var st struct {
			GroupsLive int64 `json:"groups_live"`
		}
		if json.NewDecoder(m.Body).Decode(&st) == nil {
			groups = st.GroupsLive
		}
		io.Copy(io.Discard, m.Body)
		m.Body.Close()
	}
	return true, groups
}

// suspectDead asks the pump to re-probe and, if confirmed, rebalance.
// Non-blocking: if the queue is full the next health tick retries.
func (r *Router) suspectDead(id string) {
	r.edge.Offer(routerMsg{Ctl: &routerCtl{deadcheck: id}})
}

// --- HTTP ---

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler { return r.edge.Handler() }

// ListenAndServe serves the handler on addr, draining after ctx ends.
func (r *Router) ListenAndServe(ctx context.Context, addr string) error {
	return r.edge.ListenAndServe(ctx, addr)
}

// routes registers the router's own routes; the edge serves /ingest,
// /watermark, /subscribe, /subscribe/ws and /debug/traces.
func (r *Router) routes() {
	e := r.edge
	e.HandleFunc("GET /{$}", r.handleIndex)
	e.HandleFunc("GET /metrics", r.handleMetrics)
	e.HandleFunc("GET /healthz", r.handleHealthz)
	e.HandleFunc("GET /queries", r.handleQueries)
	e.HandleFunc("GET /cluster/workers", r.handleWorkersGet)
	e.HandleFunc("POST /cluster/workers", r.handleWorkersPost)
	e.HandleFunc("DELETE /cluster/workers", r.handleWorkersDelete)
}

func (r *Router) handleIndex(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `sharon-router — clustered shared event sequence aggregation

POST   /ingest                  NDJSON events; consistent-hash routed across workers
POST   /watermark               {"watermark":T} — fanned out to every worker
GET    /subscribe               merged SSE result stream, single-node byte-identical
                                (?query=ID filters, ?after=N resumes,
                                ?type=result&type=wm&type=adopted adds watermark marks)
GET    /queries                 the cluster workload
GET    /metrics                 router + per-worker shard counters
                                (JSON; ?format=prometheus for text exposition
                                including a scraped cluster-wide worker view)
GET    /debug/traces            recent pipeline spans (?n=100)
GET    /healthz                 ok | rebalancing | error | draining
GET    /cluster/workers         membership + rebalance state
POST   /cluster/workers         {"url":..., "data_dir":...} — join a worker (live rebalance)
DELETE /cluster/workers?url=U   graceful leave (ranges handed to survivors)
`)
}

func (r *Router) handleQueries(w http.ResponseWriter, req *http.Request) {
	out := make([]map[string]any, len(r.cfg.Queries))
	for i, text := range r.cfg.Queries {
		out[i] = map[string]any{"id": i, "label": r.queries[i].Label(), "query": text}
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"queries": out})
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if f := r.edge.Failed(); f != "" {
		server.WriteJSON(w, http.StatusInternalServerError, map[string]string{"status": "error", "error": f})
		return
	}
	if r.edge.Draining() {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	st := metrics.RouterStats{
		EdgeStats:        r.edge.Stats(len(r.cfg.Queries)),
		AutoScaleOut:     r.autoOut.Load(),
		AutoScaleIn:      r.autoIn.Load(),
		AutoScaleFailed:  r.autoScaleFail.Load(),
		Rebalances:       r.rebalances.Load(),
		RebalancesFailed: r.rebalanceFail.Load(),
		LastRebalanceMs:  float64(r.lastRebalance.Load()) / 1e6,
		Error:            r.edge.Failed(),
	}
	r.mu.Lock()
	st.MergedWatermark = r.mergedWM
	st.StandbyWorkers = len(r.standby)
	ids := make([]string, 0, len(r.lanes))
	for id := range r.lanes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ln := r.lanes[id]
		pending := 0
		for _, rs := range ln.pending {
			pending += len(rs)
		}
		st.Workers = append(st.Workers, metrics.RouterWorkerStats{
			ID:               id,
			Healthy:          ln.healthy.Load(),
			Frontier:         ln.frontier,
			EventsForwarded:  ln.forwardedEvents.Load(),
			BatchesForwarded: ln.forwardedBatches.Load(),
			Retries429:       ln.retries429.Load(),
			PendingResults:   pending,
			DeltaBatches:     len(ln.delta),
			GroupsLive:       ln.groups.Load(),
			Forward:          laneSummary(&ln.forwardNs),
			MergeHold:        laneSummary(&ln.holdNs),
			PunctLag:         laneSummary(&ln.punctNs),
		})
	}
	r.mu.Unlock()
	if obs.MetricsFormat(req) == "prometheus" {
		r.edge.WriteProm(w, st.EdgeStats, func(pw *obs.PromWriter) { r.writeProm(pw, st) })
		return
	}
	server.WriteJSON(w, http.StatusOK, st)
}

func (r *Router) handleWorkersGet(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	members := r.chring.Members()
	specs := make([]map[string]any, 0, len(members))
	for _, id := range members {
		ln := r.lanes[id]
		m := map[string]any{"url": id}
		if ln != nil {
			m["data_dir"] = ln.spec.DataDir
			m["healthy"] = ln.healthy.Load()
			m["frontier"] = ln.frontier
		}
		specs = append(specs, m)
	}
	r.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"workers":    specs,
		"vnodes":     r.cfg.VNodes,
		"rebalances": r.rebalances.Load(),
	})
}

// sendCtl submits a membership change through the pump and waits.
func (r *Router) sendCtl(w http.ResponseWriter, ctl *routerCtl) {
	ctl.reply = make(chan ctlResult, 1)
	if !r.edge.Enqueue(w, routerMsg{Ctl: ctl}) {
		return
	}
	select {
	case res := <-ctl.reply:
		server.WriteJSON(w, res.status, res.body)
	case <-time.After(2 * time.Minute):
		server.WriteErr(w, http.StatusGatewayTimeout, "membership change timed out")
	}
}

func (r *Router) handleWorkersPost(w http.ResponseWriter, req *http.Request) {
	var spec WorkerSpec
	lim := http.MaxBytesReader(w, req.Body, 1<<20)
	if err := json.NewDecoder(lim).Decode(&spec); err != nil || spec.URL == "" {
		server.WriteErr(w, http.StatusBadRequest, `want {"url":"http://...", "data_dir":"..."}`)
		return
	}
	spec.URL = strings.TrimSuffix(spec.URL, "/")
	r.sendCtl(w, &routerCtl{join: &spec})
}

// handleWorkersDelete removes a worker gracefully. The worker URL is a
// query parameter (URLs do not survive path cleaning as path segments):
// DELETE /cluster/workers?url=http://127.0.0.1:9001
func (r *Router) handleWorkersDelete(w http.ResponseWriter, req *http.Request) {
	id := strings.TrimSuffix(req.URL.Query().Get("url"), "/")
	if id == "" {
		server.WriteErr(w, http.StatusBadRequest, "worker url required: DELETE /cluster/workers?url=...")
		return
	}
	r.sendCtl(w, &routerCtl{leave: id})
}
