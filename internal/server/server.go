package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/obs"
	"github.com/sharon-project/sharon/internal/persist"
)

// DefaultQueries is the demo workload (one shared (C,D) segment over
// the A..D alphabet, 4s windows sliding 1s): what sharond serves when
// no queries are configured, what sharon-load's default event cycle
// matches, and what the sharon-bench "server" experiment measures —
// one definition so the committed BENCH_server.json trajectory keeps
// measuring the served shape.
var DefaultQueries = []string{
	"RETURN COUNT(*) PATTERN SEQ(A, B, C, D) WHERE [k] WITHIN 4s SLIDE 1s",
	"RETURN COUNT(*) PATTERN SEQ(C, D) WHERE [k] WITHIN 4s SLIDE 1s",
	"RETURN COUNT(*) PATTERN SEQ(A, B) WHERE [k] WITHIN 4s SLIDE 1s",
}

// Config configures a sharond server.
type Config struct {
	// Queries are the initial workload's query texts (SASE-style surface
	// language). At least one is required.
	Queries []string
	// Rates supplies per-type rates (by type name) for the optimizer's
	// benefit model; nil assumes uniform rates.
	Rates map[string]float64
	// EmitEmpty also pushes zero results for windows without matches.
	EmitEmpty bool
	// Parallelism selects the engine's shard worker count (see
	// sharon.Options.Parallelism; 1 = sequential, the default here —
	// deterministic push order across live workload changes).
	Parallelism int
	// Dynamic sets sharon.Options.Dynamic: the system also re-optimizes
	// the plan when measured event rates drift mid-stream. Requires a
	// uniform workload.
	Dynamic bool
	// Adaptive switches Dynamic to per-burst share-vs-split decisions
	// (sharon.DynamicOptions.Adaptive); implies Dynamic. The
	// detector state and transition counters surface on /metrics.
	Adaptive bool

	// The request edge's settings (see EdgeConfig for their meaning
	// and defaults). They stay top-level here so Config literals can
	// set them; the router embeds EdgeConfig instead.
	MaxBatchBytes  int64
	IngestQueue    int
	ReplayBuffer   int
	FanoutWriters  int
	HeartbeatEvery time.Duration
	WriteTimeout   time.Duration
	TraceSpans     int
	Logger         *slog.Logger

	// DataDir enables durability: an append-only WAL of applied ingest
	// steps plus periodic engine checkpoints live under this directory,
	// and a restart recovers the serving state from them. Empty =
	// in-memory only (the pre-durability behavior).
	DataDir string
	// CheckpointEvery is the periodic checkpoint interval (default 10s).
	CheckpointEvery time.Duration
	// Fsync is the WAL sync policy (default persist.FsyncInterval);
	// FsyncEvery is the FsyncInterval period (default 1s).
	Fsync      persist.FsyncPolicy
	FsyncEvery time.Duration
	// WALSegmentBytes sets the WAL segment rotation size (default 16 MiB).
	WALSegmentBytes int64

	// streamAckAfter bounds how long a streaming-ingest batch waits for
	// queue space before the server acks busy (the stream's
	// 429-equivalent; default 1s). Unexported: tests shrink it to force
	// backpressure acks deterministically.
	streamAckAfter time.Duration

	// pumpGate, when non-nil, stalls the pump before each consumed
	// message until the channel yields (tests force queue buildup).
	pumpGate chan struct{}
	// recoveryGate, when non-nil, stalls the pump before WAL replay
	// until the channel yields (tests observe the recovering state).
	recoveryGate chan struct{}
	// walFault, when non-nil, is consulted after each live WAL append;
	// a non-nil return fails the append (tests simulate a full disk).
	walFault func() error
}

// edge returns the request edge's share of the config.
func (c *Config) edge() EdgeConfig {
	return EdgeConfig{
		MaxBatchBytes:  c.MaxBatchBytes,
		IngestQueue:    c.IngestQueue,
		ReplayBuffer:   c.ReplayBuffer,
		FanoutWriters:  c.FanoutWriters,
		HeartbeatEvery: c.HeartbeatEvery,
		WriteTimeout:   c.WriteTimeout,
		TraceSpans:     c.TraceSpans,
		Logger:         c.Logger,
	}
}

func (c *Config) fill() {
	if c.Adaptive {
		c.Dynamic = true // adaptive mode runs on the dynamic system
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 10 * time.Second
	}
	if c.FsyncEvery <= 0 {
		c.FsyncEvery = time.Second
	}
	if c.Parallelism == 0 {
		c.Parallelism = 1
	}
	if c.streamAckAfter <= 0 {
		c.streamAckAfter = time.Second
	}
}

// pumpMsg is one unit of pump work: a parsed ingest batch or a
// control-plane request (live workload change). Recycling the batch
// after the step is safe because FeedBatch and the WAL encoder both
// copy events — nothing downstream retains the slice.
type pumpMsg = PumpMsg[ctlReq]

// workloadView is the immutable snapshot handlers read lock-free.
type workloadView struct {
	entries []queryEntry
	queries map[int]*sharon.Query
	plan    string
	score   float64
	uniform bool
}

// Server is a running sharond instance: one pump goroutine owning the
// engine behind the shared request edge, whose hub fans the engine's
// OnResult sink out to the subscriptions.
type Server struct {
	cfg  Config
	reg  *sharon.Registry
	edge *Edge[ctlReq]

	// The server's own latency stages, in nanoseconds; the edge records
	// decode_ndjson, decode_binary and fanout (see README
	// "Observability"):
	//
	//	decode_stream  one /ingest/stream frame read + parse
	//	queue          ingest-queue admit → pump dequeue
	//	apply          engine feed + watermark advance for one batch
	//	emit           ingest-queue admit → result published
	decodeStream, queue, apply, emit *obs.Histogram
	// batchStamp is the admit time of the step the pump is currently
	// applying; the sink reads it to attribute emitted results to their
	// triggering batch (the ingest-to-emit "emit" stage).
	batchStamp atomic.Int64
	// connID numbers streaming-ingest connections for log correlation.
	connID atomic.Int64
	// lastWinTraced dedups window-close trace spans (one per window,
	// not one per (query, group) result).
	lastWinTraced atomic.Int64

	// Lock-free workload snapshot for the HTTP handlers.
	view atomic.Value // *workloadView

	// Engine state, owned by the pump goroutine after New returns.
	cur         *builtSystem
	old         *builtSystem // draining side of a live workload change
	oldBoundary int64
	nextID      int
	wmState     int64 // stream watermark (max event time / punctuation)
	typeCounts  map[sharon.Type]float64
	countFrom   int64
	lastStatsAt time.Time

	// Durability (nil wal = disabled). The WAL, appliedSeq, and the
	// checkpoint timer are owned by the pump after recovery.
	wal           *persist.WAL
	appliedSeq    int64
	lastCkptTimer time.Time

	// Counters, written by the pump/sink, read by the handlers; the
	// ingest counters live on the edge.
	seq             atomic.Int64
	migrations      atomic.Int64
	burstState      atomic.Int32 // exec.BurstState of the last decision
	shareTrans      atomic.Int64
	splitTrans      atomic.Int64
	prunedStarts    atomic.Int64
	maxAdvance      atomic.Int64
	peakStates      atomic.Int64
	groupsLive      atomic.Int64
	parStats        atomic.Pointer[metrics.ParallelStatsJSON]
	recovering      atomic.Bool
	replayedBatches atomic.Int64
	replayedEvents  atomic.Int64
	checkpoints     atomic.Int64
	lastCkptAt      atomic.Int64
	lastCkptBytes   atomic.Int64
	walStats        atomic.Pointer[persist.WALStats]
}

// New builds the workload, starts the engine and the pump, and returns
// a server ready to have Handler served. Stop it with Drain.
//
// With Config.DataDir set, New loads the newest checkpoint (its
// workload — including live-registered queries — overrides
// Config.Queries) and the pump replays the WAL tail before consuming
// new work; /healthz reports "recovering" (503) until replay completes.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:           cfg,
		reg:           sharon.NewRegistry(),
		wmState:       -1,
		typeCounts:    make(map[sharon.Type]float64),
		countFrom:     -1,
		appliedSeq:    -1,
		lastCkptTimer: time.Now(),
	}
	s.edge = NewEdge[ctlReq](cfg.edge(), EdgeTier{
		Prefix: "sharon_",
		Stages: []string{"decode_ndjson", "decode_binary", "decode_stream", "queue", "apply", "emit", "fanout"},
		QueryKnown: func(id int) bool {
			_, ok := s.loadView().queries[id]
			return ok
		},
	})
	s.decodeStream, s.queue = s.edge.Stage("decode_stream"), s.edge.Stage("queue")
	s.apply, s.emit = s.edge.Stage("apply"), s.edge.Stage("emit")
	s.lastWinTraced.Store(-1)

	if cfg.DataDir != "" {
		if err := s.initDurability(); err != nil {
			return nil, err
		}
	}
	if s.cur == nil { // no checkpoint: compile the configured workload
		// A boot failure past this point discards the server; the WAL
		// handle initDurability may have opened must not leak with it.
		fail := func(err error) (*Server, error) {
			if s.wal != nil {
				s.wal.Close()
			}
			return nil, err
		}
		if len(cfg.Queries) == 0 {
			return fail(fmt.Errorf("server: no queries configured"))
		}
		entries := make([]queryEntry, len(cfg.Queries))
		for i, text := range cfg.Queries {
			q, err := sharon.ParseQuery(text, s.reg)
			if err != nil {
				return fail(fmt.Errorf("server: query %d: %w", i, err))
			}
			q.ID = i
			entries[i] = queryEntry{ID: i, Text: text, Q: q}
		}
		s.nextID = len(entries)

		cur, err := s.buildSystem(entries, s.configuredRates(workloadOf(entries)), nil, 0)
		if err != nil {
			return fail(fmt.Errorf("server: %w", err))
		}
		s.cur = cur
	}
	s.publishView()
	s.publishDurabilityStats()
	s.routes()
	s.edge.Start(s.pump)
	return s, nil
}

// publishMaxAdvance bounds how far one watermark message may advance
// the stream watermark past the newest event: 16 of the workload's
// largest (window length + slide). Closing windows costs one iteration
// per slide, so an unbounded client-supplied watermark (a stray epoch
// timestamp, a hostile huge value) would livelock the pump closing
// quintillions of empty windows and poison the stream by making every
// future event late; the cap keeps each message's work bounded while
// still letting a tail-closing watermark (last event + window length)
// or a quiet-stream client advancing in steps pass freely. Called from
// New and applyCtl (pump); read by handlers.
func (s *Server) publishMaxAdvance() {
	var m int64
	for _, e := range s.cur.entries {
		if v := e.Q.Window.Length + e.Q.Window.Slide; v > m {
			m = v
		}
	}
	s.maxAdvance.Store(16 * m)
}

// configuredRates maps Config.Rates onto the workload's types; nil
// Config.Rates yields uniform rates.
func (s *Server) configuredRates(w sharon.Workload) sharon.Rates {
	rates := sharon.Rates{}
	for t := range w.Types() {
		rates[t] = 1
	}
	for name, v := range s.cfg.Rates {
		if t := s.reg.Lookup(name); t != sharon.NoType {
			rates[t] = v
		}
	}
	return rates
}

// publishView refreshes the handler-visible workload/type snapshots.
// Called from New and from the pump (applyCtl); handlers only read.
func (s *Server) publishView() {
	s.publishMaxAdvance()
	v := &workloadView{
		entries: append([]queryEntry(nil), s.cur.entries...),
		queries: make(map[int]*sharon.Query, len(s.cur.entries)),
		uniform: s.cur.sys.Segments() == 1,
		score:   s.cur.sys.PlanScore(),
	}
	for _, e := range s.cur.entries {
		v.queries[e.ID] = e.Q
	}
	if s.cur.plan != nil {
		v.plan = s.cur.plan.Format(s.reg, workloadOf(s.cur.entries))
	}
	s.view.Store(v)

	lookup := make(map[string]sharon.Type)
	for _, name := range s.reg.Names() {
		lookup[name] = s.reg.Lookup(name)
	}
	s.edge.SetTypes(lookup)
}

func (s *Server) loadView() *workloadView { return s.view.Load().(*workloadView) }

// --- pump ---

// pump is the single goroutine that owns the engine: it consumes
// parsed batches and control requests from the bounded queue, feeds the
// system(s), advances the watermark, and — on drain — flushes every
// open window into the hub before shutting the subscriptions down.
//
//sharon:pump
func (s *Server) pump() {
	if s.wal != nil {
		if s.cfg.recoveryGate != nil {
			<-s.cfg.recoveryGate
		}
		if err := s.recoverWAL(); err != nil {
			s.fail(err)
		}
		s.recovering.Store(false)
		s.publishDurabilityStats()
	}
	// On the FsyncInterval policy, a quiet stream's WAL tail must still
	// reach stable storage within FsyncEvery: Append-driven syncing
	// stops the moment traffic does, so the pump ticks an idle sync.
	var idleSync <-chan time.Time
	if s.wal != nil && s.cfg.Fsync == persist.FsyncInterval {
		t := time.NewTicker(s.cfg.FsyncEvery)
		defer t.Stop()
		idleSync = t.C
	}
	for {
		select {
		case msg := <-s.edge.Ingest():
			if s.cfg.pumpGate != nil {
				<-s.cfg.pumpGate
			}
			s.step(msg)
			PutBatch(msg.Recycle)
		case <-idleSync:
			if err := s.wal.SyncIfDirty(); err != nil {
				s.fail(err)
			}
		case <-s.edge.DrainRequested():
			for {
				select {
				case msg := <-s.edge.Ingest():
					s.step(msg)
					PutBatch(msg.Recycle)
				default:
					s.finish()
					return
				}
			}
		}
	}
}

// step executes one pump message: log-then-apply for batches, with
// control frames dispatched to their own logged apply paths.
//
//sharon:pump
func (s *Server) step(msg pumpMsg) {
	stepStart := time.Now()
	if msg.AdmitNano > 0 {
		s.queue.Record(stepStart.UnixNano() - msg.AdmitNano)
		s.batchStamp.Store(msg.AdmitNano)
	} else {
		s.batchStamp.Store(stepStart.UnixNano())
	}
	if msg.Ctl != nil {
		switch {
		case msg.Ctl.adopt != nil:
			s.applyAdopt(msg.Ctl)
		case msg.Ctl.extract != nil:
			s.applyExtract(msg.Ctl)
		default:
			s.applyCtl(msg.Ctl)
		}
		return
	}
	b := msg.Batch
	// Drop late events: the watermark is a promise already made to the
	// engine; a slow client replaying the past cannot corrupt the run.
	// After a restart the watermark comes back from the checkpoint+WAL,
	// so a client re-sending past the published watermark deduplicates
	// here — the delivery-retry half of exactly-once ingestion.
	events := b.Events
	for len(events) > 0 && events[0].Time <= s.wmState {
		events = events[1:]
		s.edge.DroppedLate.Add(1)
	}
	// Resolve the effective watermark against the post-batch stream
	// position so the logged record captures exactly what is applied.
	base := s.wmState
	if len(events) > 0 {
		base = events[len(events)-1].Time
	}
	wm := int64(-1)
	if v := s.clampWatermarkFrom(base, b.Watermark); v > base {
		wm = v
	}
	if len(events) == 0 && wm < 0 {
		return // fully late / no-op step: nothing to log or apply
	}
	// Log before apply: a crash after this point replays the step.
	if s.wal != nil {
		seq, err := s.wal.Append(persist.RecBatch, persist.EncodeBatchRecord(persist.BatchRecord{Events: events, Watermark: wm}))
		if err == nil && s.cfg.walFault != nil {
			err = s.cfg.walFault()
		}
		if err != nil {
			s.fail(err)
			return
		}
		s.appliedSeq = seq
	}
	applyStart := time.Now()
	s.applyBatch(events, wm)
	if len(events) > 0 {
		// Recorded under the same condition applyBatch counts a batch, so
		// the apply stage's count equals the batches counter for live
		// traffic — the invariant the CI smoke jobs assert.
		s.apply.Record(time.Since(applyStart).Nanoseconds())
		s.edge.Tracer.Record(obs.Span{
			Kind:      "batch",
			Start:     s.batchStamp.Load(),
			DurNs:     time.Now().UnixNano() - s.batchStamp.Load(),
			Batch:     s.edge.Batches.Load(),
			Events:    int64(len(events)),
			Watermark: s.wmState,
		})
	}
	s.maybeCheckpoint()
	s.punctuate()
}

// punctuate publishes a watermark punctuation control frame after an
// applied step: "every result for windows ending at or before W has
// been delivered". The cluster router's merge frontier is built on
// these markers. Costs nothing without punctuating subscribers; with a
// parallel engine the pump quiesces the merge stage first so the
// marker cannot overtake the results it covers.
func (s *Server) punctuate() {
	if s.edge.Hub.PunctCount() == 0 {
		return
	}
	if s.old != nil {
		if err := s.old.sys.Quiesce(); err != nil {
			s.fail(err)
			return
		}
	}
	if err := s.cur.sys.Quiesce(); err != nil {
		s.fail(err)
		return
	}
	s.edge.Hub.PublishCtl("wm", fmt.Appendf(nil, `{"watermark":%d}`, s.wmState))
}

// applyBatch feeds one late-filtered batch and effective watermark into
// the engines: the single apply path shared by live ingestion and WAL
// replay, so a replayed step is indistinguishable from the original.
//
//sharon:applies
func (s *Server) applyBatch(events []sharon.Event, wm int64) {
	// Replay defense: the records are logged post-filter, but a step is
	// only correct against the watermark it was logged under.
	for len(events) > 0 && events[0].Time <= s.wmState {
		events = events[1:]
	}
	if len(events) > 0 {
		if s.countFrom < 0 {
			s.countFrom = events[0].Time
		}
		for _, e := range events {
			s.typeCounts[e.Type]++
		}
		if err := s.feed(events); err != nil {
			s.fail(err)
			return
		}
		s.edge.Ingested.Add(int64(len(events)))
		s.edge.Batches.Add(1)
		s.wmState = events[len(events)-1].Time
	}
	if wm > s.wmState {
		s.wmState = wm
		// Draining system first, as in feed/finish: its windows precede
		// the boundary, so a watermark straddling a migration must emit
		// them before the current system's.
		if s.old != nil {
			s.old.sys.AdvanceWatermark(wm)
		}
		s.cur.sys.AdvanceWatermark(wm)
	}
	s.completeHandoff()
	s.publishEngineStats(false)
}

// feed routes one late-filtered, time-ordered batch into the current
// system and — during a live workload change — the draining one.
func (s *Server) feed(events []sharon.Event) error {
	if s.old != nil {
		if err := s.old.sys.FeedBatch(events); err != nil {
			return err
		}
	}
	return s.cur.sys.FeedBatch(events)
}

// clampWatermarkFrom bounds a requested watermark to the given stream
// position plus the per-message advancement cap (see
// publishMaxAdvance). The clamp is sound — a watermark is a lower-bound
// promise, so honoring less of it never corrupts results — and a
// legitimate client advancing a quiet stream simply sends the next
// watermark message.
func (s *Server) clampWatermarkFrom(base, wm int64) int64 {
	if wm < 0 {
		return wm
	}
	if base < 0 {
		base = 0
	}
	if limit := base + s.maxAdvance.Load(); wm > limit {
		s.edge.Log.Warn("watermark clamped", "requested", wm, "clamped_to", limit, "max_advance", s.maxAdvance.Load())
		return limit
	}
	return wm
}

// completeHandoff retires the draining system once the watermark passed
// its last owned window ([.., boundary-1]); Flush emits those windows
// through its capped sink, never the boundary or later.
func (s *Server) completeHandoff() {
	if s.old == nil || s.wmState < s.old.win.End(s.oldBoundary-1) {
		return
	}
	if err := s.old.sys.Flush(); err != nil {
		s.fail(err)
	}
	s.old.sys.Close()
	s.old = nil
}

// publishEngineStats refreshes the /metrics gauges that require
// touching pump-owned engine state. The peak-state and group gauges are
// counter reads, but a sharded system's stats snapshot allocates per
// worker and, under -dynamic, the prune count walks every group's
// aggregators, so the refresh is rate-limited to twice a second rather
// than paid per batch; the watermark gauge is a cheap atomic and always
// current.
func (s *Server) publishEngineStats(force bool) {
	s.edge.Watermark.Store(s.wmState)
	if !force && time.Since(s.lastStatsAt) < 500*time.Millisecond {
		return
	}
	s.lastStatsAt = time.Now()
	s.peakStates.Store(s.cur.sys.PeakMemoryStates())
	s.groupsLive.Store(s.cur.sys.GroupCount())
	s.parStats.Store(metrics.WireParallelStats(s.cur.sys.ParallelStats()))
	// Zero without -dynamic, and on the parallel path until drained
	// (like PeakMemoryStates).
	s.prunedStarts.Store(s.cur.sys.DynamicStats().PrunedStarts)
}

// fail records an engine or WAL error. The late filter makes ordering
// errors unreachable, so an engine error here is a server bug; a WAL
// error is a full or failing disk. Either way /healthz turns red and
// the edge refuses further ingest, so nothing is acknowledged that the
// server can no longer log.
func (s *Server) fail(err error) {
	s.edge.Log.Error("engine error", "err", err)
	s.edge.Fail(err.Error())
}

// finish is the drain tail. Without durability it flushes every open
// window into the subscriptions (the stream ends here, emit what we
// have). With durability the open windows are the next incarnation's
// state: finish writes a final checkpoint instead of flushing, so a
// SIGTERM'd node hands its exact position to its successor and no
// window is ever emitted twice — once partial at drain, once complete
// after restart — across the pair.
func (s *Server) finish() {
	if s.wal != nil {
		s.publishEngineStats(true)
		s.checkpoint(true) // no-op while a workload change drains; the WAL covers it
		if err := s.wal.Close(); err != nil {
			s.edge.Log.Error("wal close", "err", err)
		}
		s.publishDurabilityStats()
		if s.old != nil {
			s.old.sys.Close()
			s.old = nil
		}
		s.cur.sys.Close()
		s.edge.Hub.Shutdown()
		s.edge.Log.Info("drained (durable)", "events", s.edge.Ingested.Load(), "results", s.edge.Emitted.Load(), "wal_seq", s.appliedSeq)
		return
	}
	if s.old != nil {
		if err := s.old.sys.Flush(); err != nil {
			s.fail(err)
		}
		s.old.sys.Close()
		s.old = nil
	}
	if err := s.cur.sys.Flush(); err != nil {
		s.fail(err)
	}
	s.cur.sys.Close()
	s.publishEngineStats(true)
	s.edge.Hub.Shutdown()
	s.edge.Log.Info("drained", "events", s.edge.Ingested.Load(), "results", s.edge.Emitted.Load())
}

// measuredRates converts the pump's observed per-type counts into
// rates for re-optimization; nil when the stream is too young.
func (s *Server) measuredRates() sharon.Rates {
	if s.countFrom < 0 || s.wmState <= s.countFrom {
		return nil
	}
	span := float64(s.wmState-s.countFrom) / sharon.TicksPerSecond
	rates := make(sharon.Rates, len(s.typeCounts))
	for t, c := range s.typeCounts {
		rates[t] = c / span
	}
	return rates
}

// Drain stops ingestion, flushes every open window into the
// subscriptions, and ends them with an eof frame. It returns when the
// pump finished or ctx expired. Idempotent.
func (s *Server) Drain(ctx context.Context) error { return s.edge.Drain(ctx) }

// --- HTTP ---

// Handler returns the server's HTTP handler (for tests and embedding;
// ListenAndServe wraps it with an http.Server).
func (s *Server) Handler() http.Handler { return s.edge.Handler() }

// ListenAndServe serves the handler on addr, draining after ctx ends
// (see Edge.ListenAndServe).
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	return s.edge.ListenAndServe(ctx, addr)
}

// routes registers the server's own routes; the edge serves /ingest,
// /watermark, /subscribe, /subscribe/ws and /debug/traces.
func (s *Server) routes() {
	e := s.edge
	e.HandleFunc("GET /{$}", s.handleIndex)
	e.HandleFunc("POST /ingest/stream", s.handleIngestStream)
	e.HandleFunc("GET /metrics", s.handleMetrics)
	e.HandleFunc("GET /healthz", s.handleHealthz)
	e.HandleFunc("GET /queries", s.handleQueriesGet)
	e.HandleFunc("POST /queries", s.handleQueriesPost)
	e.HandleFunc("DELETE /queries/{id}", s.handleQueriesDelete)
	e.HandleFunc("POST /cluster/extract", s.handleClusterExtract)
	e.HandleFunc("POST /cluster/adopt", s.handleClusterAdopt)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `sharond — shared online event sequence aggregation server

POST   /ingest        NDJSON events {"type":"A","time":1200,"key":7,"val":1.5}
                      and watermarks {"watermark":5000}; 429 = backpressure;
                      Content-Type application/x-sharon-batch selects the
                      binary batch codec (see README "Wire formats")
POST   /ingest/stream long-lived binary ingest: one request, many CRC-framed
                      batches, per-batch acks (busy = backpressure)
POST   /watermark     {"watermark":5000} — close windows ending at or before it
GET    /subscribe     SSE result stream; repeatable query=/group=/type= filters,
                      after=N or Last-Event-ID resume; data: frames carry
                      {"seq","query","win","start","end","group","count","value"}
GET    /subscribe/ws  the same stream over WebSocket (same filters and resume)
GET    /queries       registered queries + sharing plan
POST   /queries       {"query":"RETURN ..."} — live registration (plan diff in response)
DELETE /queries/{id}  live deregistration
GET    /metrics       counters + per-stage latency histograms; JSON by default,
                      Prometheus text via ?format=prometheus or Accept: text/plain
GET    /debug/traces  recent pipeline spans (batch apply, window emit) as JSON
GET    /healthz       ok | draining
POST   /cluster/extract  cluster rebalance: cut a hash range out (router-driven)
POST   /cluster/adopt    cluster rebalance: graft a hash range in (router-driven)
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	v := s.loadView()
	st := metrics.ServerStats{
		EdgeStats:        s.edge.Stats(len(v.entries)),
		Parallelism:      s.cfg.Parallelism,
		Migrations:       s.migrations.Load(),
		ShareTransitions: s.shareTrans.Load(),
		SplitTransitions: s.splitTrans.Load(),
		PrunedStarts:     s.prunedStarts.Load(),
		PeakLiveStates:   s.peakStates.Load(),
		GroupsLive:       s.groupsLive.Load(),
		Parallel:         s.parStats.Load(),
		Durability:       s.durabilityStats(),
	}
	st.Stages["wire_batch_events"] = wireBatchEvents.Snapshot().Summary(1)
	if s.cfg.Adaptive {
		st.BurstState = sharon.BurstState(s.burstState.Load()).String()
	}
	if obs.MetricsFormat(r) == "prometheus" {
		s.edge.WriteProm(w, st.EdgeStats, func(pw *obs.PromWriter) { writeProm(pw, st) })
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if f := s.edge.Failed(); f != "" {
		WriteJSON(w, http.StatusInternalServerError, map[string]string{"status": "error", "error": f})
		return
	}
	// A replaying node is not ready for traffic: load balancers must not
	// route to it until the WAL tail has been re-applied.
	if s.recovering.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":           "recovering",
			"replayed_batches": s.replayedBatches.Load(),
		})
		return
	}
	if s.edge.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
