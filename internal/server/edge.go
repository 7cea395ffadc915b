package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/obs"
)

// EdgeConfig holds the request edge's settings. Zero values select the
// defaults noted on each field.
type EdgeConfig struct {
	// MaxBatchBytes bounds an ingest request body (default 8 MiB);
	// larger requests are rejected with 413 before buffering.
	MaxBatchBytes int64
	// IngestQueue bounds the number of parsed batches queued ahead of
	// the pump (default 256). A full queue rejects ingestion with 429
	// — the explicit backpressure signal.
	IngestQueue int
	// ReplayBuffer bounds the retained recent emissions (default
	// 16384): the broadcast log that /subscribe?after=N resume and
	// slow-subscriber tolerance are served from, and the checkpoint
	// replay ring.
	ReplayBuffer int
	// FanoutWriters sizes the broadcast writer pool fanning frames out
	// to subscribers (default 4 goroutines).
	FanoutWriters int
	// HeartbeatEvery is the SSE keep-alive comment interval (default 15s).
	HeartbeatEvery time.Duration
	// WriteTimeout is the per-write deadline on subscription and
	// stream-ingest connections (default 10s).
	WriteTimeout time.Duration
	// TraceSpans bounds the always-on span ring served by
	// GET /debug/traces (default 1024 spans).
	TraceSpans int
	// Logger receives structured operational logs; nil discards them.
	Logger *slog.Logger
}

func (c *EdgeConfig) fill() {
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 8 << 20
	}
	if c.IngestQueue <= 0 {
		c.IngestQueue = 256
	}
	if c.ReplayBuffer <= 0 {
		c.ReplayBuffer = 16384
	}
	if c.FanoutWriters <= 0 {
		c.FanoutWriters = 4
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 15 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.TraceSpans <= 0 {
		c.TraceSpans = 1024
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// PumpMsg is one unit of a tier's pump work: a parsed ingest batch or a
// control request of the tier's type C. Recycle, when non-nil, is the
// pooled batch backing Batch.Events; the pump returns it to the pool
// after the step. AdmitNano stamps when the message entered the queue
// (the queue stage); 0 skips the stage.
type PumpMsg[C any] struct {
	Batch     Batch
	Ctl       *C
	Recycle   *Batch
	AdmitNano int64
}

// EdgeTier is what a tier tells its edge about itself.
type EdgeTier struct {
	// Prefix names the tier's Prometheus families ("sharon_" or
	// "sharon_router_"); the sharon_fanout_* families are unprefixed on
	// every tier.
	Prefix string
	// Stages names the latency stages in exposition order. It includes
	// the edge's own decode_ndjson, decode_binary, queue and fanout.
	Stages []string
	// QueryKnown validates a subscription's query=ID filter.
	QueryKnown func(id int) bool
	// StreamWatermark is the watermark a new subscription starts from;
	// nil reads Edge.Watermark.
	StreamWatermark func() int64
}

// Edge is the request edge sharond and the cluster router share: the
// bounded ingest queue in front of the tier's pump and its drain gate,
// one-shot NDJSON and binary ingest with their 413/400/429/503
// refusals, /watermark, /subscribe[/ws], /debug/traces, the hub and
// replay ring subscriptions are served from, the stage histograms,
// and the ingest and fan-out part of /metrics. The tier owns the pump
// goroutine; C is its control-request type.
type Edge[C any] struct {
	// Log, Hub, Ring and Tracer are the tier's log seam, broadcast
	// fan-out, retained emissions and span ring.
	Log    *slog.Logger
	Hub    *Hub
	Ring   *ReplayRing
	Tracer *obs.Tracer

	// The tier's pump and sink advance these; /metrics reads them.
	Ingested, DroppedLate, Batches, Emitted atomic.Int64
	// Watermark mirrors the tier's stream position for handlers (-1
	// before the first).
	Watermark atomic.Int64

	cfg    EdgeConfig
	prefix string
	mux    *http.ServeMux
	start  time.Time
	stream StreamOptions
	types  atomic.Pointer[map[string]sharon.Type]

	queue    chan PumpMsg[C]
	gate     sync.RWMutex // guards draining against in-flight enqueues
	draining bool
	drainReq chan struct{}
	done     chan struct{}
	failure  atomic.Pointer[string]

	stages       []stage
	decodeNDJSON *obs.Histogram
	decodeBinary *obs.Histogram

	droppedUnknown atomic.Int64
	rej429         atomic.Int64
	rej413         atomic.Int64
}

type stage struct {
	name string
	h    *obs.Histogram
}

// NewEdge builds a tier's edge and registers the shared routes; the
// tier adds its own with HandleFunc and starts its pump with Start.
func NewEdge[C any](cfg EdgeConfig, tier EdgeTier) *Edge[C] {
	cfg.fill()
	e := &Edge[C]{
		Log:      cfg.Logger,
		Ring:     NewReplayRing(cfg.ReplayBuffer),
		Tracer:   obs.NewTracer(cfg.TraceSpans),
		cfg:      cfg,
		prefix:   tier.Prefix,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		queue:    make(chan PumpMsg[C], cfg.IngestQueue),
		drainReq: make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, name := range tier.Stages {
		e.stages = append(e.stages, stage{name, new(obs.Histogram)})
	}
	e.decodeNDJSON, e.decodeBinary = e.Stage("decode_ndjson"), e.Stage("decode_binary")
	e.Hub = NewHub(HubOptions{
		Writers:        cfg.FanoutWriters,
		Retain:         cfg.ReplayBuffer,
		HeartbeatEvery: cfg.HeartbeatEvery,
		WriteTimeout:   cfg.WriteTimeout,
		FanoutNs:       e.Stage("fanout"),
	})
	e.Watermark.Store(-1)
	e.stream = StreamOptions{Hub: e.Hub, QueryKnown: tier.QueryKnown, Watermark: tier.StreamWatermark}
	if e.stream.Watermark == nil {
		e.stream.Watermark = e.Watermark.Load
	}
	e.mux.HandleFunc("POST /ingest", e.handleIngest)
	e.mux.HandleFunc("POST /watermark", e.handleWatermark)
	e.mux.HandleFunc("GET /subscribe", func(w http.ResponseWriter, r *http.Request) { ServeStream(w, r, e.stream) })
	e.mux.HandleFunc("GET /subscribe/ws", func(w http.ResponseWriter, r *http.Request) { ServeStreamWS(w, r, e.stream) })
	e.mux.HandleFunc("GET /debug/traces", e.handleTraces)
	return e
}

// Stage returns the named latency stage's histogram; it panics on a
// name the tier did not declare.
func (e *Edge[C]) Stage(name string) *obs.Histogram {
	for _, s := range e.stages {
		if s.name == name {
			return s.h
		}
	}
	panic("server: undeclared stage " + name)
}

// HandleFunc registers one of the tier's own routes.
func (e *Edge[C]) HandleFunc(pattern string, h http.HandlerFunc) { e.mux.HandleFunc(pattern, h) }

// SetTypes publishes the type-name lookup ingest decodes against.
func (e *Edge[C]) SetTypes(lookup map[string]sharon.Type) { e.types.Store(&lookup) }

// Start runs the tier's pump on its own goroutine; Done closes when it
// returns.
func (e *Edge[C]) Start(pump func()) {
	go func() {
		defer close(e.done)
		pump()
	}()
}

// Ingest is the queue the tier's pump consumes.
func (e *Edge[C]) Ingest() <-chan PumpMsg[C] { return e.queue }

// DrainRequested closes when Drain is first called; the pump then
// steps what is queued and finishes.
func (e *Edge[C]) DrainRequested() <-chan struct{} { return e.drainReq }

// Done closes when the pump has returned.
func (e *Edge[C]) Done() <-chan struct{} { return e.done }

// Offer queues a message without the drain gate or a refusal; it
// reports false when the queue is full.
func (e *Edge[C]) Offer(msg PumpMsg[C]) bool {
	select {
	case e.queue <- msg:
		return true
	default:
		return false
	}
}

// Fail records the tier's first fatal error. From then on /healthz
// answers 500 and ingest is refused with 503. Only stores; safe under
// caller locks and on deterministic paths.
//
//sharon:locksafe
//sharon:deterministic
func (e *Edge[C]) Fail(msg string) { e.failure.CompareAndSwap(nil, &msg) }

// Failed returns the recorded fatal error, "" while healthy.
func (e *Edge[C]) Failed() string {
	if p := e.failure.Load(); p != nil {
		return *p
	}
	return ""
}

// Draining reports whether Drain has been called.
func (e *Edge[C]) Draining() bool {
	e.gate.RLock()
	defer e.gate.RUnlock()
	return e.draining
}

// Drain stops ingestion and waits for the pump to finish its drain
// tail. It returns when the pump finished or ctx expired. Idempotent.
func (e *Edge[C]) Drain(ctx context.Context) error {
	e.gate.Lock()
	already := e.draining
	e.draining = true
	e.gate.Unlock()
	if !already {
		close(e.drainReq)
	}
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the tier's HTTP handler.
func (e *Edge[C]) Handler() http.Handler { return e.mux }

// ListenAndServe serves the handler on addr with bounded request
// reading, shutting the listener down after ctx is cancelled and the
// tier drained. Subscription streams are long-lived, so the server's
// global WriteTimeout stays 0 and every write sets its own deadline
// (EdgeConfig.WriteTimeout) through http.ResponseController instead.
func (e *Edge[C]) ListenAndServe(ctx context.Context, addr string) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           e.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	e.Log.Info("draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(drainCtx); err != nil {
		e.Log.Error("drain", "err", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	return hs.Shutdown(shutCtx)
}

// refusal is why the edge turned a message away.
type refusal int

const (
	admitted refusal = iota
	queueFull
	drainingNow
	failedTier
)

// tryEnqueue is the transport-neutral core of Enqueue: a non-blocking
// send under the drain gate, shared by the HTTP refusal path and the
// streaming-ingest ack loop (which retries instead of refusing).
// Control requests pass a failed tier, which answers them itself.
func (e *Edge[C]) tryEnqueue(msg PumpMsg[C]) refusal {
	e.gate.RLock()
	defer e.gate.RUnlock()
	if e.draining {
		return drainingNow
	}
	if msg.Ctl == nil && e.Failed() != "" {
		return failedTier
	}
	select {
	case e.queue <- msg:
		return admitted
	default:
		return queueFull
	}
}

// Enqueue pushes a pump message under the drain gate; it reports
// whether the message was accepted and writes the refusal otherwise.
// The gate is held only for the drain check and the non-blocking send;
// the HTTP refusal (network I/O) is written after the release so a
// slow client can never stall Drain's write-side acquire.
func (e *Edge[C]) Enqueue(w http.ResponseWriter, msg PumpMsg[C]) bool {
	switch e.tryEnqueue(msg) {
	case admitted:
		return true
	case drainingNow:
		WriteErr(w, http.StatusServiceUnavailable, "draining")
	case failedTier:
		WriteErr(w, http.StatusServiceUnavailable, "failed: %s", e.Failed())
	default:
		e.rej429.Add(1)
		w.Header().Set("Retry-After", "1")
		WriteErr(w, http.StatusTooManyRequests, "ingest queue full (%d batches); retry", cap(e.queue))
	}
	return false
}

// IsBatchContentType reports whether ct selects the binary batch
// codec (media type match, parameters ignored).
func IsBatchContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == BatchContentType
}

func (e *Edge[C]) handleIngest(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, e.cfg.MaxBatchBytes)
	lookup := *e.types.Load()
	batch := GetBatch()
	decodeStart := time.Now()
	var err error
	decodeStage := e.decodeNDJSON
	if IsBatchContentType(r.Header.Get("Content-Type")) {
		// Binary one-shot: the body is a header + CRC frames. Reading it
		// whole before decoding keeps the 413 boundary identical to the
		// NDJSON path (MaxBytesReader fires before any decode).
		decodeStage = e.decodeBinary
		var data []byte
		if data, err = io.ReadAll(body); err == nil {
			err = DecodeWireBatch(data, lookup, batch)
		}
	} else {
		err = batch.ReadNDJSON(body, lookup)
	}
	if err != nil {
		PutBatch(batch)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			e.rej413.Add(1)
			WriteErr(w, http.StatusRequestEntityTooLarge, "batch exceeds %d bytes", e.cfg.MaxBatchBytes)
			return
		}
		WriteErr(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	decodeStage.Record(time.Since(decodeStart).Nanoseconds())
	// Counters are read before enqueue: once the pump has the message it
	// may recycle the batch concurrently with this handler's response.
	accepted, unknown := len(batch.Events), batch.Unknown
	e.droppedUnknown.Add(unknown)
	if accepted == 0 && batch.Watermark < 0 {
		PutBatch(batch)
		WriteJSON(w, http.StatusOK, map[string]any{"accepted": 0, "dropped_unknown_type": unknown})
		return
	}
	if !e.Enqueue(w, PumpMsg[C]{Batch: *batch, Recycle: batch, AdmitNano: time.Now().UnixNano()}) {
		PutBatch(batch)
		return
	}
	WriteJSON(w, http.StatusAccepted, map[string]any{
		"accepted":             accepted,
		"dropped_unknown_type": unknown,
		"queue_depth":          len(e.queue),
	})
}

func (e *Edge[C]) handleWatermark(w http.ResponseWriter, r *http.Request) {
	var line IngestLine
	body := http.MaxBytesReader(w, r.Body, 4096)
	if err := json.NewDecoder(body).Decode(&line); err != nil || line.Watermark == nil {
		WriteErr(w, http.StatusBadRequest, `want {"watermark":<ticks>}`)
		return
	}
	if !e.Enqueue(w, PumpMsg[C]{Batch: Batch{Watermark: *line.Watermark}, AdmitNano: time.Now().UnixNano()}) {
		return
	}
	WriteJSON(w, http.StatusAccepted, map[string]any{"watermark": *line.Watermark})
}

// handleTraces dumps the most recent pipeline spans (?n= bounds the
// count, default all retained) as JSON.
func (e *Edge[C]) handleTraces(w http.ResponseWriter, r *http.Request) {
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	WriteJSON(w, http.StatusOK, map[string]any{"spans": e.Tracer.Spans(n)})
}

// Stats snapshots the edge's share of /metrics.
func (e *Edge[C]) Stats(queries int) metrics.EdgeStats {
	st := metrics.EdgeStats{
		UptimeSec:                time.Since(e.start).Seconds(),
		Queries:                  queries,
		EventsIngested:           e.Ingested.Load(),
		EventsDroppedLate:        e.DroppedLate.Load(),
		EventsDroppedUnknownType: e.droppedUnknown.Load(),
		Batches:                  e.Batches.Load(),
		RejectedBackpressure:     e.rej429.Load(),
		RejectedOversize:         e.rej413.Load(),
		IngestQueueDepth:         len(e.queue),
		IngestQueueCap:           cap(e.queue),
		Watermark:                e.Watermark.Load(),
		ResultsEmitted:           e.Emitted.Load(),
		ResultsDelivered:         e.Hub.DeliveredResults(),
		Subscribers:              e.Hub.Count(),
		SlowConsumerDisconnects:  e.Hub.SlowDrops(),
		FanoutFramesEncoded:      e.Hub.Encoded(),
		FanoutFramesDelivered:    e.Hub.Delivered(),
		FanoutDroppedSlow:        e.Hub.SlowDrops(),
		FanoutDroppedFiltered:    e.Hub.FilteredDrops(),
		Draining:                 e.Draining(),
		Stages:                   make(map[string]obs.Summary, len(e.stages)),
	}
	for _, s := range e.stages {
		st.Stages[s.name] = s.h.Snapshot().Summary(1e-6)
	}
	return st
}

// WriteProm answers a Prometheus scrape (text exposition v0.0.4): the
// edge's families under the tier's prefix, then the tier's own.
func (e *Edge[C]) WriteProm(w http.ResponseWriter, st metrics.EdgeStats, tier func(pw *obs.PromWriter)) {
	p := e.prefix
	pw := &obs.PromWriter{}
	pw.Gauge(p+"uptime_seconds", "Seconds since start.", nil, st.UptimeSec)
	pw.Gauge(p+"queries", "Queries served.", nil, float64(st.Queries))
	pw.Counter(p+"events_ingested_total", "Events accepted past the late filter.", nil, float64(st.EventsIngested))
	pw.Counter(p+"events_dropped_total", "Events discarded before apply, by reason.", []string{"reason", "late"}, float64(st.EventsDroppedLate))
	pw.Counter(p+"events_dropped_total", "Events discarded before apply, by reason.", []string{"reason", "unknown_type"}, float64(st.EventsDroppedUnknownType))
	pw.Counter(p+"batches_total", "Accepted ingest batches.", nil, float64(st.Batches))
	pw.Counter(p+"rejected_total", "Refused ingest requests, by reason.", []string{"reason", "backpressure"}, float64(st.RejectedBackpressure))
	pw.Counter(p+"rejected_total", "Refused ingest requests, by reason.", []string{"reason", "oversize"}, float64(st.RejectedOversize))
	pw.Gauge(p+"ingest_queue_depth", "Parsed batches queued ahead of the pump.", nil, float64(st.IngestQueueDepth))
	pw.Gauge(p+"ingest_queue_cap", "Ingest queue capacity.", nil, float64(st.IngestQueueCap))
	pw.Gauge(p+"watermark", "Stream watermark in ticks (-1 before the first).", nil, float64(st.Watermark))
	pw.Counter(p+"results_emitted_total", "Results emitted downstream.", nil, float64(st.ResultsEmitted))
	pw.Counter(p+"results_delivered_total", "Result frames fanned out to subscribers.", nil, float64(st.ResultsDelivered))
	pw.Gauge(p+"subscribers", "Live result subscriptions.", nil, float64(st.Subscribers))
	pw.Counter(p+"slow_consumer_disconnects_total", "Subscribers dropped on broadcast-log overrun.", nil, float64(st.SlowConsumerDisconnects))
	pw.Gauge("sharon_fanout_subscribers", "Live subscriptions on the broadcast fan-out tier.", nil, float64(st.Subscribers))
	pw.Counter("sharon_fanout_frames_encoded_total", "Shared frames rendered (once per published result or ctl event).", nil, float64(st.FanoutFramesEncoded))
	pw.Counter("sharon_fanout_frames_delivered_total", "Frames written into subscriber streams.", nil, float64(st.FanoutFramesDelivered))
	pw.Counter("sharon_fanout_dropped_total", "Subscribers ended with an explicit dropped frame, by reason.", []string{"reason", "slow-consumer"}, float64(st.FanoutDroppedSlow))
	pw.Counter("sharon_fanout_dropped_total", "Subscribers ended with an explicit dropped frame, by reason.", []string{"reason", "filtered-resume"}, float64(st.FanoutDroppedFiltered))
	pw.Gauge(p+"draining", "1 while shutting down.", nil, obs.Bool(st.Draining))
	const stageHelp = "Per-stage pipeline latency (see README Observability for stage boundaries)."
	for _, s := range e.stages {
		pw.Histogram(p+"stage_latency_seconds", stageHelp, []string{"stage", s.name}, s.h.Snapshot(), 1e-9)
	}
	tier(pw)
	w.Header().Set("Content-Type", obs.PromContentType)
	_, _ = w.Write(pw.Bytes())
}

// WriteJSON writes v as an indented JSON response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteErr writes a JSON {"error": ...} response.
func WriteErr(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
