package exec

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/query"
)

// DefaultBatchSize is the per-shard event batch size of the parallel
// executor: the feeder hands events to workers in batches of roughly
// this size to amortize channel crossings, and advances the shared
// watermark once per dispatch round.
const DefaultBatchSize = 256

// ParallelConfig configures NewParallel.
type ParallelConfig struct {
	// Workers is the number of shard workers (goroutines). <1 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// BatchSize is the per-shard event batch size (default
	// DefaultBatchSize).
	BatchSize int
	// Opts configures merged-result delivery. OnResult is invoked from
	// the merge goroutine while the stream is being fed.
	Opts Options
	// Broadcast routes every event to every shard (segment sharding);
	// when false, events are routed to one shard by group-key hash.
	Broadcast bool
	// WinEnd maps an emitted result to its window-end tick, the primary
	// merge ordering key.
	WinEnd func(Result) int64
	// NewShard builds shard i's executor. The executor must deliver its
	// results through sink (and nowhere else). It is driven from exactly
	// one worker goroutine: FeedBatch feeds it the shard's sub-stream,
	// AdvanceWatermark closes windows in step with the global stream when
	// the shard itself received no events, Flush closes the tail.
	NewShard func(shard int, sink func(Result)) (Online, error)
	// Name is the Executor.Name of the parallel run.
	Name string
}

// Parallel is the sharded parallel executor: it fans a strictly
// time-ordered event stream out to worker goroutines in batches, tracks
// a per-shard watermark, and merges the shards' window results back into
// one deterministic output stream ordered by (window end, query ID,
// window, group).
//
// Sharding axes (paper §7.2 and the VLDB'21 follow-up on parallel
// sharing): group-hash routing splits a grouped workload's independent
// per-group state across workers within one shared plan, while broadcast
// routing splits a partitioned workload's independent uniform segments
// across workers. Each worker owns a full sequential executor, so every
// per-(query, window, group) aggregate is computed by exactly one worker
// from events in original stream order — results are bit-identical to a
// sequential run.
//
// Watermarks: a shard only closes windows when it observes time passing.
// The feeder therefore dispatches in rounds — every round sends each
// worker its pending batch (possibly empty) stamped with the global
// watermark, and workers call AdvanceWatermark after draining the batch.
// The merge stage emits window k once every shard's acknowledged
// watermark has passed k's end, at which point no shard can still
// produce results for it.
//
// Lifecycle: Process/FeedBatch from one goroutine, then Flush exactly
// once; Flush drains the workers, stops them, and delivers every
// remaining window. A flushed Parallel rejects further events.
type Parallel struct {
	name      string
	opts      Options
	winEnd    func(Result) int64
	broadcast bool
	batchSize int
	// batchLimit is the number of buffered feeder events that triggers a
	// dispatch round (batchSize per worker under hash routing, batchSize
	// under broadcast routing where every shard sees every event).
	batchLimit int

	workers []*shardWorker
	pending [][]event.Event
	// batchPool and resultPool recycle the feeder's event batches and the
	// workers' result buffers (as *[]T to keep sync.Pool allocation-free):
	// a batch returns to the pool once its worker drained it, a result
	// buffer once the merge stage bucketed it, so steady-state dispatch
	// allocates nothing. Broadcast batches are shared by all workers and
	// are not pooled (no single owner to return them).
	batchPool  sync.Pool
	resultPool sync.Pool

	started  bool
	last     int64
	pendingN int
	closed   bool
	// stopOnce makes teardown race-safe: the GC-backstop cleanup of an
	// abandoned run (see sharon.NewSystem) may call Stop from the
	// cleanup goroutine while a last in-flight Flush tears down too.
	stopOnce sync.Once

	out       chan shardOut
	mergeDone chan struct{}
	// snapBarrier is signalled by the merge stage once it has delivered
	// every window a snapshot round made ready (see Snapshot).
	snapBarrier chan struct{}

	// Merge-side state. results is written by the merge goroutine and
	// read only after mergeDone closes; count and errv are atomic for
	// concurrent ResultCount / error checks from the feeder.
	results []Result
	count   atomic.Int64
	errv    atomic.Value // error
	peak    int64

	fed       atomic.Int64
	rounds    atomic.Int64
	dropped   atomic.Bool
	startedAt time.Time
	elapsed   time.Duration
}

// shardMsg is one feeder→worker message: a batch of the shard's events
// followed by the global watermark at dispatch time.
type shardMsg struct {
	events []event.Event
	wm     int64
	hasWM  bool
	flush  bool
	// pooled marks a batch owned by exactly one worker (hash routing);
	// the worker returns it to the batch pool after draining it.
	pooled bool
	// snap, when non-nil, requests a shard snapshot after the message is
	// fully processed (the quiesced checkpoint barrier; see Snapshot).
	snap chan<- shardSnap
	// ctl, when non-nil, runs on the worker goroutine after the message's
	// events and watermark are processed (cluster group grafts/removals);
	// its error is reported on ack and poisons the shard. ack, when
	// non-nil, marks a barrier round (see ctlRound): the worker replies
	// once the message — ctl included — is fully processed, and the merge
	// stage releases the barrier only after delivering every window the
	// round made ready.
	ctl func(Online) error
	ack chan<- error
}

// shardSnap is one worker's reply to a snapshot request.
type shardSnap struct {
	shard int
	s     *SystemSnapshot
	err   error
}

// shardOut is one worker→merger message: the results the shard produced
// while consuming the corresponding shardMsg, plus the watermark it has
// now fully processed.
type shardOut struct {
	shard   int
	results []Result
	wm      int64
	hasWM   bool
	flush   bool
	snap    bool
	err     error
}

type shardWorker struct {
	id     int
	in     chan shardMsg
	target Online
	// pool is the owning executor, for the shared batch/result pools.
	pool *Parallel
	// buf accumulates results between messages; the target's sink
	// appends to it from the worker goroutine, drawing recycled backing
	// arrays from the result pool.
	buf   []Result
	err   error
	stats metrics.ShardCounters
}

func (w *shardWorker) run(out chan<- shardOut) {
	for msg := range w.in {
		if w.err == nil {
			w.err = w.target.FeedBatch(msg.events)
			if w.err == nil && msg.hasWM {
				w.target.AdvanceWatermark(msg.wm)
			}
			if w.err == nil && msg.flush {
				w.err = w.target.Flush()
			}
		}
		var ctlErr error
		if msg.ctl != nil {
			if w.err != nil {
				ctlErr = w.err
			} else if ctlErr = msg.ctl(w.target); ctlErr != nil && !errors.Is(ctlErr, ErrNoGroupSlices) {
				// A half-applied graft leaves the shard inconsistent;
				// poison the run rather than keep emitting from it. A
				// refusal touched nothing.
				w.err = ctlErr
			}
		}
		if msg.pooled && msg.events != nil {
			w.pool.putBatch(msg.events)
		}
		res := w.buf
		w.buf = nil
		w.stats.Events.Add(int64(len(msg.events)))
		w.stats.Batches.Add(1)
		w.stats.Results.Add(int64(len(res)))
		w.stats.Groups.Store(w.target.GroupCount())
		// An errored shard must not acknowledge the watermark: its
		// contributions to the frontier's windows are missing, and
		// acking would let the merge emit them truncated.
		out <- shardOut{shard: w.id, results: res, wm: msg.wm, hasWM: msg.hasWM && w.err == nil, flush: msg.flush, snap: msg.snap != nil || msg.ack != nil, err: w.err}
		if msg.snap != nil {
			sn := shardSnap{shard: w.id, err: w.err}
			if sn.err == nil {
				sn.s, sn.err = w.target.Snapshot()
			}
			msg.snap <- sn
		}
		if msg.ack != nil {
			if ctlErr == nil {
				ctlErr = w.err
			}
			msg.ack <- ctlErr
		}
	}
}

// NewParallel builds and starts a parallel executor: cfg.Workers worker
// goroutines plus one merge goroutine.
func NewParallel(cfg ParallelConfig) (*Parallel, error) {
	if cfg.NewShard == nil || cfg.WinEnd == nil {
		return nil, fmt.Errorf("exec: ParallelConfig needs NewShard and WinEnd")
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.Name == "" {
		cfg.Name = "parallel"
	}
	p := &Parallel{
		name:        cfg.Name,
		opts:        cfg.Opts,
		winEnd:      cfg.WinEnd,
		broadcast:   cfg.Broadcast,
		batchSize:   cfg.BatchSize,
		pending:     make([][]event.Event, cfg.Workers),
		out:         make(chan shardOut, cfg.Workers*4),
		mergeDone:   make(chan struct{}),
		snapBarrier: make(chan struct{}, 1),
		startedAt:   time.Now(), // re-stamped on the first event
	}
	p.batchLimit = cfg.BatchSize
	if !cfg.Broadcast {
		p.batchLimit = cfg.BatchSize * cfg.Workers
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &shardWorker{id: i, in: make(chan shardMsg, 4), pool: p}
		target, err := cfg.NewShard(i, func(r Result) {
			if w.buf == nil {
				w.buf = p.getResBuf()
			}
			w.buf = append(w.buf, r)
		})
		if err != nil {
			return nil, err
		}
		w.target = target
		p.workers = append(p.workers, w)
	}
	for _, w := range p.workers {
		go w.run(p.out)
	}
	go p.mergeLoop()
	return p, nil
}

// getBatch returns a recycled (or fresh) event batch with zero length.
func (p *Parallel) getBatch() []event.Event {
	if b, ok := p.batchPool.Get().(*[]event.Event); ok {
		return (*b)[:0]
	}
	return make([]event.Event, 0, p.batchSize)
}

// putBatch returns a drained batch's backing array to the pool. Called
// from worker goroutines; sync.Pool is safe for concurrent use.
func (p *Parallel) putBatch(b []event.Event) {
	b = b[:0]
	p.batchPool.Put(&b)
}

// getResBuf returns a recycled (or fresh) result buffer with zero length.
func (p *Parallel) getResBuf() []Result {
	if b, ok := p.resultPool.Get().(*[]Result); ok {
		return (*b)[:0]
	}
	return nil
}

// putResBuf recycles a result buffer after the merge stage bucketed it.
func (p *Parallel) putResBuf(b []Result) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	p.resultPool.Put(&b)
}

// shardOf maps a group key to a worker by Fibonacci-hashing the key.
func shardOf(k event.GroupKey, n int) int {
	h := uint64(k) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(h % uint64(n))
}

// Name identifies the strategy.
func (p *Parallel) Name() string { return p.name }

// Workers reports the shard worker count.
func (p *Parallel) Workers() int { return len(p.workers) }

// Process feeds the next event (strictly time-ordered). The event is
// buffered and dispatched to its shard in batches; processing errors
// from workers surface on a later Process or on Flush.
func (p *Parallel) Process(e event.Event) error {
	if err := p.checkFeedable(); err != nil {
		return err
	}
	return p.feedOne(e)
}

// FeedBatch feeds a batch of strictly time-ordered events, hoisting the
// per-call liveness checks out of the event loop.
func (p *Parallel) FeedBatch(events []event.Event) error {
	if err := p.checkFeedable(); err != nil {
		return err
	}
	for _, e := range events {
		if err := p.feedOne(e); err != nil {
			return err
		}
	}
	return nil
}

// AdvanceWatermark declares that no event at or before time t will
// arrive anymore: the pending batches are dispatched immediately stamped
// with the new watermark, every shard closes its windows up to t, and
// the merge stage delivers them — without waiting for the batch limit or
// a terminal Flush. Network sources use it to bound emission latency
// across rate swings: in a valley it drives out windows whose groups
// went quiet, and when a burst subsides it is also what completes an
// adaptive shard's in-flight share/split hand-off (the draining engine
// is retired once the watermark passes its last window; see
// Dynamic.AdvanceWatermark). Events at or before t are subsequently
// rejected as out-of-order. Calls before the first event or at or below
// the current watermark are no-ops, as is a call after Flush.
func (p *Parallel) AdvanceWatermark(t int64) {
	if p.closed || !p.started || t <= p.last {
		return
	}
	p.last = t
	p.dispatch(false)
}

func (p *Parallel) checkFeedable() error {
	if p.closed {
		return fmt.Errorf("exec: Process after Flush on parallel executor")
	}
	return p.loadErr()
}

func (p *Parallel) feedOne(e event.Event) error {
	if p.started && e.Time <= p.last {
		return fmt.Errorf("exec: out-of-order event at t=%d (last t=%d)", e.Time, p.last)
	}
	if !p.started {
		p.started = true
		p.startedAt = time.Now()
	}
	p.last = e.Time
	if p.broadcast {
		// All shards receive the same batch; buffer it once and share
		// the slice (workers only read it).
		p.pending[0] = append(p.pending[0], e)
	} else {
		s := shardOf(e.Key, len(p.workers))
		if p.pending[s] == nil {
			p.pending[s] = p.getBatch()
		}
		p.pending[s] = append(p.pending[s], e)
	}
	p.pendingN++
	p.fed.Add(1)
	if p.pendingN >= p.batchLimit {
		p.dispatch(false)
	}
	return nil
}

// dispatch sends every shard its pending batch — empty batches included,
// so all shards observe the current watermark — and starts a new round.
// Under broadcast routing all shards share one read-only batch slice.
func (p *Parallel) dispatch(flush bool) {
	for i, w := range p.workers {
		batch := p.pending[i]
		if p.broadcast {
			batch = p.pending[0]
		}
		msg := shardMsg{events: batch, flush: flush, pooled: !p.broadcast}
		if p.started {
			msg.wm, msg.hasWM = p.last, true
		}
		w.in <- msg
	}
	for i := range p.pending {
		p.pending[i] = nil
	}
	p.pendingN = 0
	p.rounds.Add(1)
}

// Flush dispatches the remaining events, closes the tail windows on
// every shard, drains the merge stage, and stops all goroutines. It
// reports the first error any worker hit. Flush is idempotent.
func (p *Parallel) Flush() error {
	p.shutdown()
	return p.loadErr()
}

// Stop tears the executor down like Flush but discards every window not
// yet delivered, so a run abandoned mid-stream (e.g. ProcessAll hitting
// a feed error) does not emit truncated aggregates through OnResult.
func (p *Parallel) Stop() {
	if !p.closed {
		p.dropped.Store(true)
		p.shutdown()
	}
}

func (p *Parallel) shutdown() {
	p.stopOnce.Do(p.doShutdown)
}

func (p *Parallel) doShutdown() {
	p.dispatch(true)
	for _, w := range p.workers {
		close(w.in)
	}
	p.closed = true
	<-p.mergeDone
	var peak int64
	for _, w := range p.workers {
		peak += w.target.PeakLiveStates()
	}
	p.peak = peak
	p.elapsed = time.Since(p.startedAt)
}

func (p *Parallel) loadErr() error {
	if v := p.errv.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// mergeLoop is the merge stage: it buckets incoming results by window
// end, tracks each shard's acknowledged watermark, and emits a window's
// results — sorted by (query, window, group) — once every shard's
// watermark passed its end. Windows therefore stream out in
// deterministic (window end, query ID, window, group) order regardless
// of worker scheduling.
//
//sharon:deterministic
func (p *Parallel) mergeLoop() {
	const noWM = math.MinInt64
	wms := make([]int64, len(p.workers))
	for i := range wms {
		wms[i] = noWM
	}
	buckets := make(map[int64][]Result)
	flushed := 0
	snapAcks := 0
	for o := range p.out {
		if o.err != nil {
			if p.errv.Load() == nil {
				p.errv.Store(o.err)
			}
			// A failed run delivers nothing further: every window at
			// or past the stall is missing the errored shard's data.
			p.dropped.Store(true)
		}
		for _, r := range o.results {
			end := p.winEnd(r)
			buckets[end] = append(buckets[end], r)
		}
		p.putResBuf(o.results)
		if o.hasWM && o.wm > wms[o.shard] {
			wms[o.shard] = o.wm
		}
		if o.flush {
			flushed++
			if flushed == len(p.workers) {
				p.emitReady(buckets, math.MaxInt64)
				close(p.mergeDone)
				return
			}
			continue
		}
		frontier := int64(math.MaxInt64)
		for _, wm := range wms {
			if wm < frontier {
				frontier = wm
			}
		}
		if frontier > noWM {
			p.emitReady(buckets, frontier)
		}
		// Release the snapshot barrier only after this round's ready
		// windows were delivered: when Snapshot returns, everything at or
		// below the snapshot watermark has reached OnResult.
		if o.snap {
			snapAcks++
			if snapAcks == len(p.workers) {
				snapAcks = 0
				p.snapBarrier <- struct{}{}
			}
		}
	}
}

// emitReady delivers every buffered window whose end is at or below
// limit, in ascending end order, each window's results sorted by
// (query, window, group). After Stop, buffered windows are discarded
// instead of delivered.
//
//sharon:deterministic
func (p *Parallel) emitReady(buckets map[int64][]Result, limit int64) {
	if p.dropped.Load() {
		clear(buckets)
		return
	}
	var ready []int64
	//sharon:allow deterministicemit (the map range only collects window ends; the sort below fixes the ascending-end delivery order)
	for end := range buckets {
		if end <= limit {
			ready = append(ready, end)
		}
	}
	slices.Sort(ready)
	for _, end := range ready {
		rs := buckets[end]
		delete(buckets, end)
		slices.SortFunc(rs, cmpResult)
		for _, r := range rs {
			p.count.Add(1)
			if p.opts.OnResult != nil {
				p.opts.OnResult(r)
			}
			if p.opts.Collect {
				p.results = append(p.results, r)
			}
		}
	}
}

// ctlRound runs one quiesced barrier round: every shard receives its
// pending batch stamped with the current watermark plus an optional
// per-shard control op, and the round returns only after every shard
// acknowledged and the merge stage delivered every window the round
// made ready. mk may be nil (pure barrier) or return nil for shards
// with no op. It reports the first shard error.
func (p *Parallel) ctlRound(mk func(shard int) func(Online) error) error {
	ack := make(chan error, len(p.workers))
	for i, w := range p.workers {
		batch := p.pending[i]
		if p.broadcast {
			batch = p.pending[0]
		}
		msg := shardMsg{events: batch, pooled: !p.broadcast, ack: ack}
		if mk != nil {
			msg.ctl = mk(i)
		}
		if p.started {
			msg.wm, msg.hasWM = p.last, true
		}
		w.in <- msg
	}
	for i := range p.pending {
		p.pending[i] = nil
	}
	p.pendingN = 0
	p.rounds.Add(1)
	var firstErr error
	for range p.workers {
		if err := <-ack; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	<-p.snapBarrier // merge delivered everything the round made ready
	return firstErr
}

// Quiesce dispatches the pending batches and blocks until every result
// for windows ending at or before the current watermark has been
// delivered through OnResult. The server's cluster punctuation uses it
// to order "all results <= W emitted" markers after the results they
// cover; on the sequential path emission is synchronous and the
// equivalent method is a no-op.
func (p *Parallel) Quiesce() error {
	if p.closed {
		return fmt.Errorf("exec: Quiesce after Flush on parallel executor")
	}
	if err := p.loadErr(); err != nil {
		return err
	}
	if err := p.ctlRound(nil); err != nil {
		return err
	}
	return p.loadErr()
}

// AbsorbSlice grafts a group slice into the executor: the groups are
// re-sharded by this executor's worker count and each shard absorbs its
// subset under a quiesced barrier. See Engine.AbsorbSlice for the
// alignment contract.
func (p *Parallel) AbsorbSlice(sl *EngineSnapshot) error {
	if p.closed {
		return fmt.Errorf("exec: AbsorbSlice after Flush on parallel executor")
	}
	if err := p.loadErr(); err != nil {
		return err
	}
	if !sl.Started && len(sl.Groups) == 0 {
		return nil
	}
	parts := make([]*EngineSnapshot, len(p.workers))
	for i := range parts {
		parts[i] = &EngineSnapshot{Started: sl.Started, LastTime: sl.LastTime, NextClose: sl.NextClose, MaxWin: sl.MaxWin}
	}
	for i := range sl.Groups {
		s := shardOf(sl.Groups[i].Key, len(p.workers))
		parts[s].Groups = append(parts[s].Groups, sl.Groups[i])
	}
	err := p.ctlRound(func(shard int) func(Online) error {
		part := parts[shard]
		if len(part.Groups) == 0 {
			return nil
		}
		return func(t Online) error { return t.AbsorbSlice(part) }
	})
	if err != nil {
		return err
	}
	// The feeder-side stream position must cover the slice so a later
	// dispatch round does not hand the shards an older watermark.
	if !p.started {
		p.started = true
		p.last = sl.LastTime
	} else if sl.LastTime > p.last {
		p.last = sl.LastTime
	}
	return nil
}

// RemoveGroups deletes every group satisfying drop from the shards
// under a quiesced barrier and reports how many were removed.
func (p *Parallel) RemoveGroups(drop func(event.GroupKey) bool) (int, error) {
	if p.closed {
		return 0, fmt.Errorf("exec: RemoveGroups after Flush on parallel executor")
	}
	if err := p.loadErr(); err != nil {
		return 0, err
	}
	var removed atomic.Int64
	err := p.ctlRound(func(int) func(Online) error {
		return func(t Online) error {
			n, err := t.RemoveGroups(drop)
			removed.Add(int64(n))
			return err
		}
	})
	return int(removed.Load()), err
}

// GroupCount sums the shards' live-group gauges (refreshed by each
// worker after every message; exact after a quiesced round).
func (p *Parallel) GroupCount() int64 {
	var n int64
	for _, w := range p.workers {
		n += w.stats.Groups.Load()
	}
	return n
}

// Results returns the merged results (Options.Collect must be set),
// sorted by query, window, group like the sequential executors. It is
// valid only after Flush.
func (p *Parallel) Results() []Result {
	if !p.opts.Collect || !p.closed {
		return nil
	}
	out := make([]Result, len(p.results))
	copy(out, p.results)
	slices.SortFunc(out, cmpResult)
	return out
}

// ResultCount reports the number of merged results emitted so far.
func (p *Parallel) ResultCount() int64 { return p.count.Load() }

// PeakLiveStates sums the shards' peaks; available after Flush.
func (p *Parallel) PeakLiveStates() int64 { return p.peak }

// Explain renders shard 0's per-query decomposition. Group-hash shards
// all share one compiled form; segment shards each hold different
// segments, of which only the first worker's are shown.
func (p *Parallel) Explain(reg *event.Registry) string {
	return p.workers[0].target.Explain(reg)
}

// Stats snapshots the run's throughput and shard-occupancy counters.
func (p *Parallel) Stats() metrics.ParallelStats {
	st := metrics.ParallelStats{
		Workers:       len(p.workers),
		BatchSize:     p.batchSize,
		EventsFed:     p.fed.Load(),
		Rounds:        p.rounds.Load(),
		ResultsMerged: p.count.Load(),
		Elapsed:       p.elapsed,
	}
	for _, w := range p.workers {
		st.Shards = append(st.Shards, w.stats.Snapshot(w.id))
	}
	return st
}

// --- concrete sharded executors ---

// NewParallelEngine builds a group-hash sharded online engine: workers
// copies of the (workload, plan) engine, each owning the groups that
// hash to it. An ungrouped workload aggregates all events under a
// single group regardless of their keys, so it cannot shard by key:
// workers is clamped to 1 (the constructor still works, it just cannot
// scale — use the sequential Engine instead).
func NewParallelEngine(w query.Workload, plan core.Plan, workers int, opts Options) (*Parallel, error) {
	if err := validateUniform(w); err != nil {
		return nil, err
	}
	if err := plan.Validate(w); err != nil {
		return nil, err
	}
	if !w[0].GroupBy {
		workers = 1
	}
	win := w[0].Window
	name := "A-Seq-parallel"
	if len(plan) > 0 {
		name = "Sharon-parallel"
	}
	return NewParallel(ParallelConfig{
		Workers: workers,
		Opts:    opts,
		Name:    name,
		WinEnd:  func(r Result) int64 { return win.End(r.Win) },
		NewShard: func(_ int, sink func(Result)) (Online, error) {
			return NewEngine(w, plan, Options{EmitEmpty: opts.EmitEmpty, OnResult: sink})
		},
	})
}

// NewParallelPartitioned builds a segment-sharded partitioned executor
// from pre-planned segments (PlanSegments): the workload's uniform
// segments (paper §7.2) are dealt round-robin to at most workers worker
// goroutines, each running a Partitioned over its share, and every
// worker is fed the full stream by broadcast.
func NewParallelPartitioned(specs []SegmentSpec, workers int, opts Options) (*Parallel, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("exec: no segments")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	qwin := make(map[int]query.Window)
	for _, spec := range specs {
		for _, q := range spec.Workload {
			qwin[q.ID] = q.Window
		}
	}
	return NewParallel(ParallelConfig{
		Workers:   workers,
		Opts:      opts,
		Broadcast: true,
		Name:      "Sharon-partitioned-parallel",
		WinEnd:    func(r Result) int64 { return qwin[r.Query].End(r.Win) },
		NewShard: func(shard int, sink func(Result)) (Online, error) {
			var mine []SegmentSpec
			for j := shard; j < len(specs); j += workers {
				mine = append(mine, specs[j])
			}
			return NewPartitionedFromSpecs(mine, Options{EmitEmpty: opts.EmitEmpty, OnResult: sink})
		},
	})
}

// NewParallelDynamic builds a group-hash sharded dynamic executor: each
// shard runs its own §7.4 Dynamic instance over its groups, measuring
// its own rates and migrating independently (results are plan-invariant,
// so per-shard migration points do not affect output). With
// DynamicConfig.Adaptive set, each shard carries its own burst detector
// over its groups' arrival rates, so share-vs-split decisions are made
// per group subset — a burst confined to one shard's groups switches
// only that shard to the shared plan. Initial rates are scaled to the
// per-shard share so drift thresholds line up with what a shard actually
// observes. It returns the shard Dynamics for introspection (plan,
// migration and transition counts); read them only after Flush.
func NewParallelDynamic(w query.Workload, rates core.Rates, workers int, cfg DynamicConfig) (*Parallel, []*Dynamic, error) {
	if err := validateUniform(w); err != nil {
		return nil, nil, err
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	// An ungrouped workload aggregates across all keys and cannot shard
	// by key hash (see NewParallelEngine).
	if !w[0].GroupBy {
		workers = 1
	}
	win := w[0].Window
	shardRates := make(core.Rates, len(rates))
	for t, v := range rates {
		shardRates[t] = v / float64(workers)
	}
	var migrateMu sync.Mutex
	dyns := make([]*Dynamic, workers)
	p, err := NewParallel(ParallelConfig{
		Workers: workers,
		Opts:    cfg.Options,
		Name:    "Sharon-dynamic-parallel",
		WinEnd:  func(r Result) int64 { return win.End(r.Win) },
		NewShard: func(shard int, sink func(Result)) (Online, error) {
			c := cfg
			c.Options = Options{EmitEmpty: cfg.EmitEmpty, OnResult: sink}
			if cfg.OnMigrate != nil {
				c.OnMigrate = func(at int64, old, new core.Plan) {
					migrateMu.Lock()
					defer migrateMu.Unlock()
					cfg.OnMigrate(at, old, new)
				}
			}
			if cfg.OnDecision != nil {
				// Shards decide concurrently; serialize the callback the
				// same way OnMigrate is.
				c.OnDecision = func(at int64, state BurstState, plan core.Plan) {
					migrateMu.Lock()
					defer migrateMu.Unlock()
					cfg.OnDecision(at, state, plan)
				}
			}
			d, err := NewDynamic(w, shardRates, c)
			if err != nil {
				return nil, err
			}
			dyns[shard] = d
			return d, nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return p, dyns, nil
}
