package exec

import (
	"fmt"
	"slices"

	"github.com/sharon-project/sharon/internal/agg"
	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
)

// Executor state snapshots (the durability subsystem's view of the
// engines): every online executor can serialize its logical runtime
// state — open window aggregates, live START records, stage combination
// snapshots — into plain exported structs, and a freshly constructed
// executor of the same shape can load them back and resume with
// byte-identical emission. The structs deliberately capture logical
// state, not memory layout: rings, slabs, and freelists are rebuilt by
// Restore, so the checkpoint format survives hot-path layout refactors
// (and restoring re-interns the PR 2 slab/pool structures without any
// change to the 0-alloc processing path — snapshots only read state).
//
// internal/persist owns the binary encoding of these structs; this file
// owns extraction and re-materialization.

// Snapshot kinds, recorded in SystemSnapshot.Kind. Restore validates the
// kind against the executor it is loaded into.
const (
	KindEngine      = "engine"
	KindParallel    = "parallel"
	KindPartitioned = "partitioned"
	KindDynamic     = "dynamic"
	// KindSegments is read, never written: see Partitioned.Restore.
	KindSegments = "segments"
)

// SystemSnapshot is the sum of all executor snapshot shapes: exactly one
// field matching Kind is set. It is the unit the server checkpoints and
// internal/persist encodes.
type SystemSnapshot struct {
	Kind        string
	Engine      *EngineSnapshot
	Partitioned *PartitionedSnapshot
	Dynamic     *DynamicSnapshot
	Parallel    *ParallelSnapshot
}

// EngineSnapshot is the serializable state of one sequential Engine.
type EngineSnapshot struct {
	Started     bool
	LastTime    int64
	NextClose   int64
	MaxWin      int64
	PeakLive    int64
	ResultCount int64
	// Groups are the engine's per-group runtimes, sorted by group key for
	// a deterministic encoding.
	Groups []GroupSnapshot
}

// GroupSnapshot is one group's runtime state: its aggregators (in the
// engine's deterministic node order: shared nodes first, then each
// chain's private nodes) and the chains' per-stage combination snapshots.
type GroupSnapshot struct {
	Key    event.GroupKey
	Nodes  []agg.Snapshot
	Stages []StageSnapshot
}

// StageSnapshot is the per-window upstream-snapshot state of one chain
// stage (stages after the first; stage 0 reads its aggregator directly).
type StageSnapshot struct {
	Chain   int
	Stage   int
	Windows []StageWindowSnapshot
}

// StageWindowSnapshot is one open window's snapshot entries, in arrival
// order (the order currentValue folds them in).
type StageWindowSnapshot struct {
	Win     int64
	Entries []SnapEntrySnapshot
}

// SnapEntrySnapshot is one (START record, upstream aggregate) pair; the
// record is referenced by its per-aggregator ID and rewired on restore.
type SnapEntrySnapshot struct {
	RecID int64
	Up    agg.State
}

// PartitionedSnapshot is the state of a Partitioned executor, whether it
// runs alone or as one parallel worker's share of the segments: the
// segment engines' snapshots in segment order.
type PartitionedSnapshot struct {
	Started     bool
	Last        int64
	ResultCount int64
	Segments    []*EngineSnapshot
}

// DynamicSnapshot is the state of a §7.4 dynamic executor: the installed
// plan, the current engine (and the draining one mid-migration), and the
// rate-measurement counters that drive re-optimization — so a restored
// run migrates at exactly the points the uninterrupted run would.
type DynamicSnapshot struct {
	Started     bool
	Last        int64
	ResultCount int64
	Migrations  int
	Plan        core.Plan
	Rates       core.Rates
	Counts      map[event.Type]float64
	CountFrom   int64
	NextCheck   int64
	Boundary    int64
	CurrentFrom int64
	Current     *EngineSnapshot
	// DrainPlan/DrainFrom/Draining describe the old engine mid-migration;
	// Draining is nil when no hand-off is in flight.
	DrainPlan core.Plan
	DrainFrom int64
	Draining  *EngineSnapshot
	// Adaptive runtime state: the share/split transition counters, the
	// cumulative prune count of retired engines, and the burst
	// detector's baseline and debounced state. The detector's debounce
	// streak is deliberately not captured — restoring resets it, which
	// can defer the next transition by up to Confirm-1 intervals but
	// cannot change any emitted result (hand-offs are output-invariant).
	ShareTransitions int
	SplitTransitions int
	PrunedRetired    int64
	BurstBaseline    float64
	BurstState       int
}

// ParallelSnapshot is the state of a parallel executor: one shard
// snapshot per worker, captured under the quiesced snapshot barrier.
// Restore requires the same worker count (shard state is partitioned by
// the group-key hash, which is a function of the worker count).
type ParallelSnapshot struct {
	Started     bool
	Last        int64
	ResultCount int64
	Shards      []*SystemSnapshot
}

// --- Engine ---

// Snapshot captures the engine's logical state. The engine must be
// quiesced (no Process in flight); the caller owns the goroutine. The
// error is always nil: sequential emission leaves nothing to wait for.
func (en *Engine) Snapshot() (*SystemSnapshot, error) {
	return &SystemSnapshot{Kind: KindEngine, Engine: en.snapshotState()}, nil
}

func (en *Engine) snapshotState() *EngineSnapshot {
	es := &EngineSnapshot{
		Started:     en.started,
		LastTime:    en.lastTime,
		NextClose:   en.nextClose,
		MaxWin:      en.maxWin,
		PeakLive:    en.peakLive,
		ResultCount: en.count,
	}
	keys := make([]event.GroupKey, 0, len(en.groups))
	for k := range en.groups {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		es.Groups = append(es.Groups, en.snapshotGroup(en.groups[k]))
	}
	return es
}

func (en *Engine) snapshotGroup(g *engineGroup) GroupSnapshot {
	gs := GroupSnapshot{Key: g.key, Nodes: make([]agg.Snapshot, len(g.nodes))}
	for i, node := range g.nodes {
		gs.Nodes[i] = node.agg.Snapshot()
	}
	for ci, stages := range g.chains {
		for si, st := range stages {
			if si == 0 {
				continue
			}
			// Merged stages are aliased by several chains; serialize each
			// distinct stage exactly once, under the coordinates of the
			// chain that created it (restore resolves the same alias, so
			// the entries land in the shared ring exactly once).
			if st.ownerChain != ci {
				continue
			}
			ss := StageSnapshot{Chain: ci, Stage: si}
			// Only windows within the ring's coverage can hold entries
			// (appends are preceded by ensureRing); windows of the live
			// span beyond a lagging ring are empty by that invariant, and
			// reading their aliased slots would duplicate other windows'
			// entries.
			hi := en.maxWin
			if cap := en.nextClose + int64(len(st.snapRing)) - 1; cap < hi {
				hi = cap
			}
			for k := en.nextClose; k <= hi; k++ {
				entries := st.snapRing[k&st.snapMask]
				if len(entries) == 0 {
					continue
				}
				ws := StageWindowSnapshot{Win: k, Entries: make([]SnapEntrySnapshot, len(entries))}
				for i, e := range entries {
					ws.Entries[i] = SnapEntrySnapshot{RecID: e.rec.ID, Up: e.up}
				}
				ss.Windows = append(ss.Windows, ws)
			}
			gs.Stages = append(gs.Stages, ss)
		}
	}
	return gs
}

// Restore loads an engine snapshot into a freshly constructed engine
// compiled from the same workload and plan. It must be called before the
// first event.
func (en *Engine) Restore(s *SystemSnapshot) error {
	if s.Kind != KindEngine || s.Engine == nil {
		return fmt.Errorf("exec: engine restore from %q snapshot", s.Kind)
	}
	return en.restoreState(s.Engine)
}

func (en *Engine) restoreState(es *EngineSnapshot) error {
	if en.started {
		return fmt.Errorf("exec: Restore on a started engine")
	}
	en.started = es.Started
	en.lastTime = es.LastTime
	en.nextClose = es.NextClose
	en.maxWin = es.MaxWin
	en.peakLive = es.PeakLive
	en.count = es.ResultCount
	for i := range es.Groups {
		if err := en.restoreGroup(&es.Groups[i]); err != nil {
			return err
		}
	}
	return nil
}

func (en *Engine) restoreGroup(gs *GroupSnapshot) error {
	if _, ok := en.groups[gs.Key]; ok {
		return fmt.Errorf("exec: duplicate group %d in snapshot", gs.Key)
	}
	g := en.buildGroup(gs.Key)
	en.addGroup(g)
	if len(gs.Nodes) != len(g.nodes) {
		return fmt.Errorf("exec: snapshot group %d has %d aggregators, engine builds %d (workload or plan changed)", gs.Key, len(gs.Nodes), len(g.nodes))
	}
	// The close lists and the live-state count are derived state, absent
	// from the snapshot: hi collects the last open window the group is
	// credited or captured in, and both are rebuilt once its state is in.
	hi := int64(-1)
	recsOf := make(map[*aggNode]map[int64]*agg.StartRec, len(g.nodes))
	for i, node := range g.nodes {
		byID, err := node.agg.Restore(gs.Nodes[i])
		if err != nil {
			return fmt.Errorf("exec: group %d aggregator %d: %w", gs.Key, i, err)
		}
		//sharon:allow slablifecycle (transient restore index used to rewire chain stages below; dead after this function)
		recsOf[node] = byID
		if node.emits {
			hi = max(hi, node.agg.MaxCredited())
		}
	}
	for _, ss := range gs.Stages {
		if ss.Chain < 0 || ss.Chain >= len(g.chains) {
			return fmt.Errorf("exec: snapshot chain %d out of range", ss.Chain)
		}
		stages := g.chains[ss.Chain]
		if ss.Stage < 1 || ss.Stage >= len(stages) {
			return fmt.Errorf("exec: snapshot stage %d out of range for chain %d", ss.Stage, ss.Chain)
		}
		st := stages[ss.Stage]
		st.ensureRing()
		byID := recsOf[st.node]
		for _, ws := range ss.Windows {
			if ws.Win < en.nextClose || ws.Win > en.maxWin {
				return fmt.Errorf("exec: snapshot stage window %d outside live range [%d, %d]", ws.Win, en.nextClose, en.maxWin)
			}
			slot := ws.Win & st.snapMask
			for _, e := range ws.Entries {
				rec, ok := byID[e.RecID]
				if !ok {
					return fmt.Errorf("exec: snapshot stage entry references unknown START record %d", e.RecID)
				}
				st.snapRing[slot] = append(st.snapRing[slot], snapEntry{rec: rec, up: e.Up})
				hi = max(hi, ws.Win)
			}
		}
	}
	en.live += g.liveStates()
	if hi > g.listedHi {
		en.listGroup(g, hi)
	}
	return nil
}

// --- Partitioned ---

// Snapshot captures the partitioned executor's state: every segment
// engine in segment order.
func (p *Partitioned) Snapshot() (*SystemSnapshot, error) {
	ps := &PartitionedSnapshot{Started: p.started, Last: p.last, ResultCount: p.count}
	for _, seg := range p.segments {
		ps.Segments = append(ps.Segments, seg.engine.snapshotState())
	}
	return &SystemSnapshot{Kind: KindPartitioned, Partitioned: ps}, nil
}

// Restore loads a partitioned snapshot into a freshly constructed
// executor built from the same segment specs. It also accepts the
// KindSegments form earlier builds wrote for one parallel worker's
// segments, which carries the segment engines but no stream position.
func (p *Partitioned) Restore(s *SystemSnapshot) error {
	if (s.Kind != KindPartitioned && s.Kind != KindSegments) || s.Partitioned == nil {
		return fmt.Errorf("exec: partitioned restore from %q snapshot", s.Kind)
	}
	ps := s.Partitioned
	if p.started {
		return fmt.Errorf("exec: Restore on a started partitioned executor")
	}
	if len(ps.Segments) != len(p.segments) {
		return fmt.Errorf("exec: snapshot has %d segments, executor has %d", len(ps.Segments), len(p.segments))
	}
	for i, seg := range p.segments {
		if err := seg.engine.restoreState(ps.Segments[i]); err != nil {
			return fmt.Errorf("exec: segment %d: %w", i, err)
		}
	}
	p.started, p.last, p.count = ps.Started, ps.Last, ps.ResultCount
	if s.Kind == KindSegments {
		// Every segment engine sees the whole stream, so any of them
		// holds the position the executor itself was at.
		p.started, p.last = p.segments[0].engine.started, p.segments[0].engine.lastTime
	}
	return nil
}

// --- Dynamic ---

// Snapshot captures the dynamic executor's state, including the
// rate-drift counters and — mid-migration — the draining engine.
func (d *Dynamic) Snapshot() (*SystemSnapshot, error) {
	ds := &DynamicSnapshot{
		Started:     d.started,
		Last:        d.last,
		ResultCount: d.count,
		Migrations:  d.Migrations,
		Plan:        d.plan.Clone(),
		Rates:       cloneRates(d.rates),
		Counts:      cloneCounts(d.counts),
		CountFrom:   d.countFrom,
		NextCheck:   d.nextCheck,
		Boundary:    d.boundary,
		CurrentFrom: d.currentFrom,
		Current:     d.current.snapshotState(),
	}
	if d.draining != nil {
		ds.DrainPlan = d.drainPlan.Clone()
		ds.DrainFrom = d.drainFrom
		ds.Draining = d.draining.snapshotState()
	}
	ds.ShareTransitions = d.ShareTransitions
	ds.SplitTransitions = d.SplitTransitions
	ds.PrunedRetired = d.prunedRetired
	if d.detector != nil {
		ds.BurstBaseline = d.detector.Baseline()
		ds.BurstState = int(d.detector.State())
	}
	return &SystemSnapshot{Kind: KindDynamic, Dynamic: ds}, nil
}

// Restore loads a dynamic snapshot into a freshly constructed executor
// over the same workload. The constructor's initial engine is replaced by
// engines rebuilt for the snapshot's installed (and draining) plans.
func (d *Dynamic) Restore(s *SystemSnapshot) error {
	if s.Kind != KindDynamic || s.Dynamic == nil {
		return fmt.Errorf("exec: dynamic restore from %q snapshot", s.Kind)
	}
	ds := s.Dynamic
	if d.started {
		return fmt.Errorf("exec: Restore on a started dynamic executor")
	}
	cur, err := d.newEngine(ds.Plan, ds.CurrentFrom, -1)
	if err != nil {
		return err
	}
	if err := cur.restoreState(ds.Current); err != nil {
		return fmt.Errorf("exec: dynamic current engine: %w", err)
	}
	d.current = cur
	d.plan = ds.Plan
	d.draining = nil
	if ds.Draining != nil {
		old, err := d.newEngine(ds.DrainPlan, ds.DrainFrom, ds.Boundary-1)
		if err != nil {
			return err
		}
		if err := old.restoreState(ds.Draining); err != nil {
			return fmt.Errorf("exec: dynamic draining engine: %w", err)
		}
		d.draining = old
		d.drainPlan = ds.DrainPlan
		d.drainFrom = ds.DrainFrom
	}
	d.started = ds.Started
	d.last = ds.Last
	d.count = ds.ResultCount
	d.Migrations = ds.Migrations
	d.rates = cloneRates(ds.Rates)
	d.counts = cloneCounts(ds.Counts)
	if d.counts == nil {
		d.counts = make(map[event.Type]float64)
	}
	d.countFrom = ds.CountFrom
	d.nextCheck = ds.NextCheck
	d.boundary = ds.Boundary
	d.currentFrom = ds.CurrentFrom
	d.ShareTransitions = ds.ShareTransitions
	d.SplitTransitions = ds.SplitTransitions
	d.prunedRetired = ds.PrunedRetired
	if d.detector != nil {
		d.detector.restore(ds.BurstBaseline, BurstState(ds.BurstState))
	}
	return nil
}

func cloneRates(r core.Rates) core.Rates {
	if r == nil {
		return nil
	}
	out := make(core.Rates, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

func cloneCounts(c map[event.Type]float64) map[event.Type]float64 {
	if c == nil {
		return nil
	}
	out := make(map[event.Type]float64, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// --- Parallel ---

// Snapshot captures the parallel executor's state under a quiesced
// barrier: the feeder dispatches every pending batch stamped with the
// current watermark plus a snapshot request, each worker snapshots its
// shard after fully processing the round, and the merge stage confirms
// it has delivered every window the round made ready. When Snapshot
// returns, every result for windows ending at or before the watermark
// has been emitted through OnResult, and the shard snapshots jointly
// cover exactly the windows after it — the consistency the checkpoint's
// resumption cursor relies on.
func (p *Parallel) Snapshot() (*SystemSnapshot, error) {
	if p.closed {
		return nil, fmt.Errorf("exec: Snapshot after Flush on parallel executor")
	}
	if err := p.loadErr(); err != nil {
		return nil, err
	}
	snapCh := make(chan shardSnap, len(p.workers))
	for i, w := range p.workers {
		batch := p.pending[i]
		if p.broadcast {
			batch = p.pending[0]
		}
		msg := shardMsg{events: batch, pooled: !p.broadcast, snap: snapCh}
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

	shards := make([]*SystemSnapshot, len(p.workers))
	var firstErr error
	for range p.workers {
		sn := <-snapCh
		if sn.err != nil {
			if firstErr == nil {
				firstErr = sn.err
			}
			continue
		}
		shards[sn.shard] = sn.s
	}
	<-p.snapBarrier // merge has delivered everything the round made ready
	if firstErr != nil {
		return nil, firstErr
	}
	return &SystemSnapshot{Kind: KindParallel, Parallel: &ParallelSnapshot{
		Started:     p.started,
		Last:        p.last,
		ResultCount: p.count.Load(),
		Shards:      shards,
	}}, nil
}

// Restore loads a parallel snapshot into a freshly constructed executor
// with the same worker count, before any event was fed. The workers have
// not been sent any message yet, so the feeder may touch shard state
// directly (same argument as reading a shard's initial plan).
func (p *Parallel) Restore(s *SystemSnapshot) error {
	if s.Kind != KindParallel || s.Parallel == nil {
		return fmt.Errorf("exec: parallel restore from %q snapshot", s.Kind)
	}
	ps := s.Parallel
	if p.started || p.closed {
		return fmt.Errorf("exec: Restore on a started parallel executor")
	}
	if len(ps.Shards) != len(p.workers) {
		return fmt.Errorf("exec: snapshot has %d shards, executor has %d workers (restore requires the same parallelism)", len(ps.Shards), len(p.workers))
	}
	for i, w := range p.workers {
		if ps.Shards[i] == nil {
			return fmt.Errorf("exec: snapshot shard %d missing", i)
		}
		if err := w.target.Restore(ps.Shards[i]); err != nil {
			return fmt.Errorf("exec: shard %d: %w", i, err)
		}
	}
	p.started = ps.Started
	p.last = ps.Last
	p.count.Store(ps.ResultCount)
	return nil
}
