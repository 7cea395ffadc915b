package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/sharon-project/sharon/internal/agg"
	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

// Engine is the online event sequence aggregation executor. With an empty
// sharing plan every query runs the non-shared method (the A-Seq baseline,
// paper §3.2); with a sharing plan, queries are decomposed into chains of
// segments — shared patterns computed once for all sharing queries, plus
// private prefix/suffix segments — whose per-window aggregates are
// combined online exactly as in the paper's Fig. 7.
//
// Each query's pattern is split into an ordered chain seg_1 .. seg_m. For
// every stage i the engine maintains C_i(k): the aggregate of all
// concatenations of matches of seg_1 .. seg_i lying fully inside window k
// with the required temporal order between segments. C_1 is the first
// segment aggregator's own per-window total. When a START event c of
// seg_{i+1} arrives, C_i(k) is snapshotted for every window k containing
// c (count combination step 2a); when seg_{i+1} completes from c with
// aggregate delta, C_{i+1}(k) += snapshot ⊗ delta (step 2b). The final
// result of window k is C_m(k), emitted when the watermark passes the
// window's end.
//
// Parallel execution: all per-group runtime state lives in engineGroup
// and groups never interact, so the engine shards cleanly by group key —
// the Parallel executor runs one Engine per worker goroutine, routes
// events by group-key hash, and drives window emission on idle shards
// with AdvanceWatermark. A single Engine instance is still strictly
// single-threaded; sharding happens by giving each worker its own
// instance (see NewParallelEngine).
type Engine struct {
	name  string
	w     query.Workload
	plan  core.Plan
	win   query.Window
	preds []query.Predicate
	group bool

	proto  *engineProto
	groups map[event.GroupKey]*engineGroup

	resultSink
	sequential
	started   bool
	lastTime  int64
	nextClose int64
	maxWin    int64
	// bound caps which windows this engine materializes (MaxInt64 when
	// unbounded): snapshot captures are clamped to it, START records whose
	// first containing window lies past it are declined, and windows past
	// it close without computing or emitting results. The dynamic executor
	// bounds a draining engine at the migration boundary, so a hand-off
	// drain skips the work its OnResult filter would discard anyway.
	bound int64
	// emitBuf stages one window's results so they can be sorted into the
	// canonical (query, window, group) order before reaching the sink;
	// reused across windows to keep the hot path allocation-free.
	emitBuf []Result

	peakLive int64
	queries  map[int]*query.Query

	// mergedNodes/mergedStages count the SHARP-style structural merges
	// performed across all built groups: private aggregators deduplicated
	// across queries with an identical (pattern, target) segment, and
	// chain stages collapsed onto one snapshot ring because their node
	// and full upstream chain coincide.
	mergedNodes  int64
	mergedStages int64
}

// engineProto is the group-independent compiled form of workload + plan.
type engineProto struct {
	chains        []*chainProto
	sharedPattern []query.Pattern
	sharedTarget  []event.Type
}

type chainProto struct {
	q    *query.Query
	segs []segProto
}

type segProto struct {
	pattern   query.Pattern
	sharedIdx int // index into sharedPattern, or -1 for a private segment
}

// NewEngine compiles workload and plan into an executor. An empty plan
// yields the A-Seq (non-shared) executor.
func NewEngine(w query.Workload, plan core.Plan, opts Options) (*Engine, error) {
	if err := validateUniform(w); err != nil {
		return nil, err
	}
	if err := plan.Validate(w); err != nil {
		return nil, err
	}
	proto, err := compile(w, plan)
	if err != nil {
		return nil, err
	}
	name := "A-Seq"
	if len(plan) > 0 {
		name = "Sharon"
	}
	en := &Engine{
		name:       name,
		w:          w,
		plan:       plan,
		win:        w[0].Window,
		preds:      w[0].Where,
		group:      w[0].GroupBy,
		proto:      proto,
		groups:     make(map[event.GroupKey]*engineGroup),
		resultSink: resultSink{opts: opts},
		nextClose:  -1,
		maxWin:     -1,
		bound:      math.MaxInt64,
		queries:    make(map[int]*query.Query, len(w)),
	}
	for _, q := range w {
		en.queries[q.ID] = q
	}
	return en, nil
}

// compile decomposes each query's pattern around its plan candidates into
// a chain of shared and private segments (Definition 4, generalized to a
// query sharing several non-overlapping patterns, e.g. q4 sharing both p2
// and p4 in the paper's optimal plan).
func compile(w query.Workload, plan core.Plan) (*engineProto, error) {
	proto := &engineProto{}
	sharedIdx := make(map[string]int)
	targetOf := make(map[string]event.Type)

	intern := func(p query.Pattern, target event.Type, label string) (int, error) {
		k := p.Key()
		idx, ok := sharedIdx[k]
		if !ok {
			idx = len(proto.sharedPattern)
			sharedIdx[k] = idx
			proto.sharedPattern = append(proto.sharedPattern, p.Clone())
			proto.sharedTarget = append(proto.sharedTarget, target)
			targetOf[k] = target
			return idx, nil
		}
		if target != event.NoType && targetOf[k] != event.NoType && targetOf[k] != target {
			return 0, fmt.Errorf("exec: shared pattern %v has incompatible aggregation targets across queries (%s)", p, label)
		}
		if target != event.NoType && targetOf[k] == event.NoType {
			targetOf[k] = target
			proto.sharedTarget[idx] = target
		}
		return idx, nil
	}

	for _, q := range w {
		cands := plan.QueriesSharing(q.ID)
		type span struct {
			lo, hi int
			p      query.Pattern
		}
		spans := make([]span, 0, len(cands))
		for _, c := range cands {
			at := q.Pattern.IndexOf(c.Pattern)
			if at < 0 {
				return nil, fmt.Errorf("exec: plan pattern %v not in query %s", c.Pattern, q.Label())
			}
			spans = append(spans, span{at, at + c.Pattern.Length(), c.Pattern})
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })

		ch := &chainProto{q: q}
		pos := 0
		for _, sp := range spans {
			if sp.lo < pos {
				return nil, fmt.Errorf("exec: overlapping shared segments for query %s", q.Label())
			}
			if sp.lo > pos {
				ch.segs = append(ch.segs, segProto{pattern: q.Pattern.Sub(pos, sp.lo), sharedIdx: -1})
			}
			// The target the shared aggregator must track for this query:
			// only relevant if the query's aggregation target lies inside
			// the shared segment.
			target := event.NoType
			if q.Agg.Kind != query.CountStar && sp.p.Contains(query.Pattern{q.Agg.Target}) {
				target = q.Agg.Target
			}
			idx, err := intern(sp.p, target, q.Label())
			if err != nil {
				return nil, err
			}
			ch.segs = append(ch.segs, segProto{pattern: sp.p, sharedIdx: idx})
			pos = sp.hi
		}
		if pos < q.Pattern.Length() {
			ch.segs = append(ch.segs, segProto{pattern: q.Pattern.Sub(pos, q.Pattern.Length()), sharedIdx: -1})
		}
		// Segments within one query must be type-disjoint for the
		// snapshot ordering to be exact; with duplicate types (§7.3) the
		// query must run non-shared.
		if len(ch.segs) > 1 && q.Pattern.HasDuplicateTypes() {
			return nil, fmt.Errorf("exec: query %s has duplicate event types and cannot be decomposed for sharing (run it non-shared)", q.Label())
		}
		proto.chains = append(proto.chains, ch)
	}
	return proto, nil
}

// --- runtime (per-group) structures ---

type engineGroup struct {
	key    event.GroupKey
	nodes  []*aggNode // all aggregators of the group (shared first)
	shared []*aggNode // indexed like proto.sharedPattern
	chains []*chainRT
	// stages lists every distinct stage runtime exactly once. Chains may
	// share stage objects (merged equivalent stages), so per-window
	// release and live-state accounting iterate this set, not the
	// chains' views.
	stages []*stageRT
	// byType indexes the nodes whose pattern contains each event type, so
	// Process touches only relevant aggregators. It is a dense table
	// indexed by the interned event.Type (sized to the workload's largest
	// pattern type; other types dispatch to nothing by bounds check).
	byType [][]*aggNode
}

// aggNode is one aggregator plus the chain stages listening to it. Shared
// nodes have one listener per sharing query's chain (fewer when
// equivalent stages are merged).
type aggNode struct {
	agg       *agg.Aggregator
	listeners []*stageRT
	// headOnly is true when no listener reads this node's per-window
	// totals (every listener is a later-stage combiner that consumes the
	// node only through START-record snapshots). For such a node a START
	// record that no listener snapshotted is dead on arrival — in the
	// NFA view (see sase.go), no open window holds a reachable accepting
	// path through it — and is pruned back to the freelist at birth.
	headOnly bool
	// startLive is per-START scratch: set by the OnStart fan-out when at
	// least one listener captured a snapshot referencing the record,
	// read immediately after by the RetainStart check. The engine is
	// single-threaded, so one slot suffices.
	startLive bool
}

type chainRT struct {
	proto  *chainProto
	stages []*stageRT
}

// snapEntry pairs a START record of a stage's segment with the upstream
// aggregate C_i(k) captured when that START event arrived (Fig. 7: "when
// c3 arrives, count(A,B) = 1").
type snapEntry struct {
	rec *agg.StartRec
	up  agg.State
}

// stageRT is one chain stage: a reference to its aggregator node plus, for
// stages after the first, the combination state of Fig. 7. Combination is
// lazy: a snapshot of the upstream aggregate is stored per (START event,
// window) on arrival, and the product with the START's complete aggregate
// is taken only when a downstream stage (or the window close) reads the
// stage's value. The combination cost is therefore proportional to the
// product of segment START rates — exactly Eq. 5 of the cost model.
type stageRT struct {
	// prev is the upstream stage whose aggregate this stage snapshots on
	// its segment's START events; nil for stage 0. Merged stages share
	// one upstream by construction (the merge key encodes it).
	prev *stageRT
	idx  int
	node *aggNode
	// ownerChain is the index of the chain that created this stage; when
	// equivalent stages are merged, later chains alias the object and
	// the snapshot encoder serializes it only under its owner's
	// coordinates.
	ownerChain int
	// eng is the owning engine; its [nextClose, maxWin] live range
	// drives the snapshot ring's lazy growth.
	eng  *Engine
	win  query.Window
	plen int // this stage's segment pattern length
	// mask is set when this stage's aggregator is shared and tracks a
	// different target type than this query needs from the segment; the
	// segment then contributes only its sequence counts (agg.ProjectCount).
	mask bool
	// snapRing[k&snapMask] holds this stage's per-START upstream
	// snapshots for open window k (only for idx >= 1; stage 0 reads the
	// aggregator's own per-window totals). Open windows are the
	// contiguous range [nextClose, maxWin], so a power-of-two ring
	// replaces the map; a closing window's slice is reset in place
	// (length 0, capacity kept) so the slot's backing array is recycled
	// when the ring wraps around to window k+len(snapRing).
	snapRing [][]snapEntry
	snapMask int64
}

// buildGroup constructs one group's runtime. Unless
// Options.DisableStateReduction is set it applies the two SHARP-style
// structural merges:
//
//   - M1 (node merge): private segments with the same (pattern, target)
//     across different queries' chains compute byte-identical aggregator
//     state, so they share one aggNode — one extend loop and one record
//     pool instead of one per query.
//   - M2 (stage merge): chain stages over the same node whose entire
//     upstream stage chain coincides capture identical snapshot streams,
//     so they share one stageRT (one snapshot ring, appended once per
//     START instead of once per query).
//
// Both merges are value-preserving by induction over the stage depth: a
// stage's value is a pure function of its node's stream state and its
// upstream stage's value, and the merge key equates exactly those
// inputs. The chains keep their own stage *views* (ch.stages) so
// per-query emission is unchanged.
func (en *Engine) buildGroup(key event.GroupKey) *engineGroup {
	g := &engineGroup{key: key}
	reduce := !en.opts.DisableStateReduction
	g.shared = make([]*aggNode, len(en.proto.sharedPattern))
	nodeIdx := make(map[*aggNode]int)
	for i, p := range en.proto.sharedPattern {
		g.shared[i] = newAggNode(en, p, en.proto.sharedTarget[i], reduce)
		nodeIdx[g.shared[i]] = len(g.nodes)
		g.nodes = append(g.nodes, g.shared[i])
	}
	privNodes := make(map[string]*aggNode)
	classes := make(map[string]*stageRT)
	for ci, cp := range en.proto.chains {
		ch := &chainRT{proto: cp}
		var prev *stageRT
		prevKey := ""
		for i, seg := range cp.segs {
			var node *aggNode
			if seg.sharedIdx >= 0 {
				node = g.shared[seg.sharedIdx]
			} else {
				target := event.NoType
				if cp.q.Agg.Kind != query.CountStar {
					target = cp.q.Agg.Target
				}
				nk := fmt.Sprintf("%s\x00%d", seg.pattern.Key(), target)
				if existing, ok := privNodes[nk]; ok && reduce {
					node = existing // M1: identical private aggregator state
					en.mergedNodes++
				} else {
					node = newAggNode(en, seg.pattern, target, reduce)
					privNodes[nk] = node
					nodeIdx[node] = len(g.nodes)
					g.nodes = append(g.nodes, node)
				}
			}
			mask := false
			if seg.sharedIdx >= 0 {
				eff := event.NoType
				if cp.q.Agg.Kind != query.CountStar && seg.pattern.Contains(query.Pattern{cp.q.Agg.Target}) {
					eff = cp.q.Agg.Target
				}
				mask = en.proto.sharedTarget[seg.sharedIdx] != eff
			}
			// The class key equates (node identity, count projection,
			// full upstream chain) — the complete set of inputs a stage's
			// value depends on.
			ck := fmt.Sprintf("%d\x00%t\x00%s", nodeIdx[node], mask, prevKey)
			if st, ok := classes[ck]; ok && reduce {
				en.mergedStages++ // M2: alias the equivalent stage
				ch.stages = append(ch.stages, st)
				prev, prevKey = st, ck
				continue
			}
			st := &stageRT{prev: prev, idx: i, node: node, ownerChain: ci, eng: en, win: en.win, plen: seg.pattern.Length(), mask: mask}
			if i >= 1 {
				n := initialSnapRing(en.win)
				st.snapRing = make([][]snapEntry, n)
				st.snapMask = n - 1
			}
			node.listeners = append(node.listeners, st)
			ch.stages = append(ch.stages, st)
			g.stages = append(g.stages, st)
			classes[ck] = st
			prev, prevKey = st, ck
		}
		g.chains = append(g.chains, ch)
	}
	// A node is headOnly when no listener reads its per-window totals
	// (no stage-0 listener, and no downstream stage snapshots it as an
	// upstream — which is the same condition, since stage i snapshots
	// stage i-1 and only stage 0 reads totals).
	for _, node := range g.nodes {
		node.headOnly = true
		for _, st := range node.listeners {
			if st.idx == 0 {
				node.headOnly = false
				break
			}
		}
	}
	maxType := event.Type(0)
	for _, node := range g.nodes {
		for _, t := range node.agg.Pattern() {
			if t > maxType {
				maxType = t
			}
		}
	}
	g.byType = make([][]*aggNode, maxType+1)
	for _, node := range g.nodes {
		seen := make(map[event.Type]bool)
		for _, t := range node.agg.Pattern() {
			if !seen[t] {
				seen[t] = true
				g.byType[t] = append(g.byType[t], node)
			}
		}
	}
	return g
}

// initialSnapRing returns the snapshot ring's starting capacity: the
// full MaxConcurrent bound when small, else a small seed that ensureRing
// grows geometrically with the observed live span (cf. agg's window ring
// — a high-overlap window must not pre-pay its worst case per stage per
// group at construction).
func initialSnapRing(w query.Window) int64 {
	n := query.NextPow2(w.MaxConcurrent() + 2)
	if n > 16 {
		n = 16
	}
	return n
}

// ensureRing grows the snapshot ring to cover the engine's live window
// range. Copying exactly the old coverage [nextClose, nextClose+len-1] is
// a bijection onto old slots, so no two live windows can inherit the same
// recycled slice (appends are always preceded by ensureRing in onStart,
// hence windows beyond the old coverage hold no entries).
//
//sharon:hotpath
func (st *stageRT) ensureRing() {
	span := st.eng.maxWin - st.eng.nextClose + 1
	oldLen := int64(len(st.snapRing))
	if span <= oldLen {
		return
	}
	n := query.NextPow2(span)
	ring := make([][]snapEntry, n) //sharon:allow hotpathalloc (geometric snapshot-ring growth: O(log overlap) allocations, none at steady state)
	for k := st.eng.nextClose; k < st.eng.nextClose+oldLen; k++ {
		ring[k&(n-1)] = st.snapRing[k&st.snapMask]
	}
	st.snapRing, st.snapMask = ring, n-1
}

func newAggNode(en *Engine, p query.Pattern, target event.Type, reduce bool) *aggNode {
	node := &aggNode{}
	w := en.win
	cfg := agg.Config{
		Pattern: p,
		Window:  w,
		Target:  target,
		OnStart: func(rec *agg.StartRec, e event.Event) {
			live := false
			for _, st := range node.listeners {
				if st.onStart(rec, e) {
					live = true
				}
			}
			node.startLive = live
		},
		// Retention combines two independent prunes:
		//
		//   - Bound prune: on a bounded (draining) engine, a record whose
		//     first containing window lies past the bound can only feed
		//     windows the engine never emits, and — with snapshot captures
		//     clamped to the bound — no listener holds a reference to it,
		//     so it is safe to recycle regardless of the node's shape.
		//   - Dead-suffix prune (state reduction only): on a headOnly node
		//     a record nobody snapshotted can never reach an accepting
		//     state of any chain — its prefix values are only ever read
		//     through snapshot entries, and none exist. Records any
		//     listener snapshotted are always retained: the snapshot
		//     entries hold the pointer until their window closes (StartRec
		//     lifecycle contract).
		RetainStart: func(rec *agg.StartRec, e event.Event) bool {
			if w.FirstContaining(e.Time) > en.bound {
				return false
			}
			return !reduce || node.startLive || !node.headOnly
		},
	}
	node.agg = agg.NewAggregator(cfg)
	return node
}

// onStart snapshots the upstream per-window aggregate when a START event
// of this stage's segment arrives (Fig. 7: "when c3 arrives,
// count(A,B) = 1"). Sequence semantics make this sound: every upstream
// match counted so far ended strictly before this START event. It
// reports whether any snapshot entry was captured — i.e. whether this
// stage now holds a reference to rec — which feeds the node's
// dead-suffix retention check.
//
//sharon:hotpath
func (st *stageRT) onStart(rec *agg.StartRec, e event.Event) bool {
	if st.idx == 0 {
		return false
	}
	st.ensureRing()
	captured := false
	first, last := st.win.Indices(e.Time)
	if last > st.eng.bound {
		last = st.eng.bound // bounded drain: windows past the bound are never read
	}
	for k := first; k <= last; k++ {
		up := st.prev.currentValue(k)
		if up.Count == 0 {
			continue
		}
		slot := k & st.snapMask
		st.snapRing[slot] = append(st.snapRing[slot], snapEntry{rec: rec, up: up}) //sharon:allow hotpathalloc (amortized: closed windows reset slots to length 0 keeping capacity, so the backing array is recycled)
		captured = true
	}
	return captured
}

// currentValue returns C_{idx+1}(k) as of the current watermark: for
// stage 0 the aggregator's own per-window total; for later stages the sum
// over START snapshots of snapshot ⊗ complete-aggregate — the paper's
// count-combination step, evaluated lazily.
//
//sharon:hotpath
//sharon:deterministic
func (st *stageRT) currentValue(k int64) agg.State {
	if st.idx == 0 {
		s := st.node.agg.CurrentTotal(k)
		if st.mask {
			s = agg.ProjectCount(s)
		}
		return s
	}
	total := agg.Zero()
	for _, en := range st.snapRing[k&st.snapMask] {
		d := en.rec.Prefix(st.plen)
		if d.Count == 0 {
			continue
		}
		if st.mask {
			d = agg.ProjectCount(d)
		}
		total.AddInPlace(agg.Concat(en.up, d))
	}
	return total
}

// windowState returns the chain's final aggregate for window k (C_m(k)).
//
//sharon:hotpath
//sharon:deterministic
func (ch *chainRT) windowState(k int64) agg.State {
	return ch.stages[len(ch.stages)-1].currentValue(k)
}

// release drops all stage state for a closed window: each stage's ring
// slot is reset to length zero with its capacity kept, so the next window
// landing on the slot appends into the recycled backing array. Releasing
// here — before the aggregators observe a later watermark — also orders
// the drop of every *StartRec reference ahead of the record's return to
// its aggregator's pool (see agg.StartRec). It iterates the group's
// distinct stage set: chains may alias merged stages, and every chain's
// read of the window must complete before its (possibly shared) slot is
// reset — emitWindow guarantees that ordering.
//
//sharon:hotpath
//sharon:deterministic
func (g *engineGroup) release(k int64) {
	for _, st := range g.stages {
		if st.idx == 0 {
			continue
		}
		slot := k & st.snapMask
		entries := st.snapRing[slot]
		for i := range entries {
			entries[i] = snapEntry{} // drop rec pointers for GC hygiene
		}
		st.snapRing[slot] = entries[:0]
	}
}

// --- Executor interface ---

// Name reports "Sharon" or "A-Seq".
func (en *Engine) Name() string { return en.name }

// Plan returns the sharing plan driving this engine.
func (en *Engine) Plan() core.Plan { return en.plan }

// Process feeds the next event (strictly time-ordered).
//
//sharon:hotpath
func (en *Engine) Process(e event.Event) error {
	if en.started && e.Time <= en.lastTime {
		return fmt.Errorf("exec: out-of-order event at t=%d (last t=%d)", e.Time, en.lastTime) //sharon:allow hotpathalloc (cold error path: the caller stops the stream on the first out-of-order event)
	}
	if !en.started {
		en.started = true
		en.nextClose = en.win.FirstContaining(e.Time)
	}
	en.lastTime = e.Time
	en.closeUpTo(e.Time)
	if last := en.win.LastContaining(e.Time); last > en.maxWin {
		en.maxWin = last
	}
	if !accepts(en.preds, e) {
		return nil
	}
	key := event.GroupKey(0)
	if en.group {
		key = e.Key
	}
	g, ok := en.groups[key]
	if !ok {
		g = en.buildGroup(key) //sharon:allow hotpathalloc (cold path: runs once per new group key, not per event)
		en.groups[key] = g     //sharon:allow hotpathalloc (cold path: one map insert per new group key)
	}
	if int(e.Type) < len(g.byType) {
		for _, node := range g.byType[e.Type] {
			if err := node.agg.Process(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// FeedBatch feeds a strictly time-ordered batch.
//
//sharon:hotpath
func (en *Engine) FeedBatch(events []event.Event) error {
	for _, e := range events {
		if err := en.Process(e); err != nil {
			return err
		}
	}
	return nil
}

// closeUpTo emits results for every window ending at or before t.
//
//sharon:hotpath
func (en *Engine) closeUpTo(t int64) {
	for en.win.End(en.nextClose) <= t {
		// Every closed window overlaps the stream span: nextClose starts
		// at the first event's first window and Flush stops at maxWin.
		en.sampleMemory()
		en.emitWindow(en.nextClose)
		en.nextClose++
	}
}

// emitWindow delivers window win's results in the canonical (query,
// window, group) order. Group state lives in a map, so the raw iteration
// order is not deterministic; staging the window in emitBuf and sorting
// makes the OnResult sink order identical across runs — and identical to
// the parallel executor's merge order — so sinks (the server's push
// subscriptions, the harness) can rely on it without re-sorting.
//
//sharon:hotpath
//sharon:deterministic
func (en *Engine) emitWindow(win int64) {
	if win > en.bound {
		// A bounded engine never emits past its bound; skip the
		// combination reads but still release ring state so slots recycle.
		//sharon:allow deterministicemit (release-only: nothing is emitted for a window past the bound, so iteration order is unobservable)
		for _, g := range en.groups {
			g.release(win)
		}
		return
	}
	en.emitBuf = en.emitBuf[:0]
	//sharon:allow deterministicemit (the map range only stages into emitBuf; the sort below fixes the (query, window, group) emit order)
	for _, g := range en.groups {
		// Read every chain's window state before releasing any stage:
		// merged stages are aliased by several chains, so an interleaved
		// read/release would clear a ring slot a later chain still needs.
		for _, ch := range g.chains {
			state := ch.windowState(win)
			if state.Count > 0 || en.opts.EmitEmpty {
				en.emitBuf = append(en.emitBuf, Result{Query: ch.proto.q.ID, Win: win, Group: g.key, State: state}) //sharon:allow hotpathalloc (amortized: emitBuf is reset to length 0 and reused every window)
			}
		}
		g.release(win)
	}
	slices.SortFunc(en.emitBuf, cmpResult)
	for _, r := range en.emitBuf {
		en.emit(r)
	}
}

// AdvanceWatermark closes every window ending at or before t without
// consuming an event, and extends the flushable range exactly as an
// event at time t would. The parallel executor calls it so that a shard
// whose groups go quiet still emits its windows in step with the global
// stream watermark. Calls at or before the engine's current watermark
// are no-ops; an engine that has seen no events has no groups and
// nothing to emit, so it ignores the watermark entirely.
//
//sharon:hotpath
func (en *Engine) AdvanceWatermark(t int64) {
	if !en.started || t <= en.lastTime {
		return
	}
	en.lastTime = t
	en.closeUpTo(t)
	if last := en.win.LastContaining(t); last > en.maxWin {
		en.maxWin = last
	}
}

// BoundEmitWindows caps the engine at window maxWin: snapshot captures
// clamp to it, START records that can only feed later windows are
// declined back to the freelist, and windows past it close without
// computing or emitting results. The dynamic executor bounds a draining
// engine at the last window it owns (the migration boundary minus one),
// collapsing the drain's double-processing cost to the fraction of work
// that feeds windows it will actually emit. Output for windows at or
// below the bound is unaffected.
func (en *Engine) BoundEmitWindows(maxWin int64) { en.bound = maxWin }

// Flush closes all windows containing events seen so far.
//
//sharon:hotpath
func (en *Engine) Flush() error {
	if !en.started {
		return nil
	}
	en.closeUpTo(en.win.End(en.maxWin))
	return nil
}

// sampleMemory records the current live-state count into the peak.
//
//sharon:hotpath
func (en *Engine) sampleMemory() {
	n := en.LiveStates()
	if n > en.peakLive {
		en.peakLive = n
	}
}

// LiveStates counts all aggregate states currently held: aggregator
// prefix/total states plus the chains' combination and snapshot entries.
//
//sharon:hotpath
func (en *Engine) LiveStates() int64 {
	var n int64
	for _, g := range en.groups {
		for _, node := range g.nodes {
			n += node.agg.LiveStates()
		}
		for _, st := range g.stages {
			if st.idx == 0 {
				continue
			}
			for _, entries := range st.snapRing {
				n += int64(len(entries))
			}
		}
	}
	return n
}

// PeakLiveStates reports the peak sampled live-state count.
func (en *Engine) PeakLiveStates() int64 {
	en.sampleMemory()
	return en.peakLive
}

// PrunedStarts reports how many START records the dead-suffix check
// recycled at birth across all groups (SHARP-style state reduction).
func (en *Engine) PrunedStarts() int64 {
	var n int64
	for _, g := range en.groups {
		for _, node := range g.nodes {
			n += node.agg.PrunedStarts()
		}
	}
	return n
}

// MergedNodes reports how many private aggregators were deduplicated
// across queries (merge M1), and MergedStages how many chain stages were
// collapsed onto an equivalent stage's snapshot ring (merge M2), summed
// over all built groups.
func (en *Engine) MergedNodes() int64  { return en.mergedNodes }
func (en *Engine) MergedStages() int64 { return en.mergedStages }

// Explain renders the engine's per-query decomposition: which segments of
// each query's pattern are computed by shared aggregators and which
// privately. Useful for inspecting what a sharing plan means at runtime.
func (en *Engine) Explain(reg *event.Registry) string {
	var b strings.Builder
	for _, cp := range en.proto.chains {
		fmt.Fprintf(&b, "%-6s", cp.q.Label())
		for i, seg := range cp.segs {
			if i > 0 {
				b.WriteString(" . ")
			}
			if seg.sharedIdx >= 0 {
				fmt.Fprintf(&b, "shared%s", seg.pattern.Format(reg))
			} else {
				fmt.Fprintf(&b, "private%s", seg.pattern.Format(reg))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
