package exec

import (
	"cmp"
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
	tmpl   *groupTemplate
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

	// active[k&activeMask] is open window k's close list: the groups that
	// can emit a result or hold snapshot entries in k. A group joins it
	// when a completion is first credited to k on a node whose totals are
	// results (aggNode.emits) or a snapshot entry is first captured for k
	// (listGroup), so closing k walks only groups with something to
	// evaluate or release. The ring covers the
	// live range [nextClose, maxWin] and grows like the snapshot rings;
	// a closed window's slot is reset to length 0 with its capacity kept.
	active     [][]*engineGroup
	activeMask int64
	// every lists all groups under Options.EmitEmpty, where each group
	// emits in each window: it then stands in for every window's list
	// (nil otherwise).
	every []*engineGroup

	// Close-path scratch, reused across windows so a close allocates
	// nothing at steady state: finalVals holds one group's distinct final
	// stage values, stageBuf/stageRank the window's non-empty results in
	// (group, query) visit order with their query ranks, rankOff the
	// counting pass's per-rank offsets, and emitBuf the results placed in
	// the canonical (query, window, group) order.
	finalVals []agg.State
	stageBuf  []Result
	stageRank []int
	rankOff   []int
	emitBuf   []Result

	// live counts the aggregate states currently held (see LiveStates),
	// maintained where states are created and dropped.
	live     int64
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
		tmpl:       newGroupTemplate(proto, !opts.DisableStateReduction),
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
	n := initialSnapRing(en.win)
	en.active = make([][]*engineGroup, n)
	en.activeMask = n - 1
	en.finalVals = make([]agg.State, len(en.tmpl.finals))
	en.rankOff = make([]int, len(en.tmpl.emit)+1)
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

// --- group template ---

// groupTemplate is the group-independent shape of one group's runtime:
// which aggregators exist, how the chains' stages hang off them after the
// two SHARP-style structural merges, which nodes each event type
// dispatches to, and the order results leave a closing window. It is
// derived once from the compiled workload; buildGroup only instantiates
// it. Unless Options.DisableStateReduction is set the merges are:
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
// inputs. The chains keep their own stage *views* (chains) so per-query
// emission is unchanged.
type groupTemplate struct {
	nodes  []nodeTmpl  // shared nodes first, then private ones in first-use order
	stages []stageTmpl // every distinct stage once, in creation order
	chains [][]int     // per chain, its stage views as indices into stages
	// byType indexes the nodes whose pattern contains each event type. It
	// is a dense table indexed by the interned event.Type (sized to the
	// workload's largest pattern type; other types dispatch to nothing by
	// bounds check).
	byType [][]int
	// finals are the distinct chain-final stages (indices into stages): a
	// closing window evaluates each once, however many chains alias it.
	finals []int
	// emit lists the chains in query-ID order, the order their results
	// leave a window; its index is the query's rank in the counting pass.
	emit []emitSlot
	// viewCount and dispatchCount total the entries of chains and byType,
	// so a group allocates one backing array for each table.
	viewCount, dispatchCount int
	// mergedNodes/mergedStages are the M1/M2 merges one group performs.
	mergedNodes, mergedStages int64
}

type nodeTmpl struct {
	pattern query.Pattern
	target  event.Type
	// headOnly: no listener reads the node's per-window totals (no stage-0
	// listener, and no downstream stage snapshots it as an upstream —
	// which is the same condition, since stage i snapshots stage i-1 and
	// only stage 0 reads totals).
	headOnly bool
	// emits: some chain's final stage is this node's stage 0, so the
	// node's per-window totals are that query's results.
	emits bool
}

type stageTmpl struct {
	prev       int // upstream stage, -1 for stage 0
	idx        int
	node       int
	ownerChain int
	plen       int
	mask       bool
}

type emitSlot struct {
	query int // query ID
	final int // index into groupTemplate.finals
}

// newGroupTemplate derives the template; reduce enables merges M1 and M2.
func newGroupTemplate(proto *engineProto, reduce bool) *groupTemplate {
	t := &groupTemplate{}
	for i, p := range proto.sharedPattern {
		t.nodes = append(t.nodes, nodeTmpl{pattern: p, target: proto.sharedTarget[i], headOnly: true})
	}
	type nodeKey struct {
		pattern string
		target  event.Type
	}
	// The class key equates (node identity, count projection, upstream
	// stage) — with the upstream itself a merged class, the complete set
	// of inputs a stage's value depends on.
	type classKey struct {
		node, prev int
		mask       bool
	}
	privNodes := make(map[nodeKey]int)
	classes := make(map[classKey]int)
	finalOf := make(map[int]int)
	for ci, cp := range proto.chains {
		views := make([]int, 0, len(cp.segs))
		prev := -1
		for i, seg := range cp.segs {
			node, mask := seg.sharedIdx, false
			if seg.sharedIdx >= 0 {
				eff := event.NoType
				if cp.q.Agg.Kind != query.CountStar && seg.pattern.Contains(query.Pattern{cp.q.Agg.Target}) {
					eff = cp.q.Agg.Target
				}
				mask = proto.sharedTarget[seg.sharedIdx] != eff
			} else {
				target := event.NoType
				if cp.q.Agg.Kind != query.CountStar {
					target = cp.q.Agg.Target
				}
				nk := nodeKey{seg.pattern.Key(), target}
				if existing, ok := privNodes[nk]; ok && reduce {
					node = existing // M1: identical private aggregator state
					t.mergedNodes++
				} else {
					node = len(t.nodes)
					privNodes[nk] = node
					t.nodes = append(t.nodes, nodeTmpl{pattern: seg.pattern, target: target, headOnly: true})
				}
			}
			ck := classKey{node, prev, mask}
			si, ok := classes[ck]
			if ok && reduce {
				t.mergedStages++ // M2: alias the equivalent stage
			} else {
				si = len(t.stages)
				classes[ck] = si
				t.stages = append(t.stages, stageTmpl{prev: prev, idx: i, node: node, ownerChain: ci, plen: seg.pattern.Length(), mask: mask})
				if i == 0 {
					t.nodes[node].headOnly = false
				}
			}
			views = append(views, si)
			prev = si
		}
		t.chains = append(t.chains, views)
		t.viewCount += len(views)
		if final := t.stages[prev]; final.idx == 0 {
			t.nodes[final.node].emits = true
		}
		fi, ok := finalOf[prev]
		if !ok {
			fi = len(t.finals)
			finalOf[prev] = fi
			t.finals = append(t.finals, prev)
		}
		t.emit = append(t.emit, emitSlot{query: cp.q.ID, final: fi})
	}
	slices.SortFunc(t.emit, func(a, b emitSlot) int { return cmp.Compare(a.query, b.query) })

	maxType := event.Type(0)
	for _, n := range t.nodes {
		for _, typ := range n.pattern {
			maxType = max(maxType, typ)
		}
	}
	t.byType = make([][]int, maxType+1)
	for ni, n := range t.nodes {
		for i, typ := range n.pattern {
			if !slices.Contains(n.pattern[:i], typ) {
				t.byType[typ] = append(t.byType[typ], ni)
				t.dispatchCount++
			}
		}
	}
	return t
}

// --- runtime (per-group) structures ---

type engineGroup struct {
	key    event.GroupKey
	nodes  []*aggNode   // all aggregators of the group, in template order
	chains [][]*stageRT // per chain, its stage views
	// stages lists every distinct stage runtime exactly once. Chains may
	// share stage objects (merged equivalent stages), so per-window
	// release and live-state accounting iterate this set, not the
	// chains' views.
	stages []*stageRT
	byType [][]*aggNode // instantiated groupTemplate.byType
	// listedHi is the largest window index whose close list holds this
	// group (-1 before the first). Completions and snapshot captures
	// reach a contiguous window range starting at the oldest open window,
	// so the group is on the list of every open window up to listedHi and
	// one bound suffices to list each window once.
	listedHi int64
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
	// emits is true when a single-segment chain ends on this node: its
	// window totals are then results, and a completion credited to a
	// window puts the group on that window's close list. Any other
	// node's totals reach a result only through a snapshot capture,
	// which lists the group itself.
	emits bool
	// startLive is per-START scratch: set by the OnStart fan-out when at
	// least one listener captured a snapshot referencing the record,
	// read immediately after by the RetainStart check. The engine is
	// single-threaded, so one slot suffices.
	startLive bool
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
	// eng is the owning engine (its [nextClose, maxWin] live range drives
	// the snapshot ring's lazy growth) and grp the owning group, which a
	// snapshot capture puts on the captured windows' close lists.
	eng  *Engine
	grp  *engineGroup
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

// buildGroup instantiates the group template for one key.
func (en *Engine) buildGroup(key event.GroupKey) *engineGroup {
	t := en.tmpl
	g := &engineGroup{key: key, listedHi: -1}
	reduce := !en.opts.DisableStateReduction
	g.nodes = make([]*aggNode, len(t.nodes))
	for i, nt := range t.nodes {
		g.nodes[i] = newAggNode(en, nt.pattern, nt.target, reduce)
		g.nodes[i].headOnly, g.nodes[i].emits = nt.headOnly, nt.emits
	}
	stages := make([]stageRT, len(t.stages))
	g.stages = make([]*stageRT, len(t.stages))
	for i, s := range t.stages {
		st := &stages[i]
		*st = stageRT{idx: s.idx, node: g.nodes[s.node], ownerChain: s.ownerChain, eng: en, grp: g, win: en.win, plen: s.plen, mask: s.mask}
		if s.idx >= 1 {
			st.prev = g.stages[s.prev]
			n := initialSnapRing(en.win)
			st.snapRing = make([][]snapEntry, n)
			st.snapMask = n - 1
		}
		st.node.listeners = append(st.node.listeners, st)
		g.stages[i] = st
	}
	views := make([]*stageRT, 0, t.viewCount)
	g.chains = make([][]*stageRT, len(t.chains))
	for ci, chain := range t.chains {
		from := len(views)
		for _, si := range chain {
			views = append(views, g.stages[si])
		}
		g.chains[ci] = views[from:len(views):len(views)]
	}
	dispatch := make([]*aggNode, 0, t.dispatchCount)
	g.byType = make([][]*aggNode, len(t.byType))
	for typ, nodes := range t.byType {
		from := len(dispatch)
		for _, ni := range nodes {
			dispatch = append(dispatch, g.nodes[ni])
		}
		g.byType[typ] = dispatch[from:len(dispatch):len(dispatch)]
	}
	en.mergedNodes += t.mergedNodes
	en.mergedStages += t.mergedStages
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
// range (see growRing). Appends are always preceded by ensureRing in
// onStart, hence windows beyond the old coverage hold no entries.
//
//sharon:hotpath
func (st *stageRT) ensureRing() {
	if span := st.eng.maxWin - st.eng.nextClose + 1; span > int64(len(st.snapRing)) {
		st.snapRing = growRing(st.snapRing, st.eng.nextClose, span)
		st.snapMask = int64(len(st.snapRing)) - 1
	}
}

// growRing returns a power-of-two window ring of at least span slots that
// holds what ring held for the windows it covered, [from, from+len(ring)-1]
// with from the oldest open window. Copying exactly that coverage is a
// bijection onto the old slots, so no two live windows can inherit the
// same recycled slice.
//
//sharon:hotpath
func growRing[T any](ring []T, from, span int64) []T {
	n := query.NextPow2(span)
	grown := make([]T, n) //sharon:allow hotpathalloc (geometric ring growth: O(log overlap) allocations, none at steady state)
	oldMask := int64(len(ring)) - 1
	for k := from; k < from+int64(len(ring)); k++ {
		grown[k&(n-1)] = ring[k&oldMask]
	}
	return grown
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
	hi := int64(-1) // largest window captured for
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
		st.eng.live++
		hi = k
	}
	if hi > st.grp.listedHi {
		st.eng.listGroup(st.grp, hi)
	}
	return hi >= 0
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
		st.eng.live -= int64(len(entries))
		clear(entries) // drop rec pointers for GC hygiene
		st.snapRing[slot] = entries[:0]
	}
}

// liveStates counts the aggregate states the group holds by walking them
// (see Engine.LiveStates). The engine counts incrementally; this walk
// prices a whole group when one is grafted in or removed.
func (g *engineGroup) liveStates() int64 {
	var n int64
	for _, node := range g.nodes {
		n += node.agg.LiveStates()
	}
	for _, st := range g.stages {
		for _, entries := range st.snapRing {
			n += int64(len(entries))
		}
	}
	return n
}

// listGroup puts g on the close list of every open window up to hi that
// does not hold it yet (see engineGroup.listedHi).
//
//sharon:hotpath
func (en *Engine) listGroup(g *engineGroup, hi int64) {
	en.ensureActive()
	for k := max(g.listedHi+1, en.nextClose); k <= hi; k++ {
		slot := k & en.activeMask
		en.active[slot] = append(en.active[slot], g) //sharon:allow hotpathalloc (amortized: a closed window's list is reset to length 0 keeping capacity, so the backing array is recycled)
	}
	g.listedHi = hi
}

// ensureActive grows the close-list ring to cover the live window range
// (see growRing); listGroup calls it before every append.
//
//sharon:hotpath
func (en *Engine) ensureActive() {
	if span := en.maxWin - en.nextClose + 1; span > int64(len(en.active)) {
		en.active = growRing(en.active, en.nextClose, span)
		en.activeMask = int64(len(en.active)) - 1
	}
}

// addGroup installs a freshly built (or restored) group.
func (en *Engine) addGroup(g *engineGroup) {
	en.groups[g.key] = g
	if en.opts.EmitEmpty {
		// Listed in every window through en.every; never on a per-window list.
		g.listedHi = math.MaxInt64
		en.every = append(en.every, g)
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
		en.addGroup(g)         //sharon:allow hotpathalloc (cold path: one map insert per new group key)
	}
	if int(e.Type) < len(g.byType) {
		for _, node := range g.byType[e.Type] {
			before := node.agg.LiveStates()
			if err := node.agg.Process(e); err != nil {
				return err
			}
			en.live += node.agg.LiveStates() - before
			if hi := node.agg.MaxCredited(); node.emits && hi > g.listedHi {
				en.listGroup(g, hi)
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

// emitWindow closes window win: it delivers the window's results in the
// canonical (query, window, group) order — identical across runs and to
// the parallel executor's merge order, so sinks (the server's push
// subscriptions, the harness) can rely on it without re-sorting — and
// releases the window's stage state. It visits the window's close list
// only: a group with neither a credited completion nor a snapshot entry
// in win has nothing to emit and nothing to release.
//
//sharon:hotpath
//sharon:deterministic
func (en *Engine) emitWindow(win int64) {
	slot := win & en.activeMask
	list := en.active[slot]
	if en.opts.EmitEmpty {
		list = en.every
	}
	slices.SortFunc(list, cmpGroupKey)
	if win > en.bound {
		// A bounded engine never emits past its bound; skip the
		// combination reads but still release ring state so slots recycle.
		for _, g := range list {
			g.release(win)
		}
	} else {
		en.emitGroups(win, list)
	}
	clear(en.active[slot])
	en.active[slot] = en.active[slot][:0]
}

// emitGroups evaluates, emits and releases window win for the groups of
// its close list, given in key order. Each group evaluates its distinct
// final stages once and stages its non-empty results in query-ID order;
// a counting pass over the query ranks then places the staged (group,
// query)-ordered results in (query, group) order, in O(results + queries)
// without comparing results.
//
//sharon:hotpath
//sharon:deterministic
func (en *Engine) emitGroups(win int64, list []*engineGroup) {
	t := en.tmpl
	en.stageBuf, en.stageRank = en.stageBuf[:0], en.stageRank[:0]
	off := en.rankOff // off[r+1] counts rank r, then off[r] is where rank r starts
	clear(off)
	for _, g := range list {
		// Read every final stage before releasing any stage: a released
		// ring slot may belong to a merged stage a later read still needs.
		for fi, si := range t.finals {
			en.finalVals[fi] = g.stages[si].currentValue(win)
		}
		for rank, sl := range t.emit {
			state := en.finalVals[sl.final]
			if state.Count > 0 || en.opts.EmitEmpty {
				en.stageBuf = append(en.stageBuf, Result{Query: sl.query, Win: win, Group: g.key, State: state}) //sharon:allow hotpathalloc (amortized: stageBuf is reset to length 0 and reused every window)
				en.stageRank = append(en.stageRank, rank)                                                        //sharon:allow hotpathalloc (amortized: grows in step with stageBuf)
				off[rank+1]++
			}
		}
		g.release(win)
	}
	for r := 1; r < len(off); r++ {
		off[r] += off[r-1]
	}
	en.emitBuf = slices.Grow(en.emitBuf[:0], len(en.stageBuf))[:len(en.stageBuf)]
	for i, rank := range en.stageRank {
		en.emitBuf[off[rank]] = en.stageBuf[i]
		off[rank]++
	}
	for i := range en.emitBuf {
		en.emit(en.emitBuf[i])
	}
}

// cmpGroupKey orders groups by key.
//
//sharon:hotpath
//sharon:deterministic
func cmpGroupKey(a, b *engineGroup) int { return cmp.Compare(a.key, b.key) }

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
	if en.live > en.peakLive {
		en.peakLive = en.live
	}
}

// LiveStates reports all aggregate states currently held: aggregator
// prefix/total states plus the chains' snapshot entries. The count is
// kept where states are created and dropped (the aggregators' own
// counters as they process, snapshot captures and releases, groups
// grafted in or removed), not recounted.
//
//sharon:hotpath
func (en *Engine) LiveStates() int64 { return en.live }

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
