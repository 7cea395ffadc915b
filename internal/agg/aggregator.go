package agg

import (
	"fmt"

	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

// StartRec is the per-START-event state of the non-shared method (paper
// §3.2, Fig. 6): one aggregate per pattern prefix, all anchored at a single
// matched START event. START events expire before any other event of their
// sequences, so dropping whole records implements window expiration.
//
// Lifecycle: records are pooled. A *StartRec passed to OnStart/OnComplete
// stays valid — identity and contents — exactly as long as the record is
// live, i.e. while at least one open window contains its START event. When
// Advance expires it, the record returns to the aggregator's freelist and
// may be reissued (with a new ID) for a later START event. Subscribers must
// therefore drop their references no later than the close of the last
// window containing the record's Time; the shared executor does (its
// per-window snapshots are released when the window closes, which the
// lockstep watermark orders before the record's expiration).
type StartRec struct {
	// Time is the START event's timestamp.
	Time int64
	// ID is a per-aggregator sequence number; side tables in the shared
	// executor key their snapshots by it. Reissued records get fresh IDs.
	ID int64
	// prefix[j-1] aggregates all matched prefixes of length j that start
	// at this event and whose last event has already arrived.
	prefix []State
}

// Prefix returns the aggregate of matched prefixes of length j (1-based).
//
//sharon:hotpath
//sharon:deterministic
func (s *StartRec) Prefix(j int) State { return s.prefix[j-1] }

// Config configures an Aggregator.
type Config struct {
	// Pattern is the (sub-)pattern this aggregator matches online.
	Pattern query.Pattern
	// Window is the sliding window; all aggregators of a workload share it
	// under the paper's core assumptions (§2.1).
	Window query.Window
	// Target is the aggregation target type (event.NoType for COUNT(*)).
	Target event.Type

	// OnStart, if set, fires when a new START record is created, before
	// any completion caused by the same event (only possible for
	// single-type patterns). The shared executor snapshots upstream
	// per-window aggregates here (paper §3.3 step 2).
	OnStart func(rec *StartRec, e event.Event)
	// OnComplete, if set, fires when the pattern completes: delta is the
	// aggregate of the sequences completed by this event from START
	// record rec, and [firstWin, lastWin] are the windows fully
	// containing them.
	OnComplete func(rec *StartRec, e event.Event, delta State, firstWin, lastWin int64)
	// OnClose, if set, fires when a window's interval has fully passed
	// the watermark, with the aggregate of all matches inside it.
	OnClose func(win int64, total State)
	// EmitEmpty makes OnClose fire for windows with no matches too.
	EmitEmpty bool

	// RetainStart, if set, decides right after OnStart (and after the
	// immediate completion of single-type patterns) whether the new
	// record is worth keeping. Returning false recycles the record to
	// the freelist immediately — it is never extended, never expires,
	// and its identity may be reissued by the very next START — so the
	// subscriber must only decline records it holds no reference to and
	// whose future contributions it can prove unobservable (the shared
	// executor's SHARP-style dead-suffix check: no listener snapshotted
	// the record and nobody reads this aggregator's window totals).
	RetainStart func(rec *StartRec, e event.Event) bool
}

// Slab chunk sizing: START records (and their prefix blocks) are carved
// from backing allocations that start small — a low-rate aggregator in a
// many-group workload must not pre-pay for records it never creates — and
// double per chunk up to the cap, so a high-rate aggregator's warm-up ramp
// still costs O(log n) allocations. Steady-state processing is served from
// the freelist and allocates nothing.
const (
	minRecSlab = 8
	maxRecSlab = 1024
)

// Aggregator computes the aggregate of all matches of one pattern online,
// without constructing sequences (A-Seq / paper §3.2). It must see events
// in strictly increasing time order.
//
// Invariant: every retained START record lies in at least one open window,
// so any event extending it is within Window.Length of the START; the
// per-window totals therefore only ever count sequences fully inside their
// window (completions are credited to exactly the windows containing both
// endpoints, and intermediate events necessarily lie between them).
//
// Hot-path data layout: the open windows are always the contiguous index
// range [nextClose, maxWin], whose width is bounded by the window overlap
// Length/Slide. Per-window totals therefore live in a power-of-two ring
// buffer indexed by window index (winRing), not a map; START records and
// their prefix arrays come from slab allocations recycled through a
// freelist fed by window expiration. Steady-state processing allocates
// nothing.
type Aggregator struct {
	cfg Config
	// positions[t] lists the 1-based pattern positions of type t in
	// descending order, so one event never extends its own contribution
	// (multi-occurrence extension, paper §7.3). It is a dense table
	// indexed by the interned event.Type; types beyond the pattern's
	// maximum are absent by bounds check.
	positions [][]int
	plen      int

	starts []*StartRec // time-ordered live START records
	head   int         // index of first live record in starts

	// free holds expired records for reuse; recSlab/prefixSlab serve
	// first-time allocations in geometrically growing chunks (they are
	// allocated and consumed in lockstep: one record = plen states).
	free       []*StartRec
	recSlab    []StartRec
	prefixSlab []State
	nextSlab   int

	// winRing[k&winMask] is the aggregate of complete matches fully
	// inside open window k. Zero-slot semantics are explicit: a slot
	// whose Count is zero means "no matches in this window" — identical
	// to the window never having been touched. Slots outside the live
	// range [nextClose, maxWin] are always Zero (restored as each window
	// closes), so slot reuse across ring wraparound is sound.
	winRing   []State
	winMask   int64
	nextClose int64 // smallest window index not yet closed
	maxWin    int64 // largest window index containing any event seen
	started   bool  // true once the first event arrived
	lastTime  int64 // time of the last processed event
	nextID    int64

	// liveStates tracks the number of State values held (for the peak
	// memory metric, paper §8.1): prefix states of live START records
	// plus non-zero window slots.
	liveStates int64
	// maxCredited is the largest window index a completion was ever
	// credited to (-1 before the first). Each completion credits a
	// contiguous range that begins at the oldest open window, so the
	// executor reads it after Process to learn which open windows this
	// aggregator can contribute a result to.
	maxCredited int64
	// pruned counts records RetainStart declined (recycled at birth).
	pruned int64
}

// NewAggregator builds an aggregator for cfg. It panics if the pattern is
// empty or the window invalid — configuration errors, not runtime ones.
func NewAggregator(cfg Config) *Aggregator {
	if len(cfg.Pattern) == 0 {
		panic("agg: empty pattern")
	}
	if err := cfg.Window.Validate(); err != nil {
		panic("agg: " + err.Error())
	}
	maxType := event.Type(0)
	for _, t := range cfg.Pattern {
		if t > maxType {
			maxType = t
		}
	}
	pos := make([][]int, maxType+1)
	for i := len(cfg.Pattern) - 1; i >= 0; i-- {
		t := cfg.Pattern[i]
		pos[t] = append(pos[t], i+1)
	}
	// The ring starts small and grows geometrically with the observed
	// live span, up to NextPow2(MaxConcurrent+2): a high-overlap window
	// (large Length/Slide) does not pre-pay its worst case at
	// construction, which matters when an engine builds one aggregator
	// per (group, node).
	ringLen := query.NextPow2(cfg.Window.MaxConcurrent() + 2)
	if ringLen > initialRingLen {
		ringLen = initialRingLen
	}
	ring := make([]State, ringLen)
	for i := range ring {
		ring[i] = Zero()
	}
	return &Aggregator{
		cfg:         cfg,
		positions:   pos,
		plen:        len(cfg.Pattern),
		winRing:     ring,
		winMask:     ringLen - 1,
		nextClose:   -1,
		maxCredited: -1,
	}
}

// initialRingLen is the window ring's starting capacity (power of two);
// rings whose MaxConcurrent bound is smaller start at that bound instead.
const initialRingLen = 16

// ensureRing grows the window ring to cover the live span [nextClose,
// maxWin]. All non-zero slots correspond to windows within the ring's old
// coverage [nextClose, nextClose+len-1] (writes are preceded by ensureRing
// in Process), so copying exactly that range is a bijection — no two live
// windows can alias one old slot.
//
//sharon:hotpath
func (a *Aggregator) ensureRing() {
	span := a.maxWin - a.nextClose + 1
	oldLen := int64(len(a.winRing))
	if span <= oldLen {
		return
	}
	n := query.NextPow2(span)
	ring := make([]State, n) //sharon:allow hotpathalloc (geometric ring growth: O(log overlap) allocations over the aggregator lifetime, none at steady state)
	for i := range ring {
		ring[i] = Zero()
	}
	for k := a.nextClose; k < a.nextClose+oldLen; k++ {
		ring[k&(n-1)] = a.winRing[k&a.winMask]
	}
	a.winRing, a.winMask = ring, n-1
}

// Pattern returns the pattern being aggregated.
func (a *Aggregator) Pattern() query.Pattern { return a.cfg.Pattern }

// Matches reports whether t occurs in the pattern.
//
//sharon:hotpath
func (a *Aggregator) Matches(t event.Type) bool {
	return int(t) < len(a.positions) && len(a.positions[t]) > 0
}

// MinOpenWindow returns the smallest window index that is still open, or
// -1 before the first event.
func (a *Aggregator) MinOpenWindow() int64 { return a.nextClose }

// CurrentTotal returns the aggregate of complete matches observed so far
// that lie entirely inside window win. It is the snapshot source for the
// shared method's combination step. Windows outside the live range have
// the Zero aggregate by definition.
//
//sharon:hotpath
//sharon:deterministic
func (a *Aggregator) CurrentTotal(win int64) State {
	if !a.started || win < a.nextClose || win > a.maxWin {
		return Zero()
	}
	return a.winRing[win&a.winMask]
}

// Advance moves the watermark to t, closing every window whose interval
// ends at or before t and expiring START records no open window contains.
// Expired records are recycled through the freelist (see StartRec).
//
//sharon:hotpath
func (a *Aggregator) Advance(t int64) {
	if !a.started {
		return
	}
	w := a.cfg.Window
	for a.cfg.Window.End(a.nextClose) <= t {
		win := a.nextClose
		slot := &a.winRing[win&a.winMask]
		total := *slot
		matched := total.Count != 0
		if matched {
			*slot = Zero()
			a.liveStates--
		}
		// Every window closed here overlaps the stream span: nextClose
		// starts at the first event's first window.
		if a.cfg.OnClose != nil && (matched || a.cfg.EmitEmpty) {
			a.cfg.OnClose(win, total) //sharon:allow hotpathalloc (subscriber callback; the executors install closed-over emit hooks that are themselves analyzed)
		}
		a.nextClose++
	}
	// Expire START records older than the oldest open window's start.
	minStart := w.Start(a.nextClose)
	for a.head < len(a.starts) && a.starts[a.head].Time < minStart {
		a.liveStates -= int64(a.plen)
		//sharon:allow slablifecycle (the free list IS the recycle point: expired records return here for getRec to reissue)
		a.free = append(a.free, a.starts[a.head]) //sharon:allow hotpathalloc (amortized: freelist capacity plateaus at the live-record high-water mark)
		a.starts[a.head] = nil
		a.head++
	}
	if a.head > 64 && a.head*2 >= len(a.starts) {
		n := copy(a.starts, a.starts[a.head:])
		for i := n; i < len(a.starts); i++ {
			a.starts[i] = nil
		}
		//sharon:allow slablifecycle (compaction of the owning live-starts deque, not a new retention)
		a.starts = a.starts[:n]
		a.head = 0
	}
}

// Process feeds the next event. Events must arrive in strictly increasing
// time order; violations return an error and leave state unchanged.
//
//sharon:hotpath
func (a *Aggregator) Process(e event.Event) error {
	if a.started && e.Time <= a.lastTime {
		return fmt.Errorf("agg: out-of-order event at t=%d (last t=%d)", e.Time, a.lastTime) //sharon:allow hotpathalloc (cold error path: the caller stops the stream on the first out-of-order event)
	}
	if !a.started {
		a.started = true
		a.nextClose = a.cfg.Window.FirstContaining(e.Time)
	}
	a.lastTime = e.Time
	a.Advance(e.Time)
	if last := a.cfg.Window.LastContaining(e.Time); last > a.maxWin {
		a.maxWin = last
		a.ensureRing()
	}

	if int(e.Type) >= len(a.positions) {
		return nil
	}
	positions := a.positions[e.Type]
	if len(positions) == 0 {
		return nil
	}
	isTarget := e.Type == a.cfg.Target
	for _, j := range positions { // descending
		if j == 1 {
			a.newStart(e, isTarget)
			continue
		}
		a.extend(e, j, isTarget)
	}
	return nil
}

// getRec returns a START record with a zeroed prefix array of length plen:
// from the freelist when expiration has fed it, from the slabs otherwise.
//
//sharon:hotpath
func (a *Aggregator) getRec() *StartRec {
	var rec *StartRec
	if n := len(a.free); n > 0 {
		rec = a.free[n-1]
		a.free[n-1] = nil
		//sharon:allow slablifecycle (popping the free list hands the record back out; the pool shrink is not a retention)
		a.free = a.free[:n-1]
	} else {
		if len(a.recSlab) == 0 {
			n := a.nextSlab
			if n < minRecSlab {
				n = minRecSlab
			}
			a.recSlab = make([]StartRec, n)        //sharon:allow hotpathalloc (slab refill: geometric chunks, O(log n) allocations during warm-up, none at steady state)
			a.prefixSlab = make([]State, n*a.plen) //sharon:allow hotpathalloc (slab refill: allocated in lockstep with recSlab, same amortization)
			if n < maxRecSlab {
				a.nextSlab = n * 2
			}
		}
		rec = &a.recSlab[0]
		a.recSlab = a.recSlab[1:]
		rec.prefix = a.prefixSlab[:a.plen:a.plen]
		a.prefixSlab = a.prefixSlab[a.plen:]
	}
	for i := range rec.prefix {
		rec.prefix[i] = Zero()
	}
	return rec
}

// newStart creates a START record for e and, for single-type patterns,
// immediately records the completion. If the subscriber's RetainStart
// check declines the record (dead-suffix prune: it can no longer
// contribute to any observable result), the record is recycled on the
// spot instead of joining the live deque — it then costs nothing in the
// extend loop and nothing in live state.
//
//sharon:hotpath
func (a *Aggregator) newStart(e event.Event, isTarget bool) {
	rec := a.getRec()
	rec.Time, rec.ID = e.Time, a.nextID
	a.nextID++
	rec.prefix[0] = UnitEvent(e, isTarget)
	if a.cfg.OnStart != nil {
		a.cfg.OnStart(rec, e) //sharon:allow hotpathalloc (subscriber callback; the executors install closed-over snapshot hooks that are themselves analyzed)
	}
	if a.plen == 1 {
		a.complete(rec, e, rec.prefix[0])
	}
	if a.cfg.RetainStart != nil && !a.cfg.RetainStart(rec, e) { //sharon:allow hotpathalloc (subscriber callback; the executors install closed-over retain checks that are themselves analyzed)
		a.pruned++
		//sharon:allow slablifecycle (dead-suffix prune: the declined record returns straight to the freelist; the subscriber holds no reference per the RetainStart contract)
		a.free = append(a.free, rec) //sharon:allow hotpathalloc (amortized: freelist capacity plateaus at the live-record high-water mark)
		return
	}
	//sharon:allow slablifecycle (the live-starts deque is the record's owner for its window lifetime; expiry recycles it above)
	a.starts = append(a.starts, rec) //sharon:allow hotpathalloc (amortized: deque growth is geometric and compaction reuses the backing array)
	a.liveStates += int64(a.plen)
}

// extend folds e into prefix position j (2-based and up) of every live
// START record, completing matches when j is the pattern length.
//
//sharon:hotpath
func (a *Aggregator) extend(e event.Event, j int, isTarget bool) {
	last := j == a.plen
	for i := a.head; i < len(a.starts); i++ {
		rec := a.starts[i]
		prev := rec.prefix[j-2]
		if prev.Count == 0 {
			continue
		}
		delta := Extend(prev, e, isTarget)
		rec.prefix[j-1].AddInPlace(delta)
		if last {
			a.complete(rec, e, delta)
		}
	}
}

// complete credits delta (sequences from rec completed by e) to every
// window containing both endpoints, and notifies subscribers.
//
//sharon:hotpath
func (a *Aggregator) complete(rec *StartRec, e event.Event, delta State) {
	first, lastWin, ok := a.cfg.Window.PairIndices(rec.Time, e.Time)
	if !ok {
		return
	}
	if first < a.nextClose {
		first = a.nextClose // closed windows cannot receive results
	}
	for k := first; k <= lastWin; k++ {
		slot := &a.winRing[k&a.winMask]
		if slot.Count == 0 {
			a.liveStates++
			if k > a.maxCredited {
				a.maxCredited = k
			}
		}
		slot.AddInPlace(delta)
	}
	if a.cfg.OnComplete != nil {
		a.cfg.OnComplete(rec, e, delta, first, lastWin) //sharon:allow hotpathalloc (subscriber callback; the executors install closed-over emit hooks that are themselves analyzed)
	}
}

// Flush closes every window containing events seen so far. Call once at
// end of stream.
//
//sharon:hotpath
func (a *Aggregator) Flush() {
	if !a.started {
		return
	}
	a.Advance(a.cfg.Window.End(a.maxWin))
}

// LiveStates reports the number of aggregate State values currently held:
// the paper's peak-memory unit for online approaches.
//
//sharon:hotpath
func (a *Aggregator) LiveStates() int64 { return a.liveStates }

// MaxCredited reports the largest window index any completion has been
// credited to, or -1 if none has.
//
//sharon:hotpath
func (a *Aggregator) MaxCredited() int64 { return a.maxCredited }

// LiveStarts reports the number of live START records.
func (a *Aggregator) LiveStarts() int { return len(a.starts) - a.head }

// PrunedStarts reports how many START records the RetainStart check
// declined (recycled at birth, SHARP-style state reduction).
func (a *Aggregator) PrunedStarts() int64 { return a.pruned }
