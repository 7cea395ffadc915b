package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

// The engine closes a window by walking that window's close list and
// reads its live-state count from a counter. The two functions below are
// the close path those replaced, kept as the oracle: every group and every
// chain evaluated on every close, results comparison-sorted, live states
// recounted slot by slot.

// scanLiveStates recounts every aggregate state the engine holds.
func scanLiveStates(en *Engine) int64 {
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

// refCloseUpTo closes every window ending at or before t the all-groups
// way, so that the Process, AdvanceWatermark or Flush call that follows
// finds nothing left to close.
func refCloseUpTo(en *Engine, t int64) {
	for en.started && en.win.End(en.nextClose) <= t {
		if n := scanLiveStates(en); n > en.peakLive {
			en.peakLive = n
		}
		win := en.nextClose
		var buf []Result
		for _, g := range en.groups {
			if win <= en.bound {
				for ci, stages := range g.chains {
					state := stages[len(stages)-1].currentValue(win)
					if state.Count > 0 || en.opts.EmitEmpty {
						buf = append(buf, Result{Query: en.proto.chains[ci].q.ID, Win: win, Group: g.key, State: state})
					}
				}
			}
			g.release(win)
		}
		slices.SortFunc(buf, cmpResult)
		for _, r := range buf {
			en.emit(r)
		}
		// The oracle never reads the close lists; empty the slot as a
		// close would so the ring stays consistent.
		slot := win & en.activeMask
		clear(en.active[slot])
		en.active[slot] = en.active[slot][:0]
		en.nextClose++
	}
}

// closeRig drives the engine under test through its public methods and a
// reference engine through refCloseUpTo, and compares them after every
// step: the emitted results in order (each close emits one window, so
// equal sequences are equal closes), the live-state counter against a
// recount of both engines, and the peak sampled at every close.
type closeRig struct {
	t        *testing.T
	w        query.Workload
	plan     core.Plan
	opts     Options
	en, ref  *Engine
	got      emissionLog
	want     emissionLog
	compared int
}

func newCloseRig(t *testing.T, w query.Workload, plan core.Plan, opts Options) *closeRig {
	r := &closeRig{t: t, w: w, plan: plan, opts: opts}
	r.en = r.newEngine(&r.got)
	r.ref = r.newEngine(&r.want)
	return r
}

func (r *closeRig) newEngine(log *emissionLog) *Engine {
	opts := r.opts
	opts.OnResult = log.sink
	en, err := NewEngine(r.w, r.plan, opts)
	must(r.t, err)
	return en
}

func (r *closeRig) check(at string) {
	r.t.Helper()
	got, want := r.got.out, r.want.out // the engines are sequential: no merge goroutine to lock out
	if len(got) != len(want) {
		r.t.Fatalf("%s: %d results emitted, reference %d", at, len(got), len(want))
	}
	for i := r.compared; i < len(got); i++ {
		if got[i] != want[i] {
			r.t.Fatalf("%s: result %d = %+v, reference %+v", at, i, got[i], want[i])
		}
	}
	r.compared = len(got)
	if live, scan, ref := r.en.LiveStates(), scanLiveStates(r.en), scanLiveStates(r.ref); live != scan || live != ref {
		r.t.Fatalf("%s: live-state counter %d, recount %d, reference %d", at, live, scan, ref)
	}
	if r.en.peakLive != r.ref.peakLive {
		r.t.Fatalf("%s: peak %d, reference %d", at, r.en.peakLive, r.ref.peakLive)
	}
}

func (r *closeRig) process(e event.Event) {
	r.t.Helper()
	refCloseUpTo(r.ref, e.Time)
	must(r.t, r.ref.Process(e))
	must(r.t, r.en.Process(e))
	r.check(fmt.Sprintf("t=%d", e.Time))
}

func (r *closeRig) advance(t int64) {
	r.t.Helper()
	refCloseUpTo(r.ref, t)
	r.ref.AdvanceWatermark(t)
	r.en.AdvanceWatermark(t)
	r.check(fmt.Sprintf("watermark %d", t))
}

func (r *closeRig) flush() {
	r.t.Helper()
	refCloseUpTo(r.ref, r.ref.win.End(r.ref.maxWin))
	must(r.t, r.ref.Flush())
	must(r.t, r.en.Flush())
	r.check("flush")
	if len(r.got.out) == 0 {
		r.t.Fatal("no results emitted")
	}
}

// both applies op to the engine under test and to the reference.
func (r *closeRig) both(op func(en *Engine)) {
	op(r.en)
	op(r.ref)
}

// closeScenario acts on the rig once i of n events have been processed.
type closeScenario struct {
	name string
	opts Options
	at   func(r *closeRig, i, n int)
}

var closeScenarios = []closeScenario{
	{name: "default"},
	{name: "emit-empty", opts: Options{EmitEmpty: true}},
	{name: "bounded-drain", at: func(r *closeRig, i, n int) {
		if i == n/2 {
			// Mid-range, so open windows on both sides of the bound hold
			// state: those at or below it emit, those past it only release.
			r.both(func(en *Engine) { en.BoundEmitWindows((en.nextClose + en.maxWin) / 2) })
		}
	}},
	{name: "remove-absorb", at: func(r *closeRig, i, n int) {
		switch i {
		case n / 3:
			// Later events rebuild the removed keys from scratch; what
			// they had credited to the open windows must be gone.
			r.both(func(en *Engine) {
				_, err := en.RemoveGroups(func(k event.GroupKey) bool { return k%3 == 0 })
				must(r.t, err)
			})
			r.check("remove")
		case 2 * n / 3:
			even := func(k event.GroupKey) bool { return k%2 == 0 }
			snap, refSnap := mustSnap(r.t, r.en), mustSnap(r.t, r.ref)
			assertEqualSnapshots(r.t, snap, refSnap)
			r.both(func(en *Engine) {
				sl, err := SliceGroups(snap, even)
				must(r.t, err)
				_, err = en.RemoveGroups(even)
				must(r.t, err)
				if en.LiveStates() != scanLiveStates(en) {
					r.t.Fatalf("after remove: counter %d, recount %d", en.LiveStates(), scanLiveStates(en))
				}
				must(r.t, en.AbsorbSlice(sl))
			})
			r.check("absorb")
		}
	}},
	{name: "snapshot-restore", at: func(r *closeRig, i, n int) {
		if i == n/2 {
			snap := mustSnap(r.t, r.en)
			r.en = r.newEngine(&r.got)
			must(r.t, r.en.Restore(snap))
			r.check("restore")
		}
	}},
}

// closeStream draws n events over the fixture's six types with 1-3 tick
// gaps, a long idle gap now and then (every group goes quiet and all
// state expires), and keys either from three values (every group active
// in every window) or Zipf-distributed over 200 (most groups idle in any
// one window).
func closeStream(f *fixture, rng *rand.Rand, n int, sparse bool) event.Stream {
	alphabet := []byte("ABCDEF")
	zipf := rand.NewZipf(rng, 1.3, 1, 199)
	out := make(event.Stream, n)
	t := int64(rng.Intn(5))
	for i := range out {
		t += 1 + int64(rng.Intn(3))
		if rng.Intn(400) == 0 {
			t += 100
		}
		key := event.GroupKey(rng.Intn(3))
		if sparse {
			key = event.GroupKey(zipf.Uint64())
		}
		out[i] = event.Event{Time: t, Type: f.ids[alphabet[rng.Intn(len(alphabet))]], Key: key, Val: float64(rng.Intn(20))}
	}
	return out
}

// TestWindowCloseMatchesAllGroupsScan is the close path's property test:
// on random grouped workloads (with duplicated queries, so chains alias
// merged final stages, and in reverse ID order, so chain order is not
// emission order) over sparse and dense streams, with and without a
// sharing plan, the close-list engine emits exactly what the all-groups
// scan emits at every close and counts exactly the live states a recount
// finds, across every operation that has to rebuild or maintain the lists
// and the counter.
func TestWindowCloseMatchesAllGroupsScan(t *testing.T) {
	f := newFixture()
	const events = 1500
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		w := randomWorkload(f, rng)
		dup := *w[0]
		dup.ID = len(w)
		w = append(w, &dup)
		// Windows long enough for a sparse key to complete a pattern in one.
		win := query.Window{Length: int64(24 + rng.Intn(40))}
		win.Slide = win.Length/8 + int64(rng.Intn(int(win.Length)/2))
		for _, q := range w {
			q.GroupBy, q.Window = true, win
		}
		shared := sharablePlan(w)
		slices.Reverse(w)
		sparse := seed%2 == 0
		stream := closeStream(f, rng, events, sparse)
		for _, plan := range []core.Plan{shared, nil} {
			for _, sc := range closeScenarios {
				name := fmt.Sprintf("seed%d/sparse=%t/plan%d/%s", seed, sparse, len(plan), sc.name)
				t.Run(name, func(t *testing.T) {
					r := newCloseRig(t, w, plan, sc.opts)
					for i, e := range stream {
						if sc.at != nil {
							sc.at(r, i, len(stream))
						}
						if i%97 == 96 && e.Time-stream[i-1].Time > 1 {
							r.advance(e.Time - 1)
						}
						r.process(e)
					}
					r.flush()
				})
			}
		}
	}
}
