package exec

import (
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

// hotPathRig is a steady-state engine feed: one engine built up front, a
// deterministic cyclic stream, and a monotone clock, so measurements see
// only the per-event processing path (no construction, no group warm-up).
type hotPathRig struct {
	en    *Engine
	types [4]event.Type
	clock int64
	i     int64
}

// newHotPathRig builds a three-query workload (one shared segment, one
// fully private query) over a 13-group stream. The group count is coprime
// to the 4-type cycle so every group sees every type: each event extends
// live START records, every fourth event per group starts new records,
// and windows accumulate completions — the full per-event path.
func newHotPathRig(tb testing.TB) *hotPathRig {
	tb.Helper()
	f := newFixture()
	const winLen, slide = 1024, 256
	w := query.Workload{
		f.query(0, "ABCD", winLen, slide),
		f.query(1, "CD", winLen, slide),
		f.query(2, "AB", winLen, slide),
	}
	for _, q := range w {
		q.GroupBy = true
	}
	plan := core.Plan{core.NewCandidate(f.pat("CD"), []int{0, 1})}
	en, err := NewEngine(w, plan, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	r := &hotPathRig{en: en, clock: 1}
	for i, c := range []byte("ABCD") {
		r.types[i] = f.ids[c]
	}
	return r
}

// feed pushes n further events through the engine.
func (r *hotPathRig) feed(tb testing.TB, n int) {
	tb.Helper()
	for k := 0; k < n; k++ {
		e := event.Event{
			Time: r.clock,
			Type: r.types[r.i%4],
			Key:  event.GroupKey(r.i % 13),
			Val:  float64(r.i%7) + 1,
		}
		r.clock++
		r.i++
		if err := r.en.Process(e); err != nil {
			tb.Fatal(err)
		}
	}
}

// hotPathWarmup is enough events for every group's aggregators, rings,
// and pools to reach steady state (several full windows per group).
const hotPathWarmup = 40000

// BenchmarkHotPathProcess measures the per-event cost of the shared online
// engine in steady state: ns/event and allocs/event with construction and
// warm-up excluded. This is the number the window-ring + pooling design is
// accountable to (see README "Performance" and BENCH_hotpath.json).
func BenchmarkHotPathProcess(b *testing.B) {
	r := newHotPathRig(b)
	r.feed(b, hotPathWarmup)
	b.ReportAllocs()
	b.ResetTimer()
	r.feed(b, b.N)
}

// hotPathAllocsPerEvent measures steady-state allocations per event via
// testing.AllocsPerRun over chunks of 2000 events.
func hotPathAllocsPerEvent(tb testing.TB) float64 {
	r := newHotPathRig(tb)
	r.feed(tb, hotPathWarmup)
	const chunk = 2000
	return testing.AllocsPerRun(10, func() { r.feed(tb, chunk) }) / chunk
}

// maxHotPathAllocsPerEvent is the regression budget for the zero-allocation
// hot path: the window-ring + pooled engine sustains ~0 allocs/event in
// steady state (slice-growth amortization and map resizes round to well
// under 0.01/event); the pre-ring engine sat at 1.80 allocs/event on this
// rig, so any reintroduced per-event allocation trips this immediately.
const maxHotPathAllocsPerEvent = 0.05

// TestHotPathAllocs makes per-event allocation regressions fail `go test`,
// not just benchmarks.
func TestHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs the full warm-up")
	}
	got := hotPathAllocsPerEvent(t)
	t.Logf("steady-state allocs/event = %.4f", got)
	if got > maxHotPathAllocsPerEvent {
		t.Fatalf("steady-state allocs/event = %.4f, budget %.2f", got, maxHotPathAllocsPerEvent)
	}
}

// BenchmarkHotPathAllocs is the same assertion in benchmark form so
// `-bench=HotPath` smoke runs (CI) check it too, and reports the measured
// value as a benchmark metric.
func BenchmarkHotPathAllocs(b *testing.B) {
	got := hotPathAllocsPerEvent(b)
	b.ReportMetric(got, "allocs/event")
	b.ReportMetric(0, "ns/op")
	if got > maxHotPathAllocsPerEvent {
		b.Fatalf("steady-state allocs/event = %.4f, budget %.2f", got, maxHotPathAllocsPerEvent)
	}
}

// windowCloseRig isolates the close path: it feeds one slide of events,
// then closes the window that slide completes with AdvanceWatermark, so
// the close can be timed (and its allocations counted) apart from the
// per-event work. The workload is newHotPathRig's; the stream hands each
// run of four events (one A, B, C, D) to the group key picks for it, on a
// fixed cycle, so the engine reaches a true steady state.
type windowCloseRig struct {
	*hotPathRig
	key     func(run int64) event.GroupKey
	closeNs time.Duration
}

// windowCloseRigs are the two ends of activity density: 50 groups that
// all emit in every window, and 2000 groups of which a closing window
// holds results from the 20 hot ones (four runs in five) and from the
// ~50 cold ones whose turn fell inside it.
var windowCloseRigs = []struct {
	name   string
	warmup int // windows until every group's pools and rings are warm
	key    func(run int64) event.GroupKey
}{
	{"dense-50-groups", 100, func(run int64) event.GroupKey { return event.GroupKey(run % 50) }},
	{"sparse-2000-groups", 4000, func(run int64) event.GroupKey {
		if run%5 < 4 {
			return event.GroupKey(run % 20)
		}
		return event.GroupKey(20 + run/5%1980)
	}},
}

func newWindowCloseRig(tb testing.TB, key func(int64) event.GroupKey, warmup int) *windowCloseRig {
	r := &windowCloseRig{hotPathRig: newHotPathRig(tb), key: key}
	r.windows(tb, warmup)
	r.closeNs = 0
	return r
}

// windows feeds and closes n further windows.
func (r *windowCloseRig) windows(tb testing.TB, n int) {
	for ; n > 0; n-- {
		// The slide's events stop one tick short of the window end, which
		// the watermark then takes.
		for k := int64(1); k < r.en.win.Slide; k++ {
			e := event.Event{Time: r.clock, Type: r.types[r.i%4], Key: r.key(r.i / 4), Val: float64(r.i%7) + 1}
			r.clock++
			r.i++
			if err := r.en.Process(e); err != nil {
				tb.Fatal(err)
			}
		}
		t0 := time.Now()
		r.en.AdvanceWatermark(r.clock)
		r.closeNs += time.Since(t0)
		r.clock++
	}
}

// BenchmarkWindowClose measures what closing one window costs, in the
// ns/window metric (ns/op also includes feeding the window's slide of
// events). Steady state allocates nothing; TestWindowCloseAllocs gates it.
func BenchmarkWindowClose(b *testing.B) {
	for _, rig := range windowCloseRigs {
		b.Run(rig.name, func(b *testing.B) {
			r := newWindowCloseRig(b, rig.key, rig.warmup)
			b.ReportAllocs()
			b.ResetTimer()
			r.windows(b, b.N)
			b.ReportMetric(float64(r.closeNs.Nanoseconds())/float64(b.N), "ns/window")
		})
	}
}

// TestWindowCloseAllocs fails `go test` when feeding and closing windows
// allocates at steady state, whatever share of the groups is active.
func TestWindowCloseAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs the full warm-up")
	}
	for _, rig := range windowCloseRigs {
		r := newWindowCloseRig(t, rig.key, rig.warmup)
		const chunk = 50
		if got := testing.AllocsPerRun(10, func() { r.windows(t, chunk) }); got > 0 {
			t.Errorf("%s: %.0f allocations per %d windows at steady state, want 0", rig.name, got, chunk)
		}
	}
}
