// Public-API test for watermark-driven emission through the OnResult
// sink without a terminal Flush: the contract the sharond server builds
// on (internal/server). The sink's order and its exclusivity with
// Results() are pinned by TestSystemMatrix.
package sharon_test

import (
	"sync"
	"testing"
	"time"

	sharon "github.com/sharon-project/sharon"
)

// waitForCount polls an atomic-ish counter until it reaches want; the
// parallel path delivers results asynchronously after a watermark.
func waitForCount(t *testing.T, label string, count func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for count() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: delivered %d results, want %d", label, count(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdvanceWatermarkEmitsWithoutFlush pins watermark-driven emission:
// on an unbounded stream no terminal Flush is needed — advancing the
// watermark past the last window's end pushes every result through the
// sink, sequentially and in parallel, matching a flushed run exactly.
func TestAdvanceWatermarkEmitsWithoutFlush(t *testing.T) {
	w, stream := genGrouped(t, 4, 4000, 8)
	rates := sharon.MeasureRates(stream, w)
	win := w[0].Window
	winEnd := win.End(win.LastContaining(stream[len(stream)-1].Time))

	// Split where (a) at least two windows have closed, so a mid-stream
	// watermark must push something, and (b) a time gap follows, so the
	// watermark stream[split-1].Time+1 makes no later event late.
	split := 0
	for i := 1; i < len(stream); i++ {
		if stream[i-1].Time > win.End(1) && stream[i].Time > stream[i-1].Time+1 {
			split = i
			break
		}
	}
	if split == 0 {
		t.Fatal("no usable split point in generated stream")
	}

	ref, err := sharon.NewSystem(w, sharon.Options{Rates: rates, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	want := pushOrder(w, ref.Results())
	if len(want) == 0 {
		t.Fatal("reference run produced no results")
	}

	for _, par := range []int{1, 4} {
		var mu sync.Mutex
		var got []sharon.Result
		sys, err := sharon.NewSystem(w, sharon.Options{
			Rates:       rates,
			Parallelism: par,
			OnResult: func(r sharon.Result) {
				mu.Lock()
				got = append(got, r)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		count := func() int64 {
			mu.Lock()
			defer mu.Unlock()
			return int64(len(got))
		}
		if err := sys.FeedBatch(stream[:split]); err != nil {
			t.Fatal(err)
		}
		// A mid-stream watermark forces timely emission of every window
		// closed so far — the parallel path must not sit on partial
		// batches below the dispatch threshold.
		sys.AdvanceWatermark(stream[split-1].Time + 1)
		waitForCount(t, "mid-stream watermark", count, 1)
		if err := sys.FeedBatch(stream[split:]); err != nil {
			t.Fatal(err)
		}
		sys.AdvanceWatermark(winEnd)
		waitForCount(t, "final watermark", count, int64(len(want)))
		sys.Close() // the watermark delivered everything; Close only reclaims
		mu.Lock()
		requireIdentical(t, want, got, "watermark-driven emission")
		mu.Unlock()
	}
}
