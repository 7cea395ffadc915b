package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/persist"
)

// durableServer starts a server over a data directory behind an
// httptest listener.
func durableServer(t *testing.T, dir string, par int, extra func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Queries:         testQueries,
		Parallelism:     par,
		DataDir:         dir,
		CheckpointEvery: 40 * time.Millisecond, // force several mid-run checkpoints
		Fsync:           persist.FsyncAlways,
		WriteTimeout:    5 * time.Second,
		Logger:          testLogger(t),
	}
	if extra != nil {
		extra(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts
}

// waitIngested polls until the server has applied n events.
func waitIngested(t *testing.T, ts *httptest.Server, n int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d events ingested", n), func() bool {
		_, body := doReq(t, "GET", ts.URL+"/metrics", "")
		var st struct {
			EventsIngested int64 `json:"events_ingested"`
		}
		return json.Unmarshal([]byte(body), &st) == nil && st.EventsIngested >= n
	})
}

// waitQuiesce waits until the subscriber's frame count stops changing.
func waitQuiesce(t *testing.T, c *sseClient) {
	t.Helper()
	last, since := -1, time.Now()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if n := c.count(); n != last {
			last, since = n, time.Now()
		} else if time.Since(since) > 300*time.Millisecond {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never quiesced")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func postBatches(t *testing.T, url string, raw []rawEvent, batch int) {
	t.Helper()
	for i := 0; i < len(raw); i += batch {
		j := min(i+batch, len(raw))
		if code, body := postJSON(t, url+"/ingest", ndjson(t, raw[i:j])); code != 202 {
			t.Fatalf("ingest: %d %s", code, body)
		}
	}
}

func lastSeqOf(t *testing.T, frames []string) int64 {
	t.Helper()
	if len(frames) == 0 {
		return -1
	}
	var wr struct {
		Seq int64 `json:"seq"`
	}
	if err := json.Unmarshal([]byte(frames[len(frames)-1]), &wr); err != nil {
		t.Fatal(err)
	}
	return wr.Seq
}

// TestServerRestartEquivalence is the crash-recovery contract end to
// end: run a durable server, stop feeding mid-stream, abandon it
// without drain (its on-disk state is exactly what kill -9 leaves — the
// WAL write precedes every apply), start a fresh server on the same
// directory, resume the subscription with ?after=<last received seq>,
// feed the rest. The concatenated SSE payload stream must be
// byte-identical to an uninterrupted in-process run: no lost windows,
// no duplicated windows, sequence numbers contiguous across the crash.
func TestServerRestartEquivalence(t *testing.T) {
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			raw := randomRaw(4000, 42+int64(par))
			cut := len(raw) / 2
			finalWM := raw[len(raw)-1].Time + 4000
			want := inProcessReference(t, testQueries, raw, finalWM, par)
			if len(want) == 0 {
				t.Fatal("reference produced no results")
			}

			dir := t.TempDir()
			s1, ts1 := durableServer(t, dir, par, nil)
			sub1 := subscribeSSE(t, ts1.URL, "")
			postBatches(t, ts1.URL, raw[:cut], 333)
			waitIngested(t, ts1, int64(cut))
			waitQuiesce(t, sub1)
			got1 := sub1.snapshot()
			lastSeq := lastSeqOf(t, got1)
			// Crash: no drain, no flush, no final checkpoint. The pump
			// goroutine dies with the test; disk state is the contract.
			sub1.cancel()
			ts1.Close()
			_ = s1

			s2, ts2 := durableServer(t, dir, par, nil)
			defer ts2.Close()
			waitFor(t, "recovery", func() bool {
				code, _ := doReq(t, "GET", ts2.URL+"/healthz", "")
				return code == 200
			})
			sub2 := subscribeSSE(t, ts2.URL, fmt.Sprintf("?after=%d", lastSeq))
			postBatches(t, ts2.URL, raw[cut:], 333)
			if code, body := postJSON(t, ts2.URL+"/watermark", fmt.Sprintf(`{"watermark":%d}`, finalWM)); code != 202 {
				t.Fatalf("watermark: %d %s", code, body)
			}
			waitFor(t, "all results", func() bool { return len(got1)+sub2.count() >= len(want) })
			waitQuiesce(t, sub2)
			got := append(append([]string(nil), got1...), sub2.snapshot()...)

			if len(got) != len(want) {
				t.Fatalf("resumed stream has %d frames, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("frame %d:\n got %s\nwant %s", i, got[i], want[i])
				}
			}
			// The metrics must reflect replayed state, not a fresh boot.
			_, body := doReq(t, "GET", ts2.URL+"/metrics", "")
			var st struct {
				EventsIngested int64 `json:"events_ingested"`
				Durability     *struct {
					ReplayedBatches int64 `json:"replayed_batches"`
					WalNextSeq      int64 `json:"wal_next_seq"`
				} `json:"durability"`
			}
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				t.Fatal(err)
			}
			if st.EventsIngested != int64(len(raw)) {
				t.Fatalf("events_ingested = %d across restart, want %d", st.EventsIngested, len(raw))
			}
			if st.Durability == nil || st.Durability.ReplayedBatches == 0 {
				t.Fatalf("no replayed batches reported: %s", body)
			}
			if err := s2.Drain(t.Context()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServerDrainWritesFinalCheckpoint pins the SIGTERM semantics with
// durability on: drain checkpoints instead of flushing, so open windows
// survive to the next incarnation and are emitted exactly once, with
// their full contents.
func TestServerDrainWritesFinalCheckpoint(t *testing.T) {
	raw := randomRaw(3000, 7)
	cut := len(raw) / 2
	finalWM := raw[len(raw)-1].Time + 4000
	want := inProcessReference(t, testQueries, raw, finalWM, 1)

	dir := t.TempDir()
	s1, ts1 := durableServer(t, dir, 1, nil)
	sub1 := subscribeSSE(t, ts1.URL, "")
	postBatches(t, ts1.URL, raw[:cut], 500)
	waitIngested(t, ts1, int64(cut))
	waitQuiesce(t, sub1)
	got1 := sub1.snapshot()
	lastSeq := lastSeqOf(t, got1)
	if err := s1.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "eof", func() bool { return sub1.sawEvent("eof") })
	// Open windows were NOT flushed into the stream...
	if got := sub1.count(); got >= len(want) {
		t.Fatalf("drain flushed everything (%d frames); open windows should have been checkpointed instead", got)
	}
	// ...because they went into a final checkpoint.
	ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if len(ckpts) == 0 {
		t.Fatal("no checkpoint written at drain")
	}
	ts1.Close()

	s2, ts2 := durableServer(t, dir, 1, nil)
	defer ts2.Close()
	waitFor(t, "recovery", func() bool {
		code, _ := doReq(t, "GET", ts2.URL+"/healthz", "")
		return code == 200
	})
	sub2 := subscribeSSE(t, ts2.URL, fmt.Sprintf("?after=%d", lastSeq))
	postBatches(t, ts2.URL, raw[cut:], 500)
	if code, _ := postJSON(t, ts2.URL+"/watermark", fmt.Sprintf(`{"watermark":%d}`, finalWM)); code != 202 {
		t.Fatal("watermark rejected")
	}
	waitFor(t, "all results", func() bool { return len(got1)+sub2.count() >= len(want) })
	waitQuiesce(t, sub2)
	got := append(got1, sub2.snapshot()...)
	if len(got) != len(want) {
		t.Fatalf("stream across graceful restart has %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d differs across graceful restart", i)
		}
	}
	if err := s2.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestServerRestartWithLiveRegistration covers workload evolution in
// the WAL: a query registered mid-stream must survive a crash (ctl
// records replay with their recorded IDs and plan).
func TestServerRestartWithLiveRegistration(t *testing.T) {
	raw := randomRaw(2000, 99)
	cut := len(raw) / 2

	dir := t.TempDir()
	s1, ts1 := durableServer(t, dir, 1, nil)
	postBatches(t, ts1.URL, raw[:cut], 250)
	waitIngested(t, ts1, int64(cut))
	code, body := doReq(t, "POST", ts1.URL+"/queries",
		`{"query":"RETURN COUNT(*) PATTERN SEQ(B, C) WHERE [k] WITHIN 4s SLIDE 1s"}`)
	if code != 200 {
		t.Fatalf("live registration: %d %s", code, body)
	}
	// More traffic after the change, then crash without drain.
	postBatches(t, ts1.URL, raw[cut:], 250)
	waitIngested(t, ts1, int64(len(raw)))
	ts1.Close()
	_ = s1

	s2, ts2 := durableServer(t, dir, 1, nil)
	defer ts2.Close()
	waitFor(t, "recovery", func() bool {
		code, _ := doReq(t, "GET", ts2.URL+"/healthz", "")
		return code == 200
	})
	_, qbody := doReq(t, "GET", ts2.URL+"/queries", "")
	if !strings.Contains(qbody, "SEQ(B, C)") {
		t.Fatalf("live-registered query lost across restart: %s", qbody)
	}
	var ql struct {
		Queries []struct {
			ID int `json:"id"`
		} `json:"queries"`
	}
	if err := json.Unmarshal([]byte(qbody), &ql); err != nil {
		t.Fatal(err)
	}
	if len(ql.Queries) != len(testQueries)+1 {
		t.Fatalf("%d queries after restart, want %d", len(ql.Queries), len(testQueries)+1)
	}
	if err := s2.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestHealthzRecovering pins the load-balancer contract: /healthz is
// 503 "recovering" until the WAL tail has been replayed.
func TestHealthzRecovering(t *testing.T) {
	dir := t.TempDir()
	raw := randomRaw(1500, 3)
	s1, ts1 := durableServer(t, dir, 1, nil)
	postBatches(t, ts1.URL, raw, 100)
	waitIngested(t, ts1, int64(len(raw)))
	ts1.Close()
	_ = s1

	gate := make(chan struct{})
	s2, ts2 := durableServer(t, dir, 1, func(c *Config) { c.recoveryGate = gate })
	defer ts2.Close()
	code, body := doReq(t, "GET", ts2.URL+"/healthz", "")
	if code != 503 || !strings.Contains(body, "recovering") {
		t.Fatalf("healthz during recovery: %d %s", code, body)
	}
	close(gate)
	waitFor(t, "recovery to finish", func() bool {
		code, _ := doReq(t, "GET", ts2.URL+"/healthz", "")
		return code == 200
	})
	if err := s2.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeResumeAfter covers the ring-backed resume on a live
// server (no restart): a reconnecting subscriber picks up exactly after
// its last received seq; an aged-out cursor is refused with 410.
func TestSubscribeResumeAfter(t *testing.T) {
	raw := randomRaw(3000, 12)
	cut := len(raw) / 2
	finalWM := raw[len(raw)-1].Time + 4000
	want := inProcessReference(t, testQueries, raw, finalWM, 1)

	s, err := New(Config{Queries: testQueries, WriteTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub1 := subscribeSSE(t, ts.URL, "")
	postBatches(t, ts.URL, raw[:cut], 200)
	waitIngested(t, ts, int64(cut))
	waitQuiesce(t, sub1)
	got1 := sub1.snapshot()
	lastSeq := lastSeqOf(t, got1)
	sub1.cancel() // subscriber drops; server keeps serving

	postBatches(t, ts.URL, raw[cut:], 200)
	if code, _ := postJSON(t, ts.URL+"/watermark", fmt.Sprintf(`{"watermark":%d}`, finalWM)); code != 202 {
		t.Fatal("watermark rejected")
	}
	sub2 := subscribeSSE(t, ts.URL, fmt.Sprintf("?after=%d", lastSeq))
	waitFor(t, "resumed results", func() bool { return len(got1)+sub2.count() >= len(want) })
	waitQuiesce(t, sub2)
	got := append(got1, sub2.snapshot()...)
	if len(got) != len(want) {
		t.Fatalf("resumed stream has %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d differs on ring resume", i)
		}
	}
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeResumeGap pins the refusal when the requested cursor has
// aged out of the replay ring.
func TestSubscribeResumeGap(t *testing.T) {
	raw := randomRaw(2500, 5)
	s, err := New(Config{Queries: testQueries, ReplayBuffer: 8, WriteTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postBatches(t, ts.URL, raw, 500)
	waitIngested(t, ts, int64(len(raw)))
	waitFor(t, "emissions past the tiny ring", func() bool {
		_, body := doReq(t, "GET", ts.URL+"/metrics", "")
		var st struct {
			ResultsEmitted int64 `json:"results_emitted"`
		}
		return json.Unmarshal([]byte(body), &st) == nil && st.ResultsEmitted > 16
	})
	code, body := doReq(t, "GET", ts.URL+"/subscribe?after=0", "")
	if code != 410 {
		t.Fatalf("aged-out resume: %d %s", code, body)
	}
	// A cursor beyond everything ever emitted (a client resuming against
	// a server whose sequence restarted) must be refused too — serving
	// it would silently skip every result up to the phantom cursor.
	if code, _ := doReq(t, "GET", ts.URL+"/subscribe?after=999999999", ""); code != 410 {
		t.Fatalf("phantom cursor accepted: %d", code)
	}
	// Filtered resume shares the same gap discipline: an aged-out cursor
	// is refused with 410 whether or not the stream is narrowed.
	if code, _ := doReq(t, "GET", ts.URL+"/subscribe?after=0&query=1", ""); code != 410 {
		t.Fatalf("aged-out filtered resume: got %d, want 410", code)
	}
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestRestartParallelismMismatch pins the boot-time validation: a
// checkpoint only restores into the parallelism it was taken under.
func TestRestartParallelismMismatch(t *testing.T) {
	dir := t.TempDir()
	raw := randomRaw(1200, 8)
	s1, ts1 := durableServer(t, dir, 2, nil)
	postBatches(t, ts1.URL, raw, 300)
	waitIngested(t, ts1, int64(len(raw)))
	if err := s1.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	_, err := New(Config{Queries: testQueries, Parallelism: 4, DataDir: dir, Logger: testLogger(t)})
	if err == nil || !strings.Contains(err.Error(), "parallelism") {
		t.Fatalf("mismatched parallelism accepted: %v", err)
	}
}

// TestWALOnlyRecovery covers a crash before the first checkpoint: the
// whole log replays into a fresh engine.
func TestWALOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	raw := randomRaw(800, 21)
	finalWM := raw[len(raw)-1].Time + 4000
	want := inProcessReference(t, testQueries, raw, finalWM, 1)

	s1, ts1 := durableServer(t, dir, 1, func(c *Config) { c.CheckpointEvery = time.Hour })
	postBatches(t, ts1.URL, raw, 200)
	waitIngested(t, ts1, int64(len(raw)))
	ts1.Close()
	_ = s1
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt")); len(ckpts) != 0 {
		t.Fatalf("unexpected checkpoint: %v", ckpts)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) == 0 {
		t.Fatal("no wal segments on disk")
	}

	s2, ts2 := durableServer(t, dir, 1, nil)
	defer ts2.Close()
	waitFor(t, "recovery", func() bool {
		code, _ := doReq(t, "GET", ts2.URL+"/healthz", "")
		return code == 200
	})
	sub := subscribeSSE(t, ts2.URL, "?after=-1")
	if code, _ := postJSON(t, ts2.URL+"/watermark", fmt.Sprintf(`{"watermark":%d}`, finalWM)); code != 202 {
		t.Fatal("watermark rejected")
	}
	waitFor(t, "all results", func() bool { return sub.count() >= len(want) })
	waitQuiesce(t, sub)
	got := sub.snapshot()
	if len(got) != len(want) {
		t.Fatalf("wal-only recovery emitted %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d differs after wal-only recovery", i)
		}
	}
	if err := s2.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointTruncatesWAL checks the log does not grow without
// bound: after a checkpoint, fully covered segments are removed.
func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	raw := randomRaw(6000, 31)
	s, ts := durableServer(t, dir, 1, func(c *Config) {
		c.WALSegmentBytes = 4 << 10
		c.CheckpointEvery = 20 * time.Millisecond
	})
	defer ts.Close()
	postBatches(t, ts.URL, raw, 100)
	waitIngested(t, ts, int64(len(raw)))
	waitFor(t, "a checkpoint", func() bool {
		ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
		return len(ckpts) > 0
	})
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	var total int64
	for _, p := range segs {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	// ~60 batches of ~100 events at ~10B/event spread over 4KiB
	// segments would be ~15 segments; truncation must have removed the
	// covered ones.
	if len(segs) > 4 {
		t.Fatalf("%d wal segments (%d bytes) survived checkpoint truncation", len(segs), total)
	}
}
