package server

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/persist"
)

// testLogger routes a component's structured logs to t.Log.
func testLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

type testLogWriter struct{ t testing.TB }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// TestFailedServerRefusesIngest pins the failure contract on a durable
// node: once a WAL append fails, /healthz answers 500 and the edge
// refuses every later one-shot batch with 503 and ends an ingest
// stream with a terminal ack, instead of acknowledging batches the
// server can no longer log.
func TestFailedServerRefusesIngest(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	var diskFull atomic.Bool
	s, ts := durableServer(t, t.TempDir(), 1, func(c *Config) {
		c.pumpGate = gate
		c.walFault = func() error {
			if diskFull.Load() {
				return errors.New("no space left on device")
			}
			return nil
		}
	})
	defer func() {
		ts.Close()
		_ = s.Drain(t.Context())
	}()
	waitFor(t, "recovered", func() bool {
		status, _ := doReq(t, "GET", ts.URL+"/healthz", "")
		return status == http.StatusOK
	})
	names := []string{"A", "B", "C", "D"}
	c := dialStream(t, ts.URL, names)
	defer c.close()

	line := func(i int) string { return fmt.Sprintf(`{"type":"A","time":%d,"key":1,"val":1}`+"\n", i) }
	// Acknowledged while the pump is stalled; its WAL append then fails.
	if status, body := postJSON(t, ts.URL+"/ingest", line(1)); status != http.StatusAccepted {
		t.Fatalf("first batch: status %d: %s", status, body)
	}
	diskFull.Store(true)
	gate <- struct{}{}
	waitFor(t, "healthz 500", func() bool {
		status, _ := doReq(t, "GET", ts.URL+"/healthz", "")
		return status == http.StatusInternalServerError
	})

	status, body := postJSON(t, ts.URL+"/ingest", line(2))
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "no space left") {
		t.Fatalf("ingest on a failed server: status %d: %s, want 503", status, body)
	}
	events := xorshiftEvents(5, 1, len(names))
	if ack := c.send(events, -1); ack.Status != WireAckDraining {
		t.Fatalf("stream ack on a failed server = %d, want draining (%d)", ack.Status, WireAckDraining)
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestStreamIngestAllocs pins the stream ingest path through the edge
// at zero allocations per admitted batch: decode into a pooled batch,
// enqueue, ack. The events sit behind the watermark, so the pump only
// late-drops and recycles them.
func TestStreamIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops values under -race")
	}
	s, err := New(Config{Queries: testQueries})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(t.Context())
	s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/watermark", strings.NewReader(`{"watermark":60000}`)))
	waitFor(t, "watermark applied", func() bool { return s.edge.Watermark.Load() == 60000 })

	names := s.reg.Names()
	table, err := decodeWireTypeTable(AppendWireTypeTable(nil, names)[persist.FrameHeaderLen+1:], *s.edge.types.Load(), nil)
	if err != nil {
		t.Fatal(err)
	}
	events := make([]sharon.Event, 512)
	for i := range events {
		events[i] = sharon.Event{Type: s.reg.Lookup(names[i%len(names)]), Time: int64(i + 1), Key: sharon.GroupKey(i % 16), Val: 1}
	}
	frame := AppendWireBatch(nil, events, -1)[persist.FrameHeaderLen+1:]
	ack := func(a WireAck) bool {
		if a.Status != WireAckOK {
			t.Fatalf("ack status %d", a.Status)
		}
		return true
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.streamBatch(frame, table, ack)
		for i := 0; i < 4; i++ {
			runtime.Gosched() // let the pump recycle the batch
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per streamed batch, want 0", allocs)
	}
}
