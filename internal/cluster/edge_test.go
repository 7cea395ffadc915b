package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/server"
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

// edgeTier is one tier's request edge under the contract test.
type edgeTier struct {
	url   string
	drain func()
}

// startEdgeTiers starts a fresh sharond and a fresh router (over one
// worker), both with the same edge settings.
func startEdgeTiers(t *testing.T, edge server.EdgeConfig) map[string]edgeTier {
	t.Helper()
	srv, err := server.New(server.Config{
		Queries:       server.DefaultQueries,
		MaxBatchBytes: edge.MaxBatchBytes,
		IngestQueue:   edge.IngestQueue,
	})
	if err != nil {
		t.Fatal(err)
	}
	srvHTTP := httptest.NewServer(srv.Handler())
	worker := startNode(t, 1, "")
	rt, err := New(Config{
		Workers:    []WorkerSpec{{URL: worker.hs.URL}},
		Queries:    server.DefaultQueries,
		EdgeConfig: edge,
	})
	if err != nil {
		t.Fatal(err)
	}
	rtHTTP := httptest.NewServer(rt.Handler())
	drain := func(d func(context.Context) error) func() {
		return func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = d(ctx)
		}
	}
	t.Cleanup(func() {
		srvHTTP.Close()
		rtHTTP.Close()
		drain(srv.Drain)()
		drain(rt.Drain)()
	})
	return map[string]edgeTier{
		"server": {url: srvHTTP.URL, drain: drain(srv.Drain)},
		"router": {url: rtHTTP.URL, drain: drain(rt.Drain)},
	}
}

func edgeStats(t *testing.T, url string) metrics.EdgeStats {
	t.Helper()
	var st metrics.EdgeStats
	if err := json.Unmarshal(fetch(t, url+"/metrics"), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func postIngest(t *testing.T, url, path, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url+path, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(data)
}

// ndjsonBatch renders n in-order events of the given types from time t0.
func ndjsonBatch(n int, t0 int, types ...string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"type":%q,"time":%d,"key":%d,"val":1}`+"\n", types[i%len(types)], t0+i, i%16)
	}
	return b.String()
}

// TestEdgeContract runs one admission contract against both tiers'
// request edge: the same request gets the same refusal and moves the
// same counter on sharond and on the cluster router.
func TestEdgeContract(t *testing.T) {
	edge := server.EdgeConfig{MaxBatchBytes: 64 << 10, IngestQueue: 1}
	cases := []struct {
		name string
		run  func(t *testing.T, tier edgeTier)
	}{
		{"oversize body is 413", func(t *testing.T, tier edgeTier) {
			resp, body := postIngest(t, tier.url, "/ingest", ndjsonBatch(4000, 1, "A"))
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d: %s, want 413", resp.StatusCode, body)
			}
			if got := edgeStats(t, tier.url).RejectedOversize; got != 1 {
				t.Fatalf("rejected_oversize = %d, want 1", got)
			}
		}},
		{"malformed body is 400", func(t *testing.T, tier edgeTier) {
			if resp, body := postIngest(t, tier.url, "/ingest", "{not json\n"); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s, want 400", resp.StatusCode, body)
			}
		}},
		{"full queue is 429", func(t *testing.T, tier edgeTier) {
			// Concurrent batches outrun the one pump behind a one-deep
			// queue; every refusal carries Retry-After and is counted.
			var refused atomic.Int64
			for round := 0; round < 10 && refused.Load() == 0; round++ {
				var wg sync.WaitGroup
				for i := 0; i < 32; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						resp, body := postIngest(t, tier.url, "/ingest", ndjsonBatch(1000, 1+(round*32+i)*1000, "A", "B", "C", "D"))
						switch resp.StatusCode {
						case http.StatusAccepted:
						case http.StatusTooManyRequests:
							if resp.Header.Get("Retry-After") == "" {
								t.Errorf("429 without Retry-After")
							}
							refused.Add(1)
						default:
							t.Errorf("status %d: %s", resp.StatusCode, body)
						}
					}(i)
				}
				wg.Wait()
			}
			if refused.Load() == 0 {
				t.Fatal("no batch was refused with 429")
			}
			if got := edgeStats(t, tier.url).RejectedBackpressure; got != refused.Load() {
				t.Fatalf("rejected_backpressure = %d, want %d", got, refused.Load())
			}
		}},
		{"ingest after drain is 503", func(t *testing.T, tier edgeTier) {
			tier.drain()
			if resp, body := postIngest(t, tier.url, "/ingest", ndjsonBatch(1, 1, "A")); resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status %d: %s, want 503", resp.StatusCode, body)
			}
		}},
		{"unknown types are accepted and counted", func(t *testing.T, tier edgeTier) {
			resp, body := postIngest(t, tier.url, "/ingest", ndjsonBatch(3, 1, "Z"))
			if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"accepted": 0`) {
				t.Fatalf("status %d: %s, want 200 accepted 0", resp.StatusCode, body)
			}
			if got := edgeStats(t, tier.url).EventsDroppedUnknownType; got != 3 {
				t.Fatalf("events_dropped_unknown_type = %d, want 3", got)
			}
		}},
		{"bad watermark body is 400", func(t *testing.T, tier edgeTier) {
			if resp, body := postIngest(t, tier.url, "/watermark", `{"wm":5}`); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s, want 400", resp.StatusCode, body)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for name, tier := range startEdgeTiers(t, edge) {
				t.Run(name, func(t *testing.T) { c.run(t, tier) })
			}
		})
	}
}
