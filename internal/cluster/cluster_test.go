package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/server"
)

// The cluster acceptance property: a router over N workers emits a
// result stream byte-identical to a single sharond over the same input
// — same payloads, same order, same sequence numbers — including
// across a worker kill + rebalance and across membership changes.

// testNode is one in-process sharond with its HTTP front.
type testNode struct {
	srv  *server.Server
	hs   *httptest.Server
	dir  string
	dead bool
}

func startNode(t *testing.T, parallelism int, dir string) *testNode {
	t.Helper()
	cfg := server.Config{
		Queries:         server.DefaultQueries,
		Parallelism:     parallelism,
		DataDir:         dir,
		CheckpointEvery: 500 * time.Millisecond,
		HeartbeatEvery:  time.Hour,
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	n := &testNode{srv: s, hs: httptest.NewServer(s.Handler()), dir: dir}
	t.Cleanup(func() {
		if !n.dead {
			n.kill(t)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	// Durable nodes report recovering until the (empty) WAL replays.
	waitFor(t, "node ready", func() bool {
		resp, err := http.Get(n.hs.URL + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return n
}

// kill severs the node's HTTP front abruptly — the in-process stand-in
// for kill -9: in-flight connections die, the WAL keeps its tail, no
// final checkpoint is written (the pump is simply never drained before
// the router reads the durable state).
func (n *testNode) kill(t *testing.T) {
	t.Helper()
	if n.dead {
		return
	}
	n.dead = true
	n.hs.CloseClientConnections()
	n.hs.Close()
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// collector subscribes to a result stream and retains the payload lines.
type collector struct {
	mu     sync.Mutex
	lines  []string
	closed bool
	cancel context.CancelFunc
}

func subscribe(t *testing.T, baseURL string) *collector {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	c := &collector{cancel: cancel}
	req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/subscribe", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("subscribe %s: %v", baseURL, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("subscribe %s: status %d", baseURL, resp.StatusCode)
	}
	ready := make(chan struct{})
	go func() {
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == ": subscribed" {
				close(ready)
				continue
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			c.mu.Lock()
			c.lines = append(c.lines, line[len("data: "):])
			c.mu.Unlock()
		}
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
	}()
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("subscription never ready")
	}
	t.Cleanup(cancel)
	return c
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.lines)
}

func (c *collector) all() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

// genEvents renders the loadgen event stream (hash-mixed keys over the
// default A..D cycle) as NDJSON batches.
func genBatches(events, batch, groups int) [][]byte {
	var out [][]byte
	var buf bytes.Buffer
	types := []string{"A", "B", "C", "D"}
	for i := 0; i < events; i++ {
		key := (uint64(i) * 0x9E3779B97F4A7C15 >> 33) % uint64(groups)
		fmt.Fprintf(&buf, `{"type":%q,"time":%d,"key":%d,"val":%d}`+"\n", types[i%4], i+1, key, i%7+1)
		if (i+1)%batch == 0 || i == events-1 {
			out = append(out, append([]byte(nil), buf.Bytes()...))
			buf.Reset()
		}
	}
	return out
}

func post(t *testing.T, url string, body []byte) int {
	t.Helper()
	for {
		resp, err := http.Post(url+"/ingest", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("ingest %s: %v", url, err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			return resp.StatusCode
		case http.StatusTooManyRequests:
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("ingest %s: status %d", url, resp.StatusCode)
		}
	}
}

func postWatermark(t *testing.T, url string, wm int64) {
	t.Helper()
	resp, err := http.Post(url+"/watermark", "application/json",
		strings.NewReader(fmt.Sprintf(`{"watermark":%d}`, wm)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("watermark: status %d", resp.StatusCode)
	}
}

// quiesce waits until a collector stops growing.
func quiesce(t *testing.T, c *collector, atLeast int) {
	t.Helper()
	waitFor(t, "results", func() bool { return c.count() >= atLeast })
	last, lastChange := c.count(), time.Now()
	deadline := time.Now().Add(15 * time.Second)
	for {
		time.Sleep(50 * time.Millisecond)
		if n := c.count(); n != last {
			last, lastChange = n, time.Now()
		} else if time.Since(lastChange) > 400*time.Millisecond {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream never quiesced (at %d results)", c.count())
		}
	}
}

func startRouter(t *testing.T, nodes []*testNode) (*Router, *httptest.Server) {
	t.Helper()
	specs := make([]WorkerSpec, len(nodes))
	for i, n := range nodes {
		specs[i] = WorkerSpec{URL: n.hs.URL, DataDir: n.dir}
	}
	rt, err := New(Config{
		Workers:        specs,
		Queries:        server.DefaultQueries,
		HealthEvery:    100 * time.Millisecond,
		BarrierTimeout: 15 * time.Second,
		EdgeConfig:     server.EdgeConfig{HeartbeatEvery: time.Hour, Logger: testLogger(t)},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = rt.Drain(ctx)
	})
	return rt, hs
}

func compareStreams(t *testing.T, want, got []string, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: single node emitted %d results, cluster %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: stream diverges at result %d:\n  single:  %s\n  cluster: %s", label, i, want[i], got[i])
		}
	}
	if len(want) == 0 {
		t.Fatalf("%s: no results at all", label)
	}
}

// runEquivalence drives the same generated stream into a single node
// and a router over `workers` nodes, optionally killing one mid-stream,
// and requires byte-identical result streams.
func runEquivalence(t *testing.T, parallelism int, killMid bool) {
	const events, batch, groups = 30000, 512, 16

	ref := startNode(t, parallelism, t.TempDir())
	refSub := subscribe(t, ref.hs.URL)

	nodes := []*testNode{
		startNode(t, parallelism, t.TempDir()),
		startNode(t, parallelism, t.TempDir()),
		startNode(t, parallelism, t.TempDir()),
	}
	_, rthttp := startRouter(t, nodes)
	cluSub := subscribe(t, rthttp.URL)

	batches := genBatches(events, batch, groups)
	killAt := len(batches) / 3
	for i, b := range batches {
		post(t, ref.hs.URL, b)
		if killMid && i == killAt {
			nodes[1].kill(t)
		}
		post(t, rthttp.URL, b)
	}
	finalWM := int64(events) + 4000
	postWatermark(t, ref.hs.URL, finalWM)
	postWatermark(t, rthttp.URL, finalWM)

	quiesce(t, refSub, 1)
	want := refSub.all()
	quiesce(t, cluSub, len(want))
	compareStreams(t, want, cluSub.all(), fmt.Sprintf("parallelism=%d kill=%v", parallelism, killMid))

	if killMid {
		resp, err := http.Get(rthttp.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Rebalances int64 `json:"rebalances"`
			Workers    []struct {
				ID string `json:"id"`
			} `json:"workers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Rebalances != 1 {
			t.Fatalf("rebalances = %d, want 1", st.Rebalances)
		}
		if len(st.Workers) != 2 {
			t.Fatalf("surviving workers = %d, want 2", len(st.Workers))
		}
	}
}

func TestClusterEquivalenceSequential(t *testing.T) {
	runEquivalence(t, 1, false)
}

func TestClusterEquivalenceParallel(t *testing.T) {
	runEquivalence(t, 2, false)
}

func TestClusterKillRebalanceSequential(t *testing.T) {
	runEquivalence(t, 1, true)
}

// muteLane makes the router lose every further frame from one worker —
// results, punctuation, markers — as if they died in the socket buffer,
// while the worker itself keeps applying, emitting, and checkpointing.
func muteLane(t *testing.T, rt *Router, id string) {
	t.Helper()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ln := rt.lanes[id]
	if ln == nil {
		t.Fatal("no lane to mute")
	}
	ln.mute.Store(true)
	t.Logf("muted lane %s at frontier %d", id, ln.frontier)
}

// TestClusterKillWithLostPunctuation kills a worker whose last frames
// never reached the router: several batches are applied and
// checkpointed at the worker after the router stops hearing from it, so
// the checkpoint sits AHEAD of the router's frontier W_p. Recovery must
// bridge (W_p, C] from the checkpoint's emission ring (the temp-engine
// replay can only regenerate past C) — the merged stream must still be
// byte-identical.
func TestClusterKillWithLostPunctuation(t *testing.T) {
	const events, batch, groups = 30000, 512, 16

	ref := startNode(t, 1, t.TempDir())
	refSub := subscribe(t, ref.hs.URL)

	nodes := []*testNode{
		startNode(t, 1, t.TempDir()),
		startNode(t, 1, t.TempDir()),
		startNode(t, 1, t.TempDir()),
	}
	rt, rthttp := startRouter(t, nodes)
	cluSub := subscribe(t, rthttp.URL)

	batches := genBatches(events, batch, groups)
	muteAt := len(batches) / 2
	ckptAt := muteAt + 4 // a mid-mute step must trigger the checkpoint:
	// the pump only cuts checkpoints while applying, so the timer has to
	// expire before a muted batch is applied for C to land past W_p
	killAt := muteAt + 6
	for i, b := range batches {
		post(t, ref.hs.URL, b)
		switch i {
		case muteAt:
			muteLane(t, rt, nodes[1].hs.URL)
		case ckptAt:
			time.Sleep(700 * time.Millisecond) // > CheckpointEvery (500ms)
		case killAt:
			nodes[1].kill(t)
		}
		post(t, rthttp.URL, b)
	}
	finalWM := int64(events) + 4000
	postWatermark(t, ref.hs.URL, finalWM)
	postWatermark(t, rthttp.URL, finalWM)

	quiesce(t, refSub, 1)
	want := refSub.all()
	quiesce(t, cluSub, len(want))
	compareStreams(t, want, cluSub.all(), "lost-punctuation kill")
}

func TestClusterKillRebalanceParallel(t *testing.T) {
	runEquivalence(t, 2, true)
}

// TestClusterJoinLeaveEquivalence exercises the live extract/adopt
// path: a worker joins mid-stream (ranges cut out of the incumbents),
// another leaves gracefully later, and the merged stream still matches
// the single node byte-for-byte.
func TestClusterJoinLeaveEquivalence(t *testing.T) {
	const events, batch, groups = 24000, 512, 16

	ref := startNode(t, 1, t.TempDir())
	refSub := subscribe(t, ref.hs.URL)

	nodes := []*testNode{
		startNode(t, 1, t.TempDir()),
		startNode(t, 1, t.TempDir()),
	}
	// Before the router: cleanups run LIFO, and the router must drain
	// before its workers start dying under it.
	joiner := startNode(t, 1, t.TempDir())
	_, rthttp := startRouter(t, nodes)
	cluSub := subscribe(t, rthttp.URL)

	batches := genBatches(events, batch, groups)
	joinAt, leaveAt := len(batches)/3, 2*len(batches)/3
	for i, b := range batches {
		post(t, ref.hs.URL, b)
		post(t, rthttp.URL, b)
		switch i {
		case joinAt:
			body, _ := json.Marshal(WorkerSpec{URL: joiner.hs.URL, DataDir: joiner.dir})
			resp, err := http.Post(rthttp.URL+"/cluster/workers", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			reply, _ := json.Marshal(resp.Header)
			if resp.StatusCode != http.StatusOK {
				var msg map[string]any
				json.NewDecoder(resp.Body).Decode(&msg)
				t.Fatalf("join: status %d (%v, %s)", resp.StatusCode, msg, reply)
			}
			resp.Body.Close()
		case leaveAt:
			req, _ := http.NewRequest("DELETE", rthttp.URL+"/cluster/workers?url="+nodes[0].hs.URL, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				var msg map[string]any
				json.NewDecoder(resp.Body).Decode(&msg)
				t.Fatalf("leave: status %d (%v)", resp.StatusCode, msg)
			}
			resp.Body.Close()
		}
	}
	finalWM := int64(events) + 4000
	postWatermark(t, ref.hs.URL, finalWM)
	postWatermark(t, rthttp.URL, finalWM)

	quiesce(t, refSub, 1)
	want := refSub.all()
	quiesce(t, cluSub, len(want))
	compareStreams(t, want, cluSub.all(), "join+leave")
}

// genBinBatches renders the same generated stream as genBatches, but as
// one-shot binary ingest bodies (header + type table + one batch frame).
func genBinBatches(events, batch, groups int) [][]byte {
	names := []string{"A", "B", "C", "D"}
	var out [][]byte
	var evs []sharon.Event
	for i := 0; i < events; i++ {
		key := (uint64(i) * 0x9E3779B97F4A7C15 >> 33) % uint64(groups)
		evs = append(evs, sharon.Event{
			Time: int64(i) + 1,
			Type: sharon.Type(i%4 + 1),
			Key:  sharon.GroupKey(key),
			Val:  float64(i%7 + 1),
		})
		if (i+1)%batch == 0 || i == events-1 {
			body := server.AppendWireTypeTable(server.AppendWireHeader(nil), names)
			out = append(out, server.AppendWireBatch(body, evs, -1))
			evs = nil
		}
	}
	return out
}

func postBinary(t *testing.T, url string, body []byte) {
	t.Helper()
	for {
		resp, err := http.Post(url+"/ingest", server.BatchContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("ingest %s: %v", url, err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			return
		case http.StatusTooManyRequests:
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("ingest %s: status %d", url, resp.StatusCode)
		}
	}
}

// TestClusterBinaryIngestEquivalence drives the same generated stream
// into a single node as NDJSON and into a router as one-shot binary
// bodies (which the router also forwards to its workers in the binary
// codec), and requires byte-identical result streams — the cluster half
// of the codec-equivalence property.
func TestClusterBinaryIngestEquivalence(t *testing.T) {
	const events, batch, groups = 20000, 512, 16

	ref := startNode(t, 1, t.TempDir())
	refSub := subscribe(t, ref.hs.URL)

	nodes := []*testNode{
		startNode(t, 1, t.TempDir()),
		startNode(t, 1, t.TempDir()),
		startNode(t, 1, t.TempDir()),
	}
	_, rthttp := startRouter(t, nodes)
	cluSub := subscribe(t, rthttp.URL)

	for _, b := range genBatches(events, batch, groups) {
		post(t, ref.hs.URL, b)
	}
	for _, b := range genBinBatches(events, batch, groups) {
		postBinary(t, rthttp.URL, b)
	}
	finalWM := int64(events) + 4000
	postWatermark(t, ref.hs.URL, finalWM)
	postWatermark(t, rthttp.URL, finalWM)

	quiesce(t, refSub, 1)
	want := refSub.all()
	quiesce(t, cluSub, len(want))
	compareStreams(t, want, cluSub.all(), "binary ingest")
}
