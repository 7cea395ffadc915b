package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the unified streaming surface: the filter oracle (a
// filtered subscription is byte-for-byte the client-side filter of the
// unfiltered stream), cursor resume across transports, the WebSocket
// handshake/keepalive protocol, the versioning and deprecation
// headers, and a 10k-subscriber broadcast stress against the hub.

// sseFrame is one received SSE frame: the event name ("" for plain
// result frames), the id line if present, and the data payload.
type sseFrame struct {
	event string
	id    int64
	data  string
}

// rawSSEClient collects full frames (event/id/data) so tests can
// compare streams byte-for-byte including sequence ids.
type rawSSEClient struct {
	mu     sync.Mutex
	frames []sseFrame
	header http.Header
	done   chan struct{}
	cancel context.CancelFunc
}

func subscribeRawSSE(t *testing.T, baseURL, params string, hdr map[string]string) *rawSSEClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	c := &rawSSEClient{done: make(chan struct{}), cancel: cancel}
	req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/subscribe"+params, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("subscribe%s: status %d: %s", params, resp.StatusCode, body)
	}
	c.header = resp.Header
	ready := make(chan struct{})
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		cur := sseFrame{id: -1}
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == ": subscribed":
				close(ready)
			case strings.HasPrefix(line, ": "): // heartbeat
			case strings.HasPrefix(line, "event: "):
				cur.event = line[len("event: "):]
			case strings.HasPrefix(line, "id: "):
				cur.id, _ = strconv.ParseInt(line[len("id: "):], 10, 64)
			case strings.HasPrefix(line, "data: "):
				cur.data = line[len("data: "):]
			case line == "":
				if cur.data != "" {
					c.mu.Lock()
					c.frames = append(c.frames, cur)
					c.mu.Unlock()
				}
				cur = sseFrame{id: -1}
			}
		}
	}()
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("subscription never became ready")
	}
	return c
}

func (c *rawSSEClient) snapshot() []sseFrame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]sseFrame(nil), c.frames...)
}

func (c *rawSSEClient) results() []sseFrame {
	var out []sseFrame
	for _, f := range c.snapshot() {
		if f.event == "" {
			out = append(out, f)
		}
	}
	return out
}

// driveWorkload ingests a randomized stream and closes it with the
// final watermark, returning the expected unfiltered result count from
// an unfiltered reference subscription.
func driveWorkload(t *testing.T, tsURL string, raw []rawEvent) {
	t.Helper()
	finalWM := (raw[len(raw)-1].Time/1000)*1000 + 4000
	status, body := postJSON(t, tsURL+"/ingest", ndjson(t, raw))
	if status != http.StatusAccepted {
		t.Fatalf("ingest: status %d: %s", status, body)
	}
	status, body = postJSON(t, tsURL+"/watermark", fmt.Sprintf(`{"watermark":%d}`, finalWM))
	if status != http.StatusAccepted {
		t.Fatalf("watermark: status %d: %s", status, body)
	}
}

// TestStreamFilterOracle is the filter-correctness oracle: for each
// filter form, the filtered subscription's stream must equal the
// client-side filter of the unfiltered stream — same payload bytes,
// same sequence ids, same order. Filters hide frames; they never
// renumber, reorder, or rewrite what remains.
func TestStreamFilterOracle(t *testing.T) {
	raw := randomRaw(3000, 11)
	_, ts := newTestServer(t, Config{Queries: testQueries})
	all := subscribeRawSSE(t, ts.URL, "", nil)
	byQuery := subscribeRawSSE(t, ts.URL, "?query=1", nil)
	byGroup := subscribeRawSSE(t, ts.URL, "?group=3", nil)
	byBoth := subscribeRawSSE(t, ts.URL, "?query=0&query=2&group=3&group=5", nil)
	driveWorkload(t, ts.URL, raw)

	parse := func(t *testing.T, f sseFrame) WireResult {
		t.Helper()
		var r WireResult
		if err := json.Unmarshal([]byte(f.data), &r); err != nil {
			t.Fatalf("bad result frame %q: %v", f.data, err)
		}
		return r
	}
	waitFor(t, "unfiltered results", func() bool { return len(all.results()) > 0 })
	// Quiesce: the unfiltered stream stops growing once the watermark's
	// windows are all pushed.
	var total int
	waitFor(t, "stream quiescent", func() bool {
		n := len(all.results())
		if n != total {
			total = n
			return false
		}
		time.Sleep(50 * time.Millisecond)
		return len(all.results()) == total
	})

	oracle := func(t *testing.T, got *rawSSEClient, keep func(WireResult) bool, what string) {
		t.Helper()
		var want []sseFrame
		for _, f := range all.results() {
			if keep(parse(t, f)) {
				want = append(want, f)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: oracle selected no frames — workload does not exercise the filter", what)
		}
		waitFor(t, what+" catch-up", func() bool { return len(got.results()) >= len(want) })
		gotFrames := got.results()
		if len(gotFrames) != len(want) {
			t.Fatalf("%s: got %d frames, oracle wants %d", what, len(gotFrames), len(want))
		}
		for i := range want {
			if gotFrames[i] != want[i] {
				t.Fatalf("%s: frame %d differs:\n got  id=%d %s\n want id=%d %s",
					what, i, gotFrames[i].id, gotFrames[i].data, want[i].id, want[i].data)
			}
		}
	}
	oracle(t, byQuery, func(r WireResult) bool { return r.Query == 1 }, "query=1")
	oracle(t, byGroup, func(r WireResult) bool { return r.Group == 3 }, "group=3")
	oracle(t, byBoth, func(r WireResult) bool {
		return (r.Query == 0 || r.Query == 2) && (r.Group == 3 || r.Group == 5)
	}, "query=0,2 group=3,5")
}

// wsTestConn is a minimal masked-client WebSocket for tests (the
// production client lives in internal/loadgen, which imports this
// package and therefore can't be used here).
type wsTestConn struct {
	conn net.Conn
	br   *bufio.Reader
	resp *http.Response
}

func dialWSTest(t *testing.T, baseURL, params string, hdr map[string]string) (*wsTestConn, *http.Response) {
	t.Helper()
	u := strings.TrimPrefix(baseURL, "http://")
	conn, err := net.Dial("tcp", u)
	if err != nil {
		t.Fatal(err)
	}
	var req strings.Builder
	req.WriteString("GET /subscribe/ws" + params + " HTTP/1.1\r\n" +
		"Host: " + u + "\r\n" +
		"Connection: Upgrade\r\nUpgrade: websocket\r\n" +
		"Sec-WebSocket-Version: 13\r\nSec-WebSocket-Key: dGVzdGtleTEyMzQ1Njc4OTA=\r\n")
	for k, v := range hdr {
		req.WriteString(k + ": " + v + "\r\n")
	}
	req.WriteString("\r\n")
	if _, err := conn.Write([]byte(req.String())); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		defer conn.Close()
		return nil, resp
	}
	c := &wsTestConn{conn: conn, br: br, resp: resp}
	t.Cleanup(func() { conn.Close() })
	return c, resp
}

// write sends one masked client frame.
func (c *wsTestConn) write(opcode byte, payload []byte) error {
	n := len(payload)
	var hdr []byte
	switch {
	case n < 126:
		hdr = []byte{0x80 | opcode, 0x80 | byte(n)}
	default:
		hdr = []byte{0x80 | opcode, 0x80 | 126, byte(n >> 8), byte(n)}
	}
	mask := [4]byte{0x12, 0x34, 0x56, 0x78}
	buf := append(hdr, mask[:]...)
	for i, b := range payload {
		buf = append(buf, b^mask[i%4])
	}
	_, err := c.conn.Write(buf)
	return err
}

// read returns the next server frame (unmasked).
func (c *wsTestConn) read(t *testing.T) (opcode byte, payload []byte) {
	t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var hdr [2]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		t.Fatalf("ws read: %v", err)
	}
	if hdr[1]&0x80 != 0 {
		t.Fatal("server frame is masked")
	}
	n := int64(hdr[1] & 0x7F)
	switch n {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			t.Fatal(err)
		}
		n = int64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			t.Fatal(err)
		}
		n = int64(binary.BigEndian.Uint64(ext[:]))
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		t.Fatal(err)
	}
	return hdr[0] & 0x0F, payload
}

// nextText returns the next text message, answering pings in between.
func (c *wsTestConn) nextText(t *testing.T) string {
	t.Helper()
	for {
		op, payload := c.read(t)
		switch op {
		case 0x1:
			return string(payload)
		case 0x9:
			if err := c.write(0xA, payload); err != nil {
				t.Fatal(err)
			}
		case 0x8:
			t.Fatalf("unexpected close frame: %x", payload)
		}
	}
}

// TestResumeAcrossTransport pins that the cursor is a property of the
// stream, not the transport: a client that consumed part of the stream
// over SSE can resume from the same seq over WebSocket (and the other
// way round via after=) and receives exactly the remaining frames.
func TestResumeAcrossTransport(t *testing.T) {
	raw := randomRaw(2500, 13)
	_, ts := newTestServer(t, Config{Queries: testQueries})
	all := subscribeRawSSE(t, ts.URL, "", nil)
	driveWorkload(t, ts.URL, raw)
	waitFor(t, "a batch of results", func() bool { return len(all.results()) >= 20 })
	var total int
	waitFor(t, "stream quiescent", func() bool {
		n := len(all.results())
		if n != total {
			total = n
			return false
		}
		time.Sleep(50 * time.Millisecond)
		return len(all.results()) == total
	})
	frames := all.results()
	all.cancel()
	mid := frames[len(frames)/2]

	// Resume over WS with Last-Event-ID where the SSE stream left off.
	conn, resp := dialWSTest(t, ts.URL, "", map[string]string{"Last-Event-ID": strconv.FormatInt(mid.id, 10)})
	if conn == nil {
		t.Fatalf("ws resume refused: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Sharon-Api-Version"); got != apiVersion {
		t.Fatalf("ws 101 Sharon-Api-Version = %q, want %q", got, apiVersion)
	}
	if first := conn.nextText(t); first != `{"event":"subscribed"}` {
		t.Fatalf("ws preamble = %q", first)
	}
	rest := frames[len(frames)/2+1:]
	for i, want := range rest {
		got := conn.nextText(t)
		if got != want.data {
			t.Fatalf("ws resume frame %d:\n got  %s\n want %s", i, got, want.data)
		}
		var r struct {
			Seq int64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(got), &r); err != nil || r.Seq != want.id {
			t.Fatalf("ws resume frame %d seq = %d, want %d", i, r.Seq, want.id)
		}
	}

	// And back: an after= cursor taken from the WS stream resumes over SSE.
	sse := subscribeRawSSE(t, ts.URL, "?after="+strconv.FormatInt(mid.id, 10), nil)
	waitFor(t, "sse resume catch-up", func() bool { return len(sse.results()) >= len(rest) })
	for i, got := range sse.results()[:len(rest)] {
		if got != rest[i] {
			t.Fatalf("sse resume frame %d: got id=%d %s, want id=%d %s",
				i, got.id, got.data, rest[i].id, rest[i].data)
		}
	}
}

// TestWSProtocol pins the hand-rolled RFC 6455 surface: the computed
// Sec-WebSocket-Accept token, ping→pong, client close echo, and the
// plain-HTTP refusals before any upgrade.
func TestWSProtocol(t *testing.T) {
	_, ts := newTestServer(t, Config{Queries: testQueries})
	conn, resp := dialWSTest(t, ts.URL, "", nil)
	if conn == nil {
		t.Fatalf("upgrade refused: %d", resp.StatusCode)
	}
	// RFC 6455 §4.2.2: accept = base64(SHA1(key + magic)).
	if got, want := resp.Header.Get("Sec-Websocket-Accept"), wsAccept("dGVzdGtleTEyMzQ1Njc4OTA="); got != want {
		t.Fatalf("Sec-WebSocket-Accept = %q, want %q", got, want)
	}
	if got := conn.nextText(t); got != `{"event":"subscribed"}` {
		t.Fatalf("preamble = %q", got)
	}
	// Ping → pong with the same payload.
	if err := conn.write(0x9, []byte("marco")); err != nil {
		t.Fatal(err)
	}
	for {
		op, payload := conn.read(t)
		if op == 0xA {
			if string(payload) != "marco" {
				t.Fatalf("pong payload = %q", payload)
			}
			break
		}
	}
	// Client close → echoed close.
	if err := conn.write(0x8, []byte{0x03, 0xE8}); err != nil {
		t.Fatal(err)
	}
	for {
		op, _ := conn.read(t)
		if op == 0x8 {
			break
		}
	}

	// A non-upgrade GET on the WS path is refused as plain HTTP.
	code, body := doReq(t, "GET", ts.URL+"/subscribe/ws", "")
	if code != http.StatusBadRequest {
		t.Fatalf("non-upgrade request: %d %s", code, body)
	}
}

// TestSubscribeHeaders pins the versioning contract: every subscribe
// response carries Sharon-Api-Version, the retired parameter forms are
// refused with a 400 (punctuate= naming its replacement), and an
// aged-out cursor's 410 names the oldest retained seq in
// Sharon-Oldest-Seq.
func TestSubscribeHeaders(t *testing.T) {
	raw := randomRaw(2500, 17)
	_, ts := newTestServer(t, Config{Queries: testQueries})

	modern := subscribeRawSSE(t, ts.URL, "?query=1&type=result&type=wm", nil)
	if got := modern.header.Get("Sharon-Api-Version"); got != apiVersion {
		t.Fatalf("Sharon-Api-Version = %q, want %q", got, apiVersion)
	}

	// Parameter errors. A stale punctuate= (any value: a lane sending
	// punctuate=0 is just as stale) must not subscribe to a stream
	// without marks.
	for _, stale := range []string{"?punctuate=1", "?punctuate=0", "?type=result&punctuate=1"} {
		code, body := doReq(t, "GET", ts.URL+"/subscribe"+stale, "")
		var refusal struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal([]byte(body), &refusal)
		if code != http.StatusBadRequest || !strings.Contains(refusal.Error, "type=result&type=wm&type=adopted") {
			t.Fatalf("%s: %d %s, want a 400 naming the replacement", stale, code, body)
		}
	}
	if code, _ := doReq(t, "GET", ts.URL+"/subscribe?query=q1", ""); code != http.StatusBadRequest {
		t.Fatalf("q-prefixed query id: %d, want 400", code)
	}
	if code, _ := doReq(t, "GET", ts.URL+"/subscribe?type=bogus", ""); code != http.StatusBadRequest {
		t.Fatalf("bad type: %d, want 400", code)
	}
	if code, _ := doReq(t, "GET", ts.URL+"/subscribe?query=99", ""); code != http.StatusNotFound {
		t.Fatalf("unknown query: %d, want 404", code)
	}

	// Age out seq 0 on a server with a tiny retained log (no live
	// subscribers — a retain of 8 overruns any open stream during the
	// burst), then assert the 410 carries the recovery cursor.
	_, ts2 := newTestServer(t, Config{Queries: testQueries, ReplayBuffer: 8})
	driveWorkload(t, ts2.URL, raw)
	// Wait for the closing watermark to apply, not just for the overflow:
	// while the pump still emits, the oldest retained seq keeps moving and
	// the cursor the 410 names can age out before it is used below.
	finalWM := (raw[len(raw)-1].Time/1000)*1000 + 4000
	waitFor(t, "ring overflow and a drained stream", func() bool {
		_, body := doReq(t, "GET", ts2.URL+"/metrics", "")
		var st struct {
			ResultsEmitted int64 `json:"results_emitted"`
			Watermark      int64 `json:"watermark"`
		}
		return json.Unmarshal([]byte(body), &st) == nil && st.ResultsEmitted > 16 && st.Watermark >= finalWM
	})
	req, _ := http.NewRequest("GET", ts2.URL+"/subscribe?after=0", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("aged-out resume: %d, want 410", resp.StatusCode)
	}
	oldest, err := strconv.ParseInt(resp.Header.Get("Sharon-Oldest-Seq"), 10, 64)
	if err != nil || oldest <= 0 {
		t.Fatalf("410 Sharon-Oldest-Seq = %q, want the oldest retained seq", resp.Header.Get("Sharon-Oldest-Seq"))
	}
	// The named cursor must actually work.
	ok := subscribeRawSSE(t, ts2.URL, "?after="+strconv.FormatInt(oldest-1, 10), nil)
	waitFor(t, "recovery-cursor backfill", func() bool { return len(ok.results()) > 0 })
	if first := ok.results()[0].id; first != oldest {
		t.Fatalf("recovery cursor resumed at %d, want %d", first, oldest)
	}
}

// seqConn is a SubConn that checks per-subscriber delivery contiguity
// inline: every burst's frames must carry strictly increasing seq ids
// starting at 0 with no gaps. Terminals and heartbeats are counted.
type seqConn struct {
	next atomic.Int64
	bad  atomic.Int64
	eof  atomic.Bool
}

func (c *seqConn) WriteBurst(bufs [][]byte) error {
	for _, b := range bufs {
		s := string(b)
		if !strings.HasPrefix(s, "id: ") {
			continue // ctl frame
		}
		id, err := strconv.ParseInt(s[4:strings.IndexByte(s, '\n')], 10, 64)
		if err != nil || id != c.next.Load() {
			c.bad.Add(1)
			continue
		}
		c.next.Add(1)
	}
	return nil
}

func (c *seqConn) WriteHeartbeat() error { return nil }
func (c *seqConn) WriteTerminal(reason string) {
	if reason == "" {
		c.eof.Store(true)
	}
}

// TestBroadcastStress10k is the race-clean fan-out stress: 10k live
// subscribers on one hub, every one of them asserting zero seq gaps
// and zero duplicates inline, while the encode-once invariant holds.
// Run with -race this covers the writer pool, cursor walks, and
// shared-frame handoff under real contention.
func TestBroadcastStress10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-subscriber stress skipped in -short")
	}
	const subs, results = 10_000, 64
	h := NewHub(HubOptions{Retain: results + 16})
	conns := make([]*seqConn, subs)
	for i := range conns {
		conns[i] = &seqConn{}
		sub, err := h.Subscribe(SubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sub.Start(conns[i]) {
			t.Fatalf("subscriber %d refused", i)
		}
	}
	payload := []byte(`{"query":0,"win":1000,"group":1,"seq":0,"end":1000,"agg":"COUNT","value":1}`)
	for i := 0; i < results; i++ {
		h.Publish(0, 1, int64(i), payload, 0)
	}
	want := int64(subs) * int64(results)
	waitFor(t, "all deliveries", func() bool { return h.Delivered() >= want })
	if got := h.Encoded(); got != results {
		t.Fatalf("encode-once violated: %d encodes for %d results × %d subscribers", got, results, subs)
	}
	h.Shutdown()
	waitFor(t, "drain", func() bool { return h.Count() == 0 })
	for i, c := range conns {
		if c.bad.Load() != 0 {
			t.Fatalf("subscriber %d saw %d out-of-sequence frames", i, c.bad.Load())
		}
		if c.next.Load() != results {
			t.Fatalf("subscriber %d received %d/%d results", i, c.next.Load(), results)
		}
		if !c.eof.Load() {
			t.Fatalf("subscriber %d ended without a clean eof terminal", i)
		}
	}
	if h.SlowDrops() != 0 || h.FilteredDrops() != 0 {
		t.Fatalf("stress dropped subscribers: slow=%d filtered=%d", h.SlowDrops(), h.FilteredDrops())
	}
}
