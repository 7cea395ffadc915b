package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/persist"
	"github.com/sharon-project/sharon/internal/server"
)

// newHTTPClient is a client with connections of its own: a run's two
// connections, or a traced run's side subscriptions.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableCompression: true}}
}

// ingester delivers frames to the system under test over one
// connection. send returns once the frame was accepted, after retrying
// refusals (busy acks, 429, 503) with bounded back-off; refused is how
// many refusals that took. The closing watermark goes through the same
// path, so it is retried like any batch.
type ingester interface {
	send(events []sharon.Event, wm int64) (refused int, err error)
	close()
}

// maxRefusals bounds the retries of one frame: with the back-off below
// that is about eight seconds of a full queue before the frame counts
// as failed.
const maxRefusals = 400

// backoff sleeps before retry number n (0-based): 0.5 ms doubling to a
// 20 ms ceiling, the retry cadence loadgen uses once it is reached.
func backoff(n int) {
	d := 500 * time.Microsecond << min(n, 6)
	time.Sleep(min(d, 20*time.Millisecond))
}

// streamIngest is one long-lived binary /ingest/stream connection with
// per-batch acks.
type streamIngest struct {
	pw     *io.PipeWriter
	body   io.ReadCloser
	buf    []byte
	ackBuf []byte
}

func dialStream(client *http.Client, baseURL string, typeNames []string) (*streamIngest, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", baseURL+"/ingest/stream", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", server.BatchContentType)
	type answer struct {
		resp *http.Response
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := client.Do(req)
		answered <- answer{resp, err}
	}()
	// The server reads the wire header from the body before it answers,
	// so the handshake write has to race Do.
	prefix := server.AppendWireTypeTable(server.AppendWireHeader(nil), typeNames)
	if _, err := pw.Write(prefix); err != nil {
		return nil, fmt.Errorf("stream handshake: %w", err)
	}
	select {
	case a := <-answered:
		if a.err != nil {
			pw.Close()
			return nil, fmt.Errorf("stream: %w", a.err)
		}
		if a.resp.StatusCode != http.StatusOK {
			a.resp.Body.Close()
			pw.Close()
			return nil, fmt.Errorf("stream: status %d", a.resp.StatusCode)
		}
		return &streamIngest{pw: pw, body: a.resp.Body}, nil
	case <-time.After(10 * time.Second):
		pw.Close()
		return nil, fmt.Errorf("stream: no response headers")
	}
}

func (s *streamIngest) send(events []sharon.Event, wm int64) (int, error) {
	s.buf = server.AppendWireBatch(s.buf[:0], events, wm)
	for refused := 0; ; refused++ {
		if _, err := s.pw.Write(s.buf); err != nil {
			return refused, fmt.Errorf("stream write: %w", err)
		}
		body, buf, err := persist.ReadFrame(s.body, 1<<20, s.ackBuf)
		s.ackBuf = buf
		if err != nil {
			return refused, fmt.Errorf("stream ack: %w", err)
		}
		ack, err := server.DecodeWireAck(body)
		if err != nil {
			return refused, fmt.Errorf("stream ack: %w", err)
		}
		switch ack.Status {
		case server.WireAckOK:
			return refused, nil
		case server.WireAckBusy:
			if refused == maxRefusals {
				return refused, fmt.Errorf("stream: still busy after %d retries", refused)
			}
			backoff(refused)
		default:
			return refused, fmt.Errorf("stream: terminal ack status %d", ack.Status)
		}
	}
}

func (s *streamIngest) close() {
	s.pw.Close()
	s.body.Close()
}

// postIngest sends each frame as a binary one-shot POST /ingest over one
// kept-alive connection: the cluster router's fastest ingress.
type postIngest struct {
	client *http.Client
	url    string
	prefix []byte
	buf    []byte
}

func newPostIngest(client *http.Client, baseURL string, typeNames []string) *postIngest {
	return &postIngest{
		client: client,
		url:    baseURL + "/ingest",
		prefix: server.AppendWireTypeTable(server.AppendWireHeader(nil), typeNames),
	}
}

// body renders the one-shot request body of a frame.
func (p *postIngest) body(events []sharon.Event, wm int64) []byte {
	p.buf = append(p.buf[:0], p.prefix...)
	p.buf = server.AppendWireBatch(p.buf, events, wm)
	return p.buf
}

func (p *postIngest) send(events []sharon.Event, wm int64) (int, error) {
	body := p.body(events, wm)
	for refused := 0; ; refused++ {
		resp, err := p.client.Post(p.url, server.BatchContentType, bytes.NewReader(body))
		if err != nil {
			return refused, fmt.Errorf("ingest: %w", err)
		}
		// Draining the body lets the transport reuse the connection.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			return refused, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if refused == maxRefusals {
				return refused, fmt.Errorf("ingest: status %d after %d retries", resp.StatusCode, refused)
			}
			backoff(refused)
		default:
			return refused, fmt.Errorf("ingest: status %d", resp.StatusCode)
		}
	}
}

func (p *postIngest) close() { p.client.CloseIdleConnections() }

// subscriber is one SSE /subscribe connection. Its reader goroutine
// checks seq contiguity, hashes every payload line, and stamps the
// arrival of each window's first frame. Arrival times are taken once per
// socket read, when the bytes became available to the client, as
// nanoseconds on the run clock.
type subscriber struct {
	clock  func() int64
	cancel context.CancelFunc
	ready  chan struct{}
	done   chan struct{}

	count  atomic.Int64   // result frames received
	lastAt atomic.Int64   // arrival of the newest result frame
	recv   []atomic.Int64 // by window index: arrival of the first frame (0 = none)

	// Owned by the reader goroutine until done is closed.
	h        hash.Hash
	nextSeq  int64
	gaps     int64
	dups     int64
	strays   int64 // frames for windows outside recv
	terminal string
	err      error
}

// subscribe opens /subscribe and returns once the server confirmed the
// subscription, so no result published afterwards can be missed.
func subscribe(client *http.Client, baseURL string, windows int, clock func() int64) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/subscribe", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	s := &subscriber{
		clock:  clock,
		cancel: cancel,
		ready:  make(chan struct{}),
		done:   make(chan struct{}),
		recv:   make([]atomic.Int64, windows),
		h:      sha256.New(),
	}
	go s.read(resp.Body)
	select {
	case <-s.ready:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("subscribe: stream ended before it was confirmed: %v", s.err)
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, fmt.Errorf("subscribe: never confirmed")
	}
}

// stop ends the subscription and waits for the reader; the digest and
// the seq counters may be read afterwards.
func (s *subscriber) stop() {
	s.cancel()
	<-s.done
}

func (s *subscriber) sum() (out [32]byte) {
	s.h.Sum(out[:0])
	return out
}

func (s *subscriber) read(body io.ReadCloser) {
	defer close(s.done)
	defer body.Close()
	buf := make([]byte, 0, 256<<10)
	inEvent := false // inside a named (control or terminal) SSE event
	confirmed := false
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)] // a line longer than the buffer: grow it
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		now := s.clock()
		buf = buf[:len(buf)+n]
		start := 0
		for {
			i := bytes.IndexByte(buf[start:], '\n')
			if i < 0 {
				break
			}
			line := buf[start : start+i]
			start += i + 1
			switch {
			case len(line) == 0:
				inEvent = false
			case bytes.HasPrefix(line, []byte("id: ")):
				s.seq(line[len("id: "):])
			case bytes.HasPrefix(line, []byte("data: ")):
				if !inEvent {
					s.result(line[len("data: "):], now)
				}
			case bytes.HasPrefix(line, []byte("event: ")):
				inEvent = true
				if name := string(line[len("event: "):]); name == "eof" || name == "dropped" {
					s.terminal = name
				}
			case !confirmed && bytes.Equal(line, []byte(": subscribed")):
				confirmed = true
				close(s.ready)
			}
		}
		buf = buf[:copy(buf, buf[start:])]
		if err != nil {
			if err != io.EOF && !errors.Is(err, context.Canceled) {
				s.err = err
			}
			return
		}
	}
}

// seq checks one frame's sequence number against the dense emission
// order: anything ahead is a gap, anything behind a duplicate.
func (s *subscriber) seq(digits []byte) {
	v, err := strconv.ParseInt(string(digits), 10, 64)
	switch {
	case err != nil:
		s.gaps++
	case v == s.nextSeq:
		s.nextSeq++
	case v > s.nextSeq:
		s.gaps++
		s.nextSeq = v + 1
	default:
		s.dups++
	}
}

var winField = []byte(`"win":`)

// result accounts one result payload that arrived at now.
func (s *subscriber) result(payload []byte, now int64) {
	s.h.Write(payload)
	s.h.Write(newline)
	win := int64(-1)
	if i := bytes.Index(payload, winField); i >= 0 {
		win = 0
		for _, c := range payload[i+len(winField):] {
			if c < '0' || c > '9' {
				break
			}
			win = win*10 + int64(c-'0')
		}
	}
	if win >= 0 && win < int64(len(s.recv)) {
		s.recv[win].CompareAndSwap(0, now)
	} else {
		s.strays++
	}
	s.lastAt.Store(now)
	s.count.Add(1)
}

// await waits until n result frames arrived, or the stream ended, or the
// timeout passed; it reports whether n was reached.
func (s *subscriber) await(n int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.count.Load() < n {
		select {
		case <-s.done:
			return s.count.Load() >= n
		default:
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}
