package server

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/sharon-project/sharon/internal/persist"
)

// ReplayRing retains the last N emissions (seq-contiguous by
// construction) so recovery can reseed the broadcast log across a
// restart. The sink appends from the pump or merge goroutine; the
// checkpointer reads snapshots. Trimming advances a head index and
// compacts the backing array only when half of it is dead, so append
// stays amortized O(1) on the emission path (which PR 2 engineered to
// zero per-event work) instead of copying the whole ring once full.
// Both sharond and the cluster router retain their output streams in
// one. Live ?after=N resume is served by the broadcast log (hub.go),
// which carries the same seq discipline plus the pre-rendered frames.
type ReplayRing struct {
	mu   sync.Mutex
	buf  []persist.RingEntry
	head int // index of the oldest retained entry in buf
	max  int
	next int64 // seq after the last appended entry
}

// NewReplayRing returns a ring retaining at most max entries.
func NewReplayRing(max int) *ReplayRing {
	return &ReplayRing{max: max}
}

// Append retains one emission; seq must be the ring's next (the sink's
// global sequence is contiguous). Pure in-memory bookkeeping under the
// ring's own mutex; safe to call with caller locks held.
//
//sharon:locksafe
//sharon:deterministic
func (r *ReplayRing) Append(seq int64, payload []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = append(r.buf, persist.RingEntry{Seq: seq, Payload: payload})
	r.next = seq + 1
	for len(r.buf)-r.head > r.max {
		r.buf[r.head] = persist.RingEntry{} // release the payload
		r.head++
	}
	if r.head > 64 && r.head*2 >= len(r.buf) {
		n := copy(r.buf, r.buf[r.head:])
		clear(r.buf[n:])
		r.buf = r.buf[:n]
		r.head = 0
	}
}

// Load seeds the ring from a checkpoint, trimmed to this instance's
// bound (a restart may lower -replay-buffer below what the checkpoint
// retained).
func (r *ReplayRing) Load(entries []persist.RingEntry, nextSeq int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if over := len(entries) - r.max; over > 0 {
		entries = entries[over:]
	}
	r.buf = append([]persist.RingEntry(nil), entries...)
	r.head = 0
	r.next = nextSeq
}

// Snapshot copies the retained entries (checkpointing).
func (r *ReplayRing) Snapshot() []persist.RingEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]persist.RingEntry(nil), r.buf[r.head:]...)
}

// Since returns the retained entries with Seq > after, plus the first
// sequence number actually available. gap is true when a concrete
// cursor cannot be served exactly: emissions in (after, first) have
// aged out of the ring, or after refers to emissions that never
// happened (a client resuming against a server whose sequence
// restarted — serving it would silently skip everything up to the
// phantom cursor). after = -1 is the documented "everything retained"
// request and never gaps; the client's own contiguity check flags a
// trimmed head.
func (r *ReplayRing) Since(after int64) (entries []persist.RingEntry, gap bool, first int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	live := r.buf[r.head:]
	first = r.next - int64(len(live))
	if after >= 0 && ((after+1 < first && r.next > after+1) || after >= r.next) {
		gap = true
	}
	for _, e := range live {
		if e.Seq > after {
			entries = append(entries, e)
		}
	}
	return entries, gap, first
}

// apiVersion is the streaming-contract version stamped on every
// /subscribe response (both transports). Bump on incompatible frame or
// parameter changes.
const apiVersion = "1"

// StreamOptions parameterize one subscription endpoint: the broadcast
// hub that feeds it and the serving instance's query registry. sharond's
// /subscribe and the cluster router's merged /subscribe are the same
// handlers over different hubs; delivery limits (buffering, heartbeats,
// write deadlines) live on the hub itself.
type StreamOptions struct {
	Hub *Hub
	// QueryKnown validates a query=ID filter; nil rejects filtering.
	QueryKnown func(id int) bool
	// Watermark supplies the current stream watermark for the initial
	// punctuation frame of a watermark-subscribed stream.
	Watermark func() int64
}

// subRequest is one parsed subscription: the filter and the resume
// cursor.
type subRequest struct {
	filter SubFilter
	resume bool
	after  int64
}

// parseSubscribe parses the unified subscription surface shared by
// GET /subscribe (SSE) and GET /subscribe/ws (WebSocket):
//
//   - query=ID (repeatable) filters to those query IDs;
//   - group=K (repeatable) filters to those group keys;
//   - type=result|wm|adopted (repeatable) selects frame kinds
//     (default: results only);
//   - after=N and the Last-Event-ID header resume from seq N
//     (header wins; -1 replays everything retained).
//
// Errors are written to w; ok is false then. The retired punctuate=
// form is refused by name rather than ignored: a subscriber that asked
// for watermark marks and silently got none would wait forever on a
// frontier that never advances.
func parseSubscribe(w http.ResponseWriter, r *http.Request, o StreamOptions) (sr subRequest, ok bool) {
	q := r.URL.Query()
	sr.after = -1
	if q.Has("punctuate") {
		WriteErr(w, http.StatusBadRequest, "punctuate= is no longer accepted; subscribe with type=result&type=wm&type=adopted")
		return sr, false
	}
	for _, raw := range q["query"] {
		id, err := strconv.Atoi(raw)
		if err != nil {
			WriteErr(w, http.StatusBadRequest, "bad query id %q", raw)
			return sr, false
		}
		if o.QueryKnown == nil || !o.QueryKnown(id) {
			WriteErr(w, http.StatusNotFound, "no query %d", id)
			return sr, false
		}
		sr.filter.Queries = append(sr.filter.Queries, id)
	}
	for _, raw := range q["group"] {
		g, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			WriteErr(w, http.StatusBadRequest, "bad group key %q", raw)
			return sr, false
		}
		sr.filter.Groups = append(sr.filter.Groups, g)
	}
	for _, raw := range q["type"] {
		switch raw {
		case "result":
			sr.filter.Kinds |= KindResult
		case "wm":
			sr.filter.Kinds |= KindWM
		case "adopted":
			sr.filter.Kinds |= KindAdopted
		default:
			WriteErr(w, http.StatusBadRequest, "bad type %q (want result, wm, or adopted)", raw)
			return sr, false
		}
	}
	// Resume: the Last-Event-ID header (what an SSE client reconnects
	// with automatically) wins over the explicit after= form.
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		v, err := strconv.ParseInt(lei, 10, 64)
		if err != nil || v < -1 {
			WriteErr(w, http.StatusBadRequest, "bad Last-Event-ID %q", lei)
			return sr, false
		}
		sr.after, sr.resume = v, true
	} else if as := q.Get("after"); as != "" {
		v, err := strconv.ParseInt(as, 10, 64)
		if err != nil || v < -1 {
			WriteErr(w, http.StatusBadRequest, "bad after %q", as)
			return sr, false
		}
		sr.after, sr.resume = v, true
	}
	w.Header().Set("Sharon-Api-Version", apiVersion)
	return sr, true
}

// subscribe attaches to the hub for one parsed request, mapping the
// errors onto the transport-shared status semantics: 410 +
// Sharon-Oldest-Seq for an aged-out cursor, 503 while draining.
func subscribe(w http.ResponseWriter, o StreamOptions, sr subRequest, ws bool) (*Sub, bool) {
	// Capture the stream position BEFORE subscribing: every result the
	// initial watermark covers was published before the subscription
	// existed, so it is in the backfill. A live read after subscribing
	// could time-travel past results between the attach and the read and
	// let a router lane advance its frontier over undelivered rows.
	initWM, haveInitWM := int64(0), false
	if sr.filter.Kinds&KindWM != 0 && o.Watermark != nil {
		initWM, haveInitWM = o.Watermark(), true
	}
	sub, err := o.Hub.Subscribe(SubOptions{
		Filter:     sr.filter,
		Resume:     sr.resume,
		After:      sr.after,
		WS:         ws,
		SendInitWM: haveInitWM,
		InitWM:     initWM,
	})
	if err != nil {
		if gap, ok := err.(*GapError); ok {
			w.Header().Set("Sharon-Oldest-Seq", strconv.FormatInt(gap.Oldest, 10))
			WriteErr(w, http.StatusGone, "%s; resubscribe from scratch or after=%d", gap.Error(), gap.Oldest-1)
			return nil, false
		}
		WriteErr(w, http.StatusServiceUnavailable, "draining")
		return nil, false
	}
	return sub, true
}

// sseConn adapts an http.ResponseWriter to the broadcast pool's
// SubConn. Frames are staged into the ResponseWriter's buffer and
// flushed once per delivery burst, not per frame: a flush is a
// chunked-write syscall, and the pool hands runs of queued frames at a
// time, so the subscription's syscall count stays proportional to
// bursts, not frames.
type sseConn struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	timeout time.Duration
}

func (c *sseConn) WriteBurst(bufs [][]byte) error {
	if c.timeout > 0 {
		_ = c.rc.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	for _, b := range bufs {
		if _, err := c.w.Write(b); err != nil {
			return err
		}
	}
	return c.rc.Flush()
}

func (c *sseConn) WriteHeartbeat() error {
	return c.WriteBurst([][]byte{[]byte(": hb\n\n")})
}

func (c *sseConn) WriteTerminal(reason string) {
	var frame []byte
	if reason == "" {
		frame = []byte("event: eof\ndata: {}\n\n")
	} else {
		frame = []byte("event: dropped\ndata: {\"reason\":\"" + reason + "\"}\n\n")
	}
	_ = c.WriteBurst([][]byte{frame})
}

// ServeStream handles one SSE subscription end to end: the unified
// parameter surface (parseSubscribe), gap refusal before any 200, then
// live delivery off the broadcast log — backfill, initial watermark,
// shared pre-rendered frames, heartbeats, and an explicit terminal
// frame (`eof`, or `dropped` with a reason) on every server-initiated
// close. With ctl kinds subscribed the stream additionally carries
// `event: wm` watermark punctuation after every applied step ("every
// result for windows ending at or before W has been sent") and
// `event: adopted` rebalance markers — which the cluster router's merge
// frontier is built on.
func ServeStream(w http.ResponseWriter, r *http.Request, o StreamOptions) {
	if _, ok := w.(http.Flusher); !ok {
		WriteErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sr, ok := parseSubscribe(w, r, o)
	if !ok {
		return
	}
	sub, ok := subscribe(w, o, sr, false)
	if !ok {
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	conn := &sseConn{w: w, rc: http.NewResponseController(w), timeout: o.Hub.writeTimeout}
	if conn.WriteBurst([][]byte{[]byte(": subscribed\n\n")}) != nil {
		o.Hub.Unsubscribe(sub)
		return
	}
	if !sub.Start(conn) { // hub drained between attach and start
		conn.WriteTerminal("")
		return
	}
	select {
	case <-sub.Done():
		// Pool-terminated (drain eof, drop, or write error): the
		// terminal frame, if any, was written before Done closed.
	case <-r.Context().Done():
		o.Hub.Unsubscribe(sub)
	}
}

// ServeStreamWS handles one WebSocket subscription: the same parameter
// surface, filters, resume forms, and status semantics as ServeStream,
// with frames delivered as text messages (results are the bare result
// JSON; ctl and terminal frames carry an "event" discriminator field)
// and heartbeats as pings. Refusals (400/404/410/503) happen before the
// upgrade, as plain HTTP responses.
func ServeStreamWS(w http.ResponseWriter, r *http.Request, o StreamOptions) {
	sr, ok := parseSubscribe(w, r, o)
	if !ok {
		return
	}
	sub, ok := subscribe(w, o, sr, true)
	if !ok {
		return
	}
	conn, br, err := upgradeWS(w, r)
	if err != nil {
		o.Hub.Unsubscribe(sub)
		return
	}
	defer conn.Close()
	wsc := &wsSubConn{conn: conn, timeout: o.Hub.writeTimeout}
	if wsc.WriteBurst([][]byte{wsTextFrame([]byte(`{"event":"subscribed"}`))}) != nil {
		o.Hub.Unsubscribe(sub)
		return
	}
	if !sub.Start(wsc) {
		wsc.WriteTerminal("")
		return
	}
	closed := make(chan struct{})
	go func() {
		wsReadLoop(br, wsc)
		close(closed)
	}()
	select {
	case <-sub.Done():
	case <-closed: // client closed or the connection broke
		o.Hub.Unsubscribe(sub)
	case <-r.Context().Done():
		o.Hub.Unsubscribe(sub)
	}
}
