package server

import (
	"errors"
	"io"
	"net/http"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/persist"
)

// streamIdleTimeout bounds how long a streaming ingest connection may
// sit between frames before the per-frame read deadline cuts it,
// matching the http.Server idle timeout for keep-alive connections.
const streamIdleTimeout = 2 * time.Minute

// handleIngestStream serves POST /ingest/stream: one long-lived
// full-duplex request carrying many binary batch frames, each answered
// by an ack frame, so per-request HTTP overhead amortizes across the
// whole connection. The client writes the 5-byte wire header, a
// type-table frame (interned once — the per-connection dense table
// replaces the per-line map lookups of NDJSON), then batch frames;
// the server answers every batch frame with one ack:
//
//	ok       accepted into the pump queue (carries accepted/dropped counts)
//	busy     queue stayed full past the ack deadline — re-send the frame
//	draining server shutting down or failed (terminal)
//	bad      malformed frame (terminal; nothing partial was applied)
//	oversize frame exceeds MaxBatchBytes (terminal)
//
// Type-table frames are not acked. A clean client close at a frame
// boundary ends the stream; a torn frame never reaches the engine —
// the CRC frame layer rejects it before decoding starts.
func (s *Server) handleIngestStream(w http.ResponseWriter, r *http.Request) {
	if !IsBatchContentType(r.Header.Get("Content-Type")) {
		WriteErr(w, http.StatusUnsupportedMediaType, "stream ingest requires Content-Type %s", BatchContentType)
		return
	}
	if err := readWireHeader(r.Body); err != nil {
		WriteErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		WriteErr(w, http.StatusInternalServerError, "full-duplex streaming unsupported: %v", err)
		return
	}
	conn := s.connID.Add(1)
	log := s.edge.Log.With("conn", conn, "remote", r.RemoteAddr)
	log.Debug("stream ingest open")
	defer log.Debug("stream ingest closed")
	w.Header().Set("Content-Type", BatchContentType)
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		return
	}

	var (
		table   []sharon.Type // local id -> interned type, built per connection
		connBuf []byte        // frame read buffer, reused across frames
		ackBuf  []byte        // ack write buffer, reused across acks
	)
	// writeAck reports whether the ack reached the connection; a false
	// return ends the stream (the client is gone).
	writeAck := func(a WireAck) bool {
		ackBuf = AppendWireAck(ackBuf[:0], a)
		// Deadline errors are deliberately ignored: not every
		// ResponseWriter supports deadlines (httptest recorders), and a
		// failed extension surfaces as a write error next.
		_ = rc.SetWriteDeadline(time.Now().Add(s.edge.cfg.WriteTimeout))
		if _, err := w.Write(ackBuf); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	for {
		_ = rc.SetReadDeadline(time.Now().Add(streamIdleTimeout))
		body, buf, err := persist.ReadFrame(r.Body, s.edge.cfg.MaxBatchBytes, connBuf)
		connBuf = buf
		if err != nil {
			switch {
			case err == io.EOF:
				// Clean end of stream at a frame boundary.
			case errors.Is(err, persist.ErrFrameTooLarge):
				s.edge.rej413.Add(1)
				writeAck(WireAck{Status: WireAckOversize})
			default:
				// Torn or corrupted frame: nothing partial was decoded,
				// nothing reached the engine. The bad ack is best-effort —
				// on a died connection the write just fails.
				writeAck(WireAck{Status: WireAckBad})
			}
			return
		}
		if len(body) == 0 {
			writeAck(WireAck{Status: WireAckBad})
			return
		}
		switch body[0] {
		case wireFrameTypes:
			if table, err = decodeWireTypeTable(body[1:], *s.edge.types.Load(), table); err != nil {
				writeAck(WireAck{Status: WireAckBad})
				return
			}
		case wireFrameBatch:
			if table == nil {
				writeAck(WireAck{Status: WireAckBad})
				return
			}
			if !s.streamBatch(body[1:], table, writeAck) {
				return
			}
		default:
			writeAck(WireAck{Status: WireAckBad})
			return
		}
	}
}

// streamBatch decodes and enqueues one streaming batch frame body and
// writes its ack; it reports whether the stream should continue.
func (s *Server) streamBatch(body []byte, table []sharon.Type, writeAck func(WireAck) bool) bool {
	decodeStart := time.Now()
	b := GetBatch()
	if _, err := decodeWireBatchBody(body, table, b, -1); err != nil {
		PutBatch(b)
		writeAck(WireAck{Status: WireAckBad})
		return false
	}
	s.decodeStream.Record(time.Since(decodeStart).Nanoseconds())
	accepted, unknown := int64(len(b.Events)), b.Unknown
	s.edge.droppedUnknown.Add(unknown)
	if accepted == 0 && b.Watermark < 0 {
		PutBatch(b)
		return writeAck(WireAck{Status: WireAckOK, Unknown: unknown})
	}
	msg := pumpMsg{Batch: *b, Recycle: b}
	deadline := time.Now().Add(s.cfg.streamAckAfter)
	for {
		// Re-stamp per attempt so queue-stage time starts at the admit
		// that actually succeeded, not at the first full-queue refusal.
		msg.AdmitNano = time.Now().UnixNano()
		why := s.edge.tryEnqueue(msg)
		switch {
		case why == admitted:
			return writeAck(WireAck{Status: WireAckOK, Accepted: accepted, Unknown: unknown})
		case why != queueFull:
			// Draining or failed: both end the stream; the client takes
			// its remaining frames elsewhere.
			PutBatch(b)
			writeAck(WireAck{Status: WireAckDraining})
			return false
		case time.Now().After(deadline):
			// The stream's 429-equivalent: drop the batch, tell the
			// client, keep the connection — it may re-send the frame.
			s.edge.rej429.Add(1)
			PutBatch(b)
			return writeAck(WireAck{Status: WireAckBusy})
		}
		time.Sleep(2 * time.Millisecond)
	}
}
