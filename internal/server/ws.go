package server

import (
	"bufio"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Hand-rolled RFC 6455 WebSocket transport for /subscribe/ws — the
// module is intentionally dependency-free, so the handshake and frame
// codec live here. Only the server side of the protocol the broadcast
// tier needs is implemented: unmasked server→client text frames (which
// is what makes frame bytes shareable across every subscriber — see
// broadcast.go), ping keep-alives, pong/close handling on the client
// side of the conn, no extensions, no subprotocols.

const wsMagic = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// wsAccept computes the Sec-WebSocket-Accept token for a client key.
func wsAccept(key string) string {
	sum := sha1.Sum([]byte(key + wsMagic))
	return base64.StdEncoding.EncodeToString(sum[:])
}

// wsTextFrame renders one unmasked FIN text frame around payload.
func wsTextFrame(payload []byte) []byte {
	return wsFrame(0x1, payload)
}

// wsFrame renders one unmasked FIN frame with the given opcode.
func wsFrame(opcode byte, payload []byte) []byte {
	n := len(payload)
	var hdr []byte
	switch {
	case n < 126:
		hdr = []byte{0x80 | opcode, byte(n)}
	case n < 1<<16:
		hdr = []byte{0x80 | opcode, 126, byte(n >> 8), byte(n)}
	default:
		hdr = make([]byte, 10)
		hdr[0], hdr[1] = 0x80|opcode, 127
		binary.BigEndian.PutUint64(hdr[2:], uint64(n))
	}
	out := make([]byte, 0, len(hdr)+n)
	out = append(out, hdr...)
	return append(out, payload...)
}

// wsCloseFrame renders a close frame with the given status code.
func wsCloseFrame(code uint16) []byte {
	return wsFrame(0x8, []byte{byte(code >> 8), byte(code)})
}

// upgradeWS validates the handshake, hijacks the connection, and writes
// the 101 response (including any headers staged on w before the call —
// the API-version and deprecation headers ride along). The caller owns
// the returned conn.
func upgradeWS(w http.ResponseWriter, r *http.Request) (net.Conn, *bufio.Reader, error) {
	if !headerHasToken(r.Header, "Connection", "upgrade") ||
		!strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		WriteErr(w, http.StatusBadRequest, "websocket upgrade required")
		return nil, nil, fmt.Errorf("not an upgrade request")
	}
	if r.Header.Get("Sec-WebSocket-Version") != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		WriteErr(w, http.StatusUpgradeRequired, "unsupported websocket version")
		return nil, nil, fmt.Errorf("bad ws version")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		WriteErr(w, http.StatusBadRequest, "missing Sec-WebSocket-Key")
		return nil, nil, fmt.Errorf("missing ws key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		WriteErr(w, http.StatusInternalServerError, "websocket unsupported")
		return nil, nil, fmt.Errorf("no hijacker")
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return nil, nil, err
	}
	var resp strings.Builder
	resp.WriteString("HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\nConnection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsAccept(key) + "\r\n")
	for k, vs := range w.Header() {
		for _, v := range vs {
			resp.WriteString(k + ": " + v + "\r\n")
		}
	}
	resp.WriteString("\r\n")
	if _, err := brw.WriteString(resp.String()); err != nil {
		conn.Close()
		return nil, nil, err
	}
	if err := brw.Flush(); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, brw.Reader, nil
}

func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// wsSubConn adapts a hijacked WebSocket connection to the broadcast
// pool's SubConn. The internal mutex serializes the pool's bursts
// against pong replies from the read loop (the only two writers).
type wsSubConn struct {
	conn    net.Conn
	mu      sync.Mutex
	timeout time.Duration
}

var wsPing = wsFrame(0x9, []byte("hb"))

func (c *wsSubConn) WriteBurst(bufs [][]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeout > 0 {
		//sharon:allow lockio (c.mu exists to serialize socket writes; deadline set first bounds the hold)
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	b := net.Buffers(bufs)
	//sharon:allow lockio (c.mu exists to serialize socket writes; the write deadline above bounds the hold)
	_, err := b.WriteTo(c.conn)
	return err
}

func (c *wsSubConn) WriteHeartbeat() error {
	return c.WriteBurst([][]byte{wsPing})
}

func (c *wsSubConn) WriteTerminal(reason string) {
	var msg []byte
	if reason == "" {
		msg = wsTextFrame([]byte(`{"event":"eof"}`))
	} else {
		msg = wsTextFrame([]byte(`{"event":"dropped","reason":"` + reason + `"}`))
	}
	_ = c.WriteBurst([][]byte{msg, wsCloseFrame(1000)})
}

func (c *wsSubConn) writePong(payload []byte) error {
	return c.WriteBurst([][]byte{wsFrame(0xA, payload)})
}

// wsReadLoop consumes client frames: pings get pongs, a close frame is
// echoed, data frames are discarded (the subscription stream is one
// way). Returns on close or any read error — the caller unsubscribes.
func wsReadLoop(br *bufio.Reader, c *wsSubConn) {
	for {
		opcode, payload, err := wsReadFrame(br)
		if err != nil {
			return
		}
		switch opcode {
		case 0x8: // close: echo and finish
			c.mu.Lock()
			//sharon:allow lockio (c.mu exists to serialize socket writes; 1s deadline bounds the hold)
			_ = c.conn.SetWriteDeadline(time.Now().Add(time.Second))
			//sharon:allow lockio (c.mu exists to serialize socket writes; the write deadline above bounds the hold)
			_, _ = c.conn.Write(wsCloseFrame(1000))
			c.mu.Unlock()
			return
		case 0x9:
			if c.writePong(payload) != nil {
				return
			}
		}
	}
}

// wsReadFrame reads one client frame. Client frames must be masked per
// RFC 6455 §5.1; control payloads are capped at 125 bytes by §5.5 and
// data payloads (which this server discards) at a defensive 1 MiB.
func wsReadFrame(br *bufio.Reader) (opcode byte, payload []byte, err error) {
	var hdr [2]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	opcode = hdr[0] & 0x0F
	masked := hdr[1]&0x80 != 0
	n := int64(hdr[1] & 0x7F)
	switch n {
	case 126:
		var ext [2]byte
		if _, err = io.ReadFull(br, ext[:]); err != nil {
			return 0, nil, err
		}
		n = int64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err = io.ReadFull(br, ext[:]); err != nil {
			return 0, nil, err
		}
		n = int64(binary.BigEndian.Uint64(ext[:]))
	}
	if !masked {
		return 0, nil, fmt.Errorf("unmasked client frame")
	}
	if n > 1<<20 {
		return 0, nil, fmt.Errorf("oversized client frame (%d bytes)", n)
	}
	var mask [4]byte
	if _, err = io.ReadFull(br, mask[:]); err != nil {
		return 0, nil, err
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(br, payload); err != nil {
		return 0, nil, err
	}
	for i := range payload {
		payload[i] ^= mask[i%4]
	}
	return opcode, payload, nil
}
