package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// FsyncPolicy selects when WAL appends reach stable storage.
//
// kill -9 durability (process death) needs only the write syscall, which
// every policy performs before Append returns; the policies differ in
// what survives machine/power failure. Always costs one fsync per
// record, Interval bounds the loss window to FsyncEvery, Never leaves
// flushing entirely to the OS.
type FsyncPolicy int

const (
	// FsyncInterval syncs at most once per FsyncEvery (default 1s).
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every appended record.
	FsyncAlways
	// FsyncNever never calls fsync; the OS flushes on its own schedule.
	FsyncNever
)

// ParseFsyncPolicy parses the sharond -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "interval", "":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync policy %q (want always, interval, or never)", s)
}

// String renders the policy as its flag value.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return "interval"
}

// WAL record types.
const (
	// RecBatch is an applied ingest step: the late-filtered events plus
	// the effective (clamped) watermark of one pump message.
	RecBatch byte = 1
	// RecCtl is an applied control-plane change (live query
	// registration/removal) with the plan the optimizer chose, so replay
	// reproduces the exact workload evolution without re-optimizing.
	RecCtl byte = 2
	// RecAdopt is an applied cluster hand-off into this worker: the
	// group slice, the delta steps that catch it up, and the alignment
	// watermarks — everything replay needs to re-graft the groups and
	// regenerate the same emissions.
	RecAdopt byte = 3
	// RecExtract is an applied cluster hand-off out of this worker: the
	// exact group keys removed, so replay removes the same groups.
	RecExtract byte = 4
)

// Record is one decoded WAL entry.
type Record struct {
	Seq     int64
	Type    byte
	Payload []byte
}

// WALOptions configures a WAL.
type WALOptions struct {
	// SegmentBytes rotates to a new segment file once the current one
	// reaches this size (default 16 MiB).
	SegmentBytes int64
	// Fsync selects the sync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period (default 1s).
	FsyncEvery time.Duration
}

func (o *WALOptions) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = time.Second
	}
}

// segment is one on-disk WAL file, named wal-<firstSeq>.log.
type segment struct {
	path     string
	firstSeq int64
	size     int64
}

// WAL is an append-only segmented write-ahead log. One goroutine appends
// (sharond's pump); Replay and TruncateThrough run before serving or on
// the same goroutine.
//
// On-disk framing, per record:
//
//	u32 LE body length | u32 LE CRC32-Castagnoli(body) | body
//	body = record type byte | uvarint seq | payload
//
// Sequence numbers increase by one per record across segments; the first
// record of segment file wal-<n>.log has seq n. Opening validates every
// segment; an incomplete or corrupt suffix of the final segment (a torn
// write at the crash point) is detected by the CRC/length check and cut
// off, while corruption before the final tail is a hard error.
type WAL struct {
	dir      string
	opts     WALOptions
	segments []segment
	f        *os.File
	curSize  int64
	nextSeq  int64
	lastSync time.Time

	appended  int64
	synced    int64
	tornBytes int64 // torn tail truncated at open
	dirty     bool  // records written since the last sync
}

const walMaxRecord = 256 << 20 // sanity bound on a frame's body length

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// OpenWAL opens (or creates) the WAL in dir, validating every segment
// and truncating a torn tail on the final one.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: wal dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts, nextSeq: 0}
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	for _, path := range names {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "wal-"), ".log")
		first, err := strconv.ParseInt(base, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("persist: unrecognized wal file %q", path)
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		w.segments = append(w.segments, segment{path: path, firstSeq: first, size: st.Size()})
	}
	sort.Slice(w.segments, func(i, j int) bool { return w.segments[i].firstSeq < w.segments[j].firstSeq })
	for i := range w.segments {
		final := i == len(w.segments)-1
		nextSeq, validSize, err := w.validateSegment(&w.segments[i], final)
		if err != nil {
			return nil, err
		}
		if !final && i+1 < len(w.segments) && nextSeq != w.segments[i+1].firstSeq {
			return nil, fmt.Errorf("persist: wal gap: segment %s ends at seq %d, next starts at %d",
				w.segments[i].path, nextSeq-1, w.segments[i+1].firstSeq)
		}
		if final {
			if validSize < w.segments[i].size {
				w.tornBytes = w.segments[i].size - validSize
				if err := os.Truncate(w.segments[i].path, validSize); err != nil {
					return nil, fmt.Errorf("persist: truncate torn wal tail: %w", err)
				}
				w.segments[i].size = validSize
			}
			w.nextSeq = nextSeq
		}
	}
	if len(w.segments) > 0 {
		last := &w.segments[len(w.segments)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		w.f = f
		w.curSize = last.size
	}
	w.lastSync = time.Now()
	return w, nil
}

// validateSegment scans a segment, returning the seq after its last
// valid record and the byte offset of the valid prefix. In a non-final
// segment every byte must parse (a later segment exists, so a short
// record is corruption, not a torn tail).
func (w *WAL) validateSegment(seg *segment, final bool) (nextSeq int64, validSize int64, err error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return 0, 0, err
	}
	seq := seg.firstSeq
	off := int64(0)
	for {
		rec, n, ferr := parseFrame(data[off:])
		if ferr != nil {
			if final {
				return seq, off, nil // torn tail: cut here
			}
			return 0, 0, fmt.Errorf("persist: wal %s corrupt at offset %d: %v", seg.path, off, ferr)
		}
		if n == 0 {
			return seq, off, nil // clean end
		}
		if rec.Seq != seq {
			if final {
				return seq, off, nil
			}
			return 0, 0, fmt.Errorf("persist: wal %s: record seq %d, want %d", seg.path, rec.Seq, seq)
		}
		seq++
		off += n
	}
}

// parseFrame decodes one record frame from b (the shared CRC frame
// layer plus the WAL's type|seq|payload body). n == 0 with nil error
// means a clean end of input; a non-nil error means the bytes at the
// cursor do not form a complete valid frame.
func parseFrame(b []byte) (Record, int64, error) {
	body, size, err := NextFrame(b, walMaxRecord)
	if err != nil || size == 0 {
		return Record{}, 0, err
	}
	if len(body) < 1 {
		return Record{}, 0, fmt.Errorf("empty body")
	}
	typ := body[0]
	seq, n := binary.Uvarint(body[1:])
	if n <= 0 {
		return Record{}, 0, fmt.Errorf("truncated seq")
	}
	payload := make([]byte, len(body)-1-n)
	copy(payload, body[1+n:])
	return Record{Seq: int64(seq), Type: typ, Payload: payload}, size, nil
}

// NextSeq returns the sequence number the next appended record gets.
func (w *WAL) NextSeq() int64 { return w.nextSeq }

// Append writes one record and returns its sequence number. The write
// syscall completes before Append returns (kill -9 safety); fsync
// follows the configured policy.
func (w *WAL) Append(typ byte, payload []byte) (int64, error) {
	seq := w.nextSeq
	if w.f == nil || w.curSize >= w.opts.SegmentBytes {
		if err := w.rotate(seq); err != nil {
			return 0, err
		}
	}
	body := make([]byte, 0, 1+binary.MaxVarintLen64+len(payload))
	body = append(body, typ)
	body = binary.AppendUvarint(body, uint64(seq))
	body = append(body, payload...)
	frame := AppendFrame(make([]byte, 0, FrameHeaderLen+len(body)), body)
	if _, err := w.f.Write(frame); err != nil {
		return 0, fmt.Errorf("persist: wal append: %w", err)
	}
	w.curSize += int64(len(frame))
	w.segments[len(w.segments)-1].size = w.curSize
	w.nextSeq++
	w.appended++
	w.dirty = true
	switch w.opts.Fsync {
	case FsyncAlways:
		if err := w.f.Sync(); err != nil {
			return 0, err
		}
		w.synced++
		w.dirty = false
	case FsyncInterval:
		if time.Since(w.lastSync) >= w.opts.FsyncEvery {
			if err := w.f.Sync(); err != nil {
				return 0, err
			}
			w.synced++
			w.dirty = false
			w.lastSync = time.Now()
		}
	}
	return seq, nil
}

// rotate closes the current segment and starts wal-<firstSeq>.log.
func (w *WAL) rotate(firstSeq int64) error {
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	path := filepath.Join(w.dir, fmt.Sprintf("wal-%016d.log", firstSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("persist: wal rotate: %w", err)
	}
	w.f = f
	w.curSize = 0
	w.segments = append(w.segments, segment{path: path, firstSeq: firstSeq})
	syncDir(w.dir)
	return nil
}

// Sync forces the current segment to stable storage (checkpoints sync
// before recording their WAL cursor; drain syncs before exit).
func (w *WAL) Sync() error {
	if w.f == nil {
		return nil
	}
	w.synced++
	w.dirty = false
	w.lastSync = time.Now()
	return w.f.Sync()
}

// SyncIfDirty syncs only when records were written since the last sync.
// The server's pump ticks it on the FsyncInterval policy so a stream
// that goes quiet still reaches stable storage within FsyncEvery —
// Append-driven syncing alone would leave the tail in the page cache
// indefinitely.
func (w *WAL) SyncIfDirty() error {
	if !w.dirty {
		return nil
	}
	return w.Sync()
}

// Reset discards every segment and restarts the sequence at nextSeq.
// Recovery calls it when a checkpoint's cursor is at or past the log's
// end — every surviving record is covered by the checkpoint, and
// without the reset, new appends would reuse sequence numbers at or
// below the cursor and be silently skipped by the next recovery (a
// power failure can fsync a checkpoint whose newest WAL records never
// reached the disk).
func (w *WAL) Reset(nextSeq int64) error {
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	for _, seg := range w.segments {
		if err := os.Remove(seg.path); err != nil {
			return err
		}
	}
	w.segments = nil
	w.curSize = 0
	w.nextSeq = nextSeq
	w.dirty = false
	syncDir(w.dir)
	return nil
}

// Close syncs and closes the open segment.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// Replay invokes fn for every record with seq > afterSeq, in order.
func (w *WAL) Replay(afterSeq int64, fn func(Record) error) error {
	for i := range w.segments {
		seg := &w.segments[i]
		if i+1 < len(w.segments) && w.segments[i+1].firstSeq <= afterSeq+1 {
			continue // whole segment at or below the cursor
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		off := int64(0)
		for off < int64(len(data)) {
			rec, n, err := parseFrame(data[off:])
			if err != nil || n == 0 {
				break // validated at Open; anything here is a freshly torn tail
			}
			off += n
			if rec.Seq <= afterSeq {
				continue
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// TruncateThrough removes whole segments all of whose records have seq
// at or below seq (they are covered by a checkpoint). The active segment
// is never removed.
func (w *WAL) TruncateThrough(seq int64) error {
	kept := w.segments[:0]
	for i := range w.segments {
		last := i == len(w.segments)-1
		coveredEnd := w.nextSeq - 1
		if !last {
			coveredEnd = w.segments[i+1].firstSeq - 1
		}
		if !last && coveredEnd <= seq {
			if err := os.Remove(w.segments[i].path); err != nil {
				return err
			}
			continue
		}
		kept = append(kept, w.segments[i])
	}
	w.segments = kept
	syncDir(w.dir)
	return nil
}

// WALStats is the /metrics view of the log.
type WALStats struct {
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	NextSeq  int64 `json:"next_seq"`
	Appended int64 `json:"appended"`
	Syncs    int64 `json:"syncs"`
	// TornBytes is the torn tail cut off the last segment at open.
	TornBytes int64 `json:"torn_bytes"`
}

// Stats snapshots the WAL's counters.
func (w *WAL) Stats() WALStats {
	st := WALStats{Segments: len(w.segments), NextSeq: w.nextSeq, Appended: w.appended, Syncs: w.synced, TornBytes: w.tornBytes}
	for _, s := range w.segments {
		st.Bytes += s.size
	}
	return st
}

// syncDir fsyncs a directory so renames/creates/removes are durable;
// best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
