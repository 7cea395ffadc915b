package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/exec"
)

// CheckpointVersion is the checkpoint file format version.
const CheckpointVersion = 1

// checkpointMagic heads every checkpoint file.
var checkpointMagic = []byte("SHRNCKP1")

// QueryEntry is one registered query in a checkpoint: its stable ID and
// source text (recompiled on load against the recorded registry).
type QueryEntry struct {
	ID   int
	Text string
}

// RingEntry is one retained emission: the global sequence number and the
// encoded wire payload, exactly as it was pushed to subscribers.
type RingEntry struct {
	Seq     int64
	Payload []byte
}

// Checkpoint is a consistent cut of a sharond server: everything needed
// to rebuild the serving state at WAL position WALSeq. Replaying WAL
// records with seq > WALSeq on top of State reproduces the uninterrupted
// run — emission sequence numbers included, which is the resumption
// cursor that keeps a resumed subscription gap- and duplicate-free.
type Checkpoint struct {
	// CreatedUnixNano stamps the checkpoint (informational).
	CreatedUnixNano int64
	// WALSeq is the sequence number of the last WAL record applied
	// before State was captured (-1 when none).
	WALSeq int64
	// Watermark is the stream watermark at the cut.
	Watermark int64
	// NextEmitSeq is the next global emission sequence number.
	NextEmitSeq int64
	// Emitted/EventsIngested/Batches carry the serving counters across
	// restarts (metrics continuity).
	Emitted        int64
	EventsIngested int64
	Batches        int64
	// NextQueryID numbers the next live-registered query.
	NextQueryID int
	// Parallelism is the engine worker count the snapshot was taken
	// under; restore requires the same setting.
	Parallelism int
	// Dynamic records whether the engine runs with sharon.Options.Dynamic.
	Dynamic bool
	// RegistryNames are the interned type names in interning order; the
	// WAL encodes events by interned Type, so the order is load-bearing.
	RegistryNames []string
	// Queries are the registered queries (including live-registered
	// ones) in workload order.
	Queries []QueryEntry
	// Plan is the sharing plan in effect for uniform non-dynamic
	// workloads (dynamic systems carry their plan inside State; nil for
	// partitioned workloads, which re-plan deterministically per segment).
	Plan core.Plan
	// TypeCounts/CountFrom are the server's measured-rate accumulators.
	TypeCounts map[event.Type]float64
	CountFrom  int64
	// Ring is the bounded tail of recent emissions (seq ascending) that
	// reconnecting subscribers replay from.
	Ring []RingEntry
	// State is the engine snapshot.
	State *exec.SystemSnapshot
}

// Encode renders the checkpoint body (excluding the file framing).
func (c *Checkpoint) Encode() ([]byte, error) {
	e := &Encoder{}
	e.Uvarint(CheckpointVersion)
	e.Varint(c.CreatedUnixNano)
	e.Varint(c.WALSeq)
	e.Varint(c.Watermark)
	e.Varint(c.NextEmitSeq)
	e.Varint(c.Emitted)
	e.Varint(c.EventsIngested)
	e.Varint(c.Batches)
	e.Varint(int64(c.NextQueryID))
	e.Varint(int64(c.Parallelism))
	e.Bool(c.Dynamic)
	e.Uvarint(uint64(len(c.RegistryNames)))
	for _, n := range c.RegistryNames {
		e.String(n)
	}
	e.Uvarint(uint64(len(c.Queries)))
	for _, q := range c.Queries {
		e.Varint(int64(q.ID))
		e.String(q.Text)
	}
	EncodePlan(e, c.Plan)
	encodeCounts(e, c.TypeCounts)
	e.Varint(c.CountFrom)
	e.Uvarint(uint64(len(c.Ring)))
	for _, r := range c.Ring {
		e.Varint(r.Seq)
		e.Blob(r.Payload)
	}
	e.Bool(c.State != nil)
	if c.State != nil {
		if err := EncodeSystemSnapshot(e, c.State); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// DecodeCheckpoint parses a checkpoint body.
func DecodeCheckpoint(body []byte) (*Checkpoint, error) {
	d := NewDecoder(body)
	if v := d.Uvarint(); v != CheckpointVersion {
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, fmt.Errorf("persist: checkpoint version %d, this build reads %d", v, CheckpointVersion)
	}
	c := &Checkpoint{
		CreatedUnixNano: d.Varint(),
		WALSeq:          d.Varint(),
		Watermark:       d.Varint(),
		NextEmitSeq:     d.Varint(),
		Emitted:         d.Varint(),
		EventsIngested:  d.Varint(),
		Batches:         d.Varint(),
		NextQueryID:     int(d.Varint()),
		Parallelism:     int(d.Varint()),
		Dynamic:         d.Bool(),
	}
	nn := d.Len()
	for i := 0; i < nn && d.Err() == nil; i++ {
		c.RegistryNames = append(c.RegistryNames, d.String())
	}
	nq := d.Len()
	for i := 0; i < nq && d.Err() == nil; i++ {
		c.Queries = append(c.Queries, QueryEntry{ID: int(d.Varint()), Text: d.String()})
	}
	c.Plan = DecodePlan(d)
	c.TypeCounts = decodeCounts(d)
	c.CountFrom = d.Varint()
	nr := d.Len()
	for i := 0; i < nr && d.Err() == nil; i++ {
		c.Ring = append(c.Ring, RingEntry{Seq: d.Varint(), Payload: d.Blob()})
	}
	if d.Bool() && d.Err() == nil {
		st, err := DecodeSystemSnapshot(d)
		if err != nil {
			return nil, err
		}
		c.State = st
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return c, nil
}

// checkpointName renders the file name for a checkpoint at WAL position
// seq; names sort in WAL order.
func checkpointName(walSeq int64) string {
	return fmt.Sprintf("checkpoint-%016d.ckpt", walSeq+1)
}

// WriteCheckpoint atomically writes c into dir (temp file, fsync,
// rename, directory sync) and prunes all but the two newest checkpoint
// files. It returns the written path and the encoded body size.
func WriteCheckpoint(dir string, c *Checkpoint) (string, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	body, err := c.Encode()
	if err != nil {
		return "", 0, err
	}
	frame := make([]byte, 0, len(checkpointMagic)+16+len(body))
	frame = append(frame, checkpointMagic...)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(body, walCRC))
	frame = append(frame, body...)

	path := filepath.Join(dir, checkpointName(c.WALSeq))
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return "", 0, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(frame); err != nil {
		tmp.Close()
		return "", 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", 0, err
	}
	if err := tmp.Close(); err != nil {
		return "", 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", 0, err
	}
	syncDir(dir)
	pruneCheckpoints(dir, 2)
	return path, int64(len(body)), nil
}

// listCheckpoints returns checkpoint paths sorted newest-first.
func listCheckpoints(dir string) []string {
	names, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names
}

// pruneCheckpoints removes all but the keep newest checkpoint files.
func pruneCheckpoints(dir string, keep int) {
	names := listCheckpoints(dir)
	for i := keep; i < len(names); i++ {
		_ = os.Remove(names[i])
	}
}

// ReadCheckpoint loads and validates one checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	hdr := len(checkpointMagic) + 12
	if len(data) < hdr || string(data[:len(checkpointMagic)]) != string(checkpointMagic) {
		return nil, fmt.Errorf("persist: %s: not a checkpoint file", path)
	}
	bodyLen := binary.LittleEndian.Uint64(data[len(checkpointMagic):])
	crc := binary.LittleEndian.Uint32(data[len(checkpointMagic)+8:])
	if uint64(len(data)-hdr) < bodyLen {
		return nil, fmt.Errorf("persist: %s: truncated (%d of %d body bytes)", path, len(data)-hdr, bodyLen)
	}
	body := data[hdr : hdr+int(bodyLen)]
	if crc32.Checksum(body, walCRC) != crc {
		return nil, fmt.Errorf("persist: %s: crc mismatch", path)
	}
	c, err := DecodeCheckpoint(body)
	if err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	return c, nil
}

// LoadLatestCheckpoint returns the newest checkpoint in dir that loads
// and validates cleanly, skipping damaged ones (a crash mid-write leaves
// only a temp file, but defense in depth costs little), or nil when none
// exists. Skipped checkpoints are logged to log (nil discards).
func LoadLatestCheckpoint(dir string, log *slog.Logger) (*Checkpoint, error) {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	var firstErr error
	for _, path := range listCheckpoints(dir) {
		c, err := ReadCheckpoint(path)
		if err != nil {
			log.Warn("checkpoint unreadable, trying older", "file", filepath.Base(path), "err", err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return c, nil
	}
	if firstErr != nil {
		return nil, fmt.Errorf("persist: no valid checkpoint in %s: %w", dir, firstErr)
	}
	return nil, nil
}

// CheckpointSeqFromName parses the WAL position out of a checkpoint file
// name (used by tooling/tests).
func CheckpointSeqFromName(path string) (int64, bool) {
	base := filepath.Base(path)
	if !strings.HasPrefix(base, "checkpoint-") || !strings.HasSuffix(base, ".ckpt") {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(base, "checkpoint-"), ".ckpt"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n - 1, true
}
