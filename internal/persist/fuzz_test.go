package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/exec"
	"github.com/sharon-project/sharon/internal/query"
)

// buildEngineState feeds a parameterized pseudo-random stream into a
// shared-plan engine and returns its snapshot plus the inputs needed to
// rebuild an equivalent engine.
func buildEngineState(tb testing.TB, events int, groups int, cut byte) (*exec.SystemSnapshot, query.Workload, core.Plan) {
	tb.Helper()
	reg := event.NewRegistry()
	w := query.Workload{
		query.MustParse("RETURN COUNT(*) PATTERN SEQ(A, B, C, D) WHERE [k] WITHIN 4s SLIDE 1s", reg),
		query.MustParse("RETURN SUM(D.val) PATTERN SEQ(C, D) WHERE [k] WITHIN 4s SLIDE 1s", reg),
		query.MustParse("RETURN COUNT(*) PATTERN SEQ(A, B) WHERE [k] WITHIN 4s SLIDE 1s", reg),
	}
	w.Renumber()
	types := []event.Type{reg.Lookup("A"), reg.Lookup("B"), reg.Lookup("C"), reg.Lookup("D")}
	pat := query.Pattern{reg.Lookup("C"), reg.Lookup("D")}
	plan := core.Plan{core.NewCandidate(pat, []int{0, 1})}
	en, err := exec.NewEngine(w, plan, exec.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if groups < 1 {
		groups = 1
	}
	// An xorshift stream parameterized by the fuzz byte: irregular times,
	// type/group mixes, so snapshots carry rings, live STARTs, and stage
	// entries in varied shapes.
	x := uint64(cut)*2654435761 + 1
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	t := int64(0)
	for i := 0; i < events; i++ {
		t += 1 + int64(next()%5)
		e := event.Event{
			Time: t,
			Type: types[next()%uint64(len(types))],
			Key:  event.GroupKey(next() % uint64(groups)),
			Val:  float64(next()%13) + 0.5,
		}
		if err := en.Process(e); err != nil {
			tb.Fatal(err)
		}
	}
	snap, _ := en.Snapshot() // sequential snapshots cannot fail
	return snap, w, plan
}

func encodeSnap(tb testing.TB, s *exec.SystemSnapshot) []byte {
	tb.Helper()
	e := &Encoder{}
	if err := EncodeSystemSnapshot(e, s); err != nil {
		tb.Fatal(err)
	}
	return e.Bytes()
}

// FuzzCheckpointRoundTrip is the durability core contract:
// decode(encode(state)) is bit-exact (re-encoding the decoded snapshot
// reproduces the same bytes), restoring the decoded snapshot into a
// fresh engine reproduces the same snapshot again, and corrupted or
// truncated checkpoint bodies are detected — never silently half-loaded.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(200, 3, byte(1), -1)
	f.Add(1000, 7, byte(42), 100)
	f.Add(50, 1, byte(0), 5)
	f.Fuzz(func(t *testing.T, events, groups int, seed byte, corruptAt int) {
		if events < 0 || events > 3000 || groups < 1 || groups > 32 {
			t.Skip()
		}
		snap, w, plan := buildEngineState(t, events, groups, seed)
		raw := encodeSnap(t, snap)

		// Bit-exact decode/encode round trip.
		dec, err := DecodeSystemSnapshot(NewDecoder(raw))
		if err != nil {
			t.Fatalf("decode valid snapshot: %v", err)
		}
		if got := encodeSnap(t, dec); !bytes.Equal(got, raw) {
			t.Fatalf("re-encode differs: %d vs %d bytes", len(got), len(raw))
		}

		// Restoring the decoded state reproduces the same snapshot.
		en2, err := exec.NewEngine(w, plan, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := en2.Restore(dec); err != nil {
			t.Fatalf("restore decoded snapshot: %v", err)
		}
		again, _ := en2.Snapshot()
		if got := encodeSnap(t, again); !bytes.Equal(got, raw) {
			t.Fatal("snapshot after restore differs from original")
		}

		// Damaged input must error, not half-load: truncations always;
		// a flipped byte is caught by the full checkpoint file framing's
		// CRC (exercised below via WriteCheckpoint/ReadCheckpoint).
		if corruptAt >= 0 && corruptAt < len(raw) {
			if _, err := DecodeSystemSnapshot(NewDecoder(raw[:corruptAt])); err == nil && corruptAt < len(raw) {
				t.Fatalf("truncation at %d of %d decoded cleanly", corruptAt, len(raw))
			}
			dir := t.TempDir()
			ck := &Checkpoint{WALSeq: 7, Watermark: 1234, NextEmitSeq: 9, State: snap,
				RegistryNames:   []string{"A", "B", "C", "D"},
				Queries:         []QueryEntry{{ID: 0, Text: "q0"}},
				CreatedUnixNano: time.Now().UnixNano()}
			path, _, err := WriteCheckpoint(dir, ck)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			at := len(checkpointMagic) + 12 + corruptAt
			if at < len(data) {
				data[at] ^= 0x20
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := ReadCheckpoint(path); err == nil {
					t.Fatalf("flipped byte at body offset %d read cleanly", corruptAt)
				}
			}
		}
	})
}

// FuzzWALTail drives arbitrary damage into a WAL's final segment: Open
// must always succeed, replay must yield an exact prefix of the appended
// records, and the repaired log must accept appends.
func FuzzWALTail(f *testing.F) {
	f.Add(10, 100, byte(0x40))
	f.Add(3, 5, byte(0xFF))
	f.Add(25, 0, byte(0x01))
	f.Fuzz(func(t *testing.T, records, damageAt int, flip byte) {
		if records < 1 || records > 200 {
			t.Skip()
		}
		dir := t.TempDir()
		w, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		recs := mkRecords(records)
		appendAll(t, w, recs)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if damageAt >= 0 && damageAt < len(data) && flip != 0 {
			data[damageAt] ^= flip
			data = data[:damageAt+1+(len(data)-damageAt-1)/2] // also shear the tail
			if err := os.WriteFile(segs[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w2, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("open over damaged tail: %v", err)
		}
		defer w2.Close()
		got := replayAll(t, w2, -1)
		if len(got) > len(recs) {
			t.Fatalf("replayed %d of %d records", len(got), len(recs))
		}
		for i, r := range got {
			if r.Seq != int64(i) {
				t.Fatalf("record %d has seq %d (not a prefix)", i, r.Seq)
			}
			b, err := DecodeBatchRecord(r.Payload)
			if err != nil {
				t.Fatalf("record %d payload corrupt: %v", i, err)
			}
			if b.Watermark != recs[i].Watermark || len(b.Events) != len(recs[i].Events) {
				t.Fatalf("record %d differs from what was appended", i)
			}
		}
		if w2.NextSeq() != int64(len(got)) {
			t.Fatalf("NextSeq %d after %d valid records", w2.NextSeq(), len(got))
		}
		if _, err := w2.Append(RecBatch, EncodeBatchRecord(recs[0])); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckpointFileRoundTrip covers the full checkpoint file path:
// atomic write, newest-first load, pruning, and field fidelity.
func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap, _, _ := buildEngineState(t, 400, 5, 9)
	ck := &Checkpoint{
		CreatedUnixNano: time.Now().UnixNano(),
		WALSeq:          41,
		Watermark:       98765,
		NextEmitSeq:     1234,
		Emitted:         1234,
		NextQueryID:     5,
		Parallelism:     1,
		RegistryNames:   []string{"A", "B", "C", "D"},
		Queries:         []QueryEntry{{0, "q0 text"}, {3, "q3 text"}},
		TypeCounts:      map[event.Type]float64{1: 10, 2: 20.5},
		CountFrom:       17,
		Ring:            []RingEntry{{Seq: 1230, Payload: []byte(`{"seq":1230}`)}, {Seq: 1231, Payload: []byte(`{"seq":1231}`)}},
		State:           snap,
	}
	if _, _, err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	// An older checkpoint gets pruned once two newer ones exist.
	old := *ck
	old.WALSeq = 7
	if _, _, err := WriteCheckpoint(dir, &old); err != nil {
		t.Fatal(err)
	}
	newer := *ck
	newer.WALSeq = 60
	if _, _, err := WriteCheckpoint(dir, &newer); err != nil {
		t.Fatal(err)
	}
	if names := listCheckpoints(dir); len(names) != 2 {
		t.Fatalf("%d checkpoints after pruning", len(names))
	}

	got, err := LoadLatestCheckpoint(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.WALSeq != 60 || got.Watermark != ck.Watermark || got.NextEmitSeq != ck.NextEmitSeq ||
		got.NextQueryID != ck.NextQueryID || len(got.Queries) != 2 || got.Queries[1].Text != "q3 text" ||
		len(got.RegistryNames) != 4 || got.TypeCounts[2] != 20.5 || got.CountFrom != 17 ||
		len(got.Ring) != 2 || got.Ring[1].Seq != 1231 || string(got.Ring[0].Payload) != `{"seq":1230}` {
		t.Fatalf("loaded checkpoint differs: %+v", got)
	}
	a := encodeSnap(t, ck.State)
	b := encodeSnap(t, got.State)
	if !bytes.Equal(a, b) {
		t.Fatal("engine state differs across checkpoint file round trip")
	}

	// A corrupted newest checkpoint falls back to the older one.
	names := listCheckpoints(dir)
	data, _ := os.ReadFile(names[0])
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadLatestCheckpoint(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got2.WALSeq != 41 {
		t.Fatalf("fallback loaded WALSeq %d, want 41", got2.WALSeq)
	}

	// Empty dir: no checkpoint, no error.
	none, err := LoadLatestCheckpoint(t.TempDir(), nil)
	if err != nil || none != nil {
		t.Fatalf("empty dir: %v, %v", none, err)
	}
}
