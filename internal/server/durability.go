package server

import (
	"fmt"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/persist"
)

// Durability: with Config.DataDir set, the server runs a write-ahead
// log plus periodic engine checkpoints, and a restart resumes exactly
// where the crashed process stopped.
//
// The invariants, in pump order:
//
//  1. Every applied pump step is logged before it touches the engine: a
//     RecBatch record holds the late-filtered events and the effective
//     watermark, a RecCtl record holds a live workload change with the
//     IDs and plan the original application chose. The write syscall
//     completes before the engine sees the step, so kill -9 can lose
//     queued-but-unapplied work (the client re-sends past the server's
//     published watermark) but never applied work.
//  2. A checkpoint is a consistent cut at the current watermark: the
//     engine snapshot (taken quiesced — the parallel executor barriers
//     its workers and merge stage), the emission sequence cursor, and
//     the replay ring. Everything at or below the watermark has been
//     emitted; everything above it is in the snapshot.
//  3. Restart = load newest valid checkpoint, replay the WAL tail
//     (records with seq > the checkpoint's cursor) through the same
//     apply path, then serve. Replay regenerates the exact emission
//     stream — same results, same sequence numbers — so the replay ring
//     is contiguous across the crash and a subscriber resuming with
//     ?after=<last seq> sees no gap and no duplicate.
//  4. Checkpoints never run while a live workload change is draining
//     its old system (two engines own disjoint window ranges then); the
//     WAL covers the migration, and the next interval checkpoints the
//     settled state.

// initDurability opens the WAL and, when a checkpoint exists, rebuilds
// the registry, workload, and engine state from it. Called from New
// before the pump starts; the pump replays the WAL tail as its first
// act, with /healthz reporting "recovering" until it finishes.
func (s *Server) initDurability() error {
	walOpts := persist.WALOptions{
		SegmentBytes: s.cfg.WALSegmentBytes,
		Fsync:        s.cfg.Fsync,
		FsyncEvery:   s.cfg.FsyncEvery,
	}
	ck, err := persist.LoadLatestCheckpoint(s.cfg.DataDir, s.edge.Log)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	wal, err := persist.OpenWAL(s.cfg.DataDir, walOpts)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if n := wal.Stats().TornBytes; n > 0 {
		s.edge.Log.Warn("wal torn tail truncated", "bytes", n)
	}
	// A failing boot discards the *Server; close the segment handle
	// instead of leaking it to GC finalization.
	fail := func(err error) error {
		wal.Close()
		return err
	}
	s.wal = wal
	s.appliedSeq = -1
	s.recovering.Store(true)
	if ck == nil {
		return nil // fresh directory, or WAL-only tail: pump replays from scratch
	}
	// A power failure can persist a checkpoint whose newest covered WAL
	// records never hit the disk (the torn tail truncated below the
	// cursor). Everything the surviving log holds is then covered by
	// the checkpoint, but appends must not reuse sequence numbers at or
	// below the cursor — the next recovery would skip them. Restart the
	// log just past the cursor.
	if ck.WALSeq >= wal.NextSeq() {
		s.edge.Log.Warn("wal ends below checkpoint cursor; resetting log past the cursor", "wal_last_seq", wal.NextSeq()-1, "cursor", ck.WALSeq)
		if err := wal.Reset(ck.WALSeq + 1); err != nil {
			return fail(fmt.Errorf("server: wal reset: %w", err))
		}
	}

	if ck.Parallelism != s.cfg.Parallelism {
		return fail(fmt.Errorf("server: checkpoint was taken with -parallelism %d, running with %d (shard state is partitioned by worker count; restart with the recorded value)", ck.Parallelism, s.cfg.Parallelism))
	}
	if ck.Dynamic != s.cfg.Dynamic {
		return fail(fmt.Errorf("server: checkpoint was taken with -dynamic=%v, running with %v", ck.Dynamic, s.cfg.Dynamic))
	}
	// The checkpoint's workload wins over -query flags: it includes live
	// registrations the flags cannot know about.
	for _, name := range ck.RegistryNames {
		s.reg.Intern(name)
	}
	entries := make([]queryEntry, len(ck.Queries))
	for i, q := range ck.Queries {
		pq, err := sharon.ParseQuery(q.Text, s.reg)
		if err != nil {
			return fail(fmt.Errorf("server: checkpoint query %d: %w", q.ID, err))
		}
		pq.ID = q.ID
		entries[i] = queryEntry{ID: q.ID, Text: q.Text, Q: pq}
	}
	s.nextID = ck.NextQueryID

	cur, err := s.buildSystem(entries, s.configuredRates(workloadOf(entries)), ck.Plan, 0)
	if err != nil {
		return fail(fmt.Errorf("server: rebuild from checkpoint: %w", err))
	}
	if ck.State != nil {
		if err := cur.sys.Restore(ck.State); err != nil {
			cur.sys.Close()
			return fail(fmt.Errorf("server: restore engine state: %w", err))
		}
	}
	s.cur = cur
	s.wmState = ck.Watermark
	s.edge.Watermark.Store(ck.Watermark)
	s.seq.Store(ck.NextEmitSeq)
	s.edge.Emitted.Store(ck.Emitted)
	s.edge.Ingested.Store(ck.EventsIngested)
	s.edge.Batches.Store(ck.Batches)
	s.typeCounts = ck.TypeCounts
	if s.typeCounts == nil {
		s.typeCounts = make(map[sharon.Type]float64)
	}
	s.countFrom = ck.CountFrom
	s.edge.Ring.Load(ck.Ring, ck.NextEmitSeq)
	// Reseed the broadcast log too, so ?after=N resume (and filtered
	// resume) is served across a restart from the same retained tail.
	s.edge.Hub.Seed(ck.Ring, ck.NextEmitSeq)
	s.appliedSeq = ck.WALSeq
	s.lastCkptAt.Store(ck.CreatedUnixNano)
	s.edge.Log.Info("recovered checkpoint", "wal_seq", ck.WALSeq, "watermark", ck.Watermark, "queries", len(entries), "emit_seq", ck.NextEmitSeq)
	return nil
}

// recoverWAL replays the log tail on the pump goroutine. Replayed
// batches run through the same apply path as live ones, so the engine,
// the counters, and the emission stream (sequence numbers included) end
// up exactly where the crashed process had them.
func (s *Server) recoverWAL() error {
	start := time.Now()
	err := s.wal.Replay(s.appliedSeq, func(rec persist.Record) error {
		switch rec.Type {
		case persist.RecBatch:
			b, err := persist.DecodeBatchRecord(rec.Payload)
			if err != nil {
				return err
			}
			s.applyBatch(b.Events, b.Watermark)
			s.replayedBatches.Add(1)
			s.replayedEvents.Add(int64(len(b.Events)))
		case persist.RecCtl:
			c, err := persist.DecodeCtlRecord(rec.Payload)
			if err != nil {
				return err
			}
			if err := s.replayCtl(c); err != nil {
				return err
			}
		case persist.RecAdopt:
			a, err := persist.DecodeAdoptRecord(rec.Payload)
			if err != nil {
				return err
			}
			if err := s.replayAdopt(a); err != nil {
				return err
			}
		case persist.RecExtract:
			x, err := persist.DecodeExtractRecord(rec.Payload)
			if err != nil {
				return err
			}
			if err := s.replayExtract(x); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown wal record type %d at seq %d", rec.Type, rec.Seq)
		}
		s.appliedSeq = rec.Seq
		return nil
	})
	if err != nil {
		return fmt.Errorf("server: wal replay: %w", err)
	}
	if n := s.replayedBatches.Load(); n > 0 {
		s.edge.Log.Info("replayed wal", "batches", n, "events", s.replayedEvents.Load(), "took", time.Since(start).Round(time.Millisecond), "watermark", s.wmState)
	}
	return nil
}

// maybeCheckpoint writes a periodic checkpoint from the pump loop. The
// timer starts at boot (recovery resets it), so a freshly started
// server runs a full interval before its first cut.
func (s *Server) maybeCheckpoint() {
	if s.wal == nil || time.Since(s.lastCkptTimer) < s.cfg.CheckpointEvery {
		return
	}
	s.checkpoint(false)
}

// checkpoint writes one checkpoint and truncates the WAL behind it.
// Pump goroutine only. Skipped while a live workload change is still
// draining its old system (the WAL covers that span; see the package
// invariants above).
func (s *Server) checkpoint(final bool) {
	if s.wal == nil || s.old != nil {
		return
	}
	// The checkpoint's WAL cursor is only meaningful if every record at
	// or below it is on stable storage: sync before cutting, or a power
	// failure could persist a checkpoint pointing past the log's end.
	if err := s.wal.Sync(); err != nil {
		s.edge.Log.Error("checkpoint: wal sync", "err", err)
		return
	}
	snap, err := s.cur.sys.Snapshot()
	if err != nil {
		s.edge.Log.Error("checkpoint: snapshot", "err", err)
		return
	}
	entries := make([]persist.QueryEntry, len(s.cur.entries))
	for i, e := range s.cur.entries {
		entries[i] = persist.QueryEntry{ID: e.ID, Text: e.Text}
	}
	counts := make(map[sharon.Type]float64, len(s.typeCounts))
	for k, v := range s.typeCounts {
		counts[k] = v
	}
	ck := &persist.Checkpoint{
		CreatedUnixNano: time.Now().UnixNano(),
		WALSeq:          s.appliedSeq,
		Watermark:       s.wmState,
		NextEmitSeq:     s.seq.Load(),
		Emitted:         s.edge.Emitted.Load(),
		EventsIngested:  s.edge.Ingested.Load(),
		Batches:         s.edge.Batches.Load(),
		NextQueryID:     s.nextID,
		Parallelism:     s.cfg.Parallelism,
		Dynamic:         s.cfg.Dynamic,
		RegistryNames:   s.reg.Ordered(),
		Queries:         entries,
		Plan:            s.cur.plan,
		TypeCounts:      counts,
		CountFrom:       s.countFrom,
		Ring:            s.edge.Ring.Snapshot(),
		State:           snap,
	}
	path, size, err := persist.WriteCheckpoint(s.cfg.DataDir, ck)
	if err != nil {
		s.edge.Log.Error("checkpoint", "err", err)
		return
	}
	s.lastCkptTimer = time.Now()
	s.lastCkptAt.Store(ck.CreatedUnixNano)
	s.lastCkptBytes.Store(size)
	s.checkpoints.Add(1)
	if err := s.wal.TruncateThrough(ck.WALSeq); err != nil {
		s.edge.Log.Error("checkpoint: wal truncate", "err", err)
	}
	s.publishDurabilityStats()
	kind := "periodic"
	if final {
		kind = "final"
	}
	s.edge.Log.Info("checkpoint", "kind", kind, "wal_seq", ck.WALSeq, "watermark", ck.Watermark, "path", path)
}

// publishDurabilityStats refreshes the handler-visible WAL counters.
// Pump goroutine (the WAL is pump-owned).
func (s *Server) publishDurabilityStats() {
	if s.wal == nil {
		return
	}
	st := s.wal.Stats()
	s.walStats.Store(&st)
}

// durabilityStats assembles the /metrics durability section; handler
// goroutines (reads only atomics).
func (s *Server) durabilityStats() *metrics.DurabilityStatsJSON {
	if s.cfg.DataDir == "" {
		return nil
	}
	d := &metrics.DurabilityStatsJSON{
		FsyncPolicy:          s.cfg.Fsync.String(),
		Checkpoints:          s.checkpoints.Load(),
		LastCheckpointAgeSec: -1,
		LastCheckpointBytes:  s.lastCkptBytes.Load(),
		ReplayedBatches:      s.replayedBatches.Load(),
		ReplayedEvents:       s.replayedEvents.Load(),
		Recovering:           s.recovering.Load(),
	}
	if at := s.lastCkptAt.Load(); at > 0 {
		d.LastCheckpointAgeSec = time.Since(time.Unix(0, at)).Seconds()
	}
	if st := s.walStats.Load(); st != nil {
		d.WalBytes = st.Bytes
		d.WalSegments = st.Segments
		d.WalNextSeq = st.NextSeq
		d.WalAppended = st.Appended
		d.WalSyncs = st.Syncs
	}
	return d
}
