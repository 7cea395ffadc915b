package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/chash"
	"github.com/sharon-project/sharon/internal/persist"
)

// Cluster hand-off endpoints: the worker-side half of the router's
// checkpoint-handoff rebalancing protocol.
//
//	POST /cluster/extract   cut a consistent-hash range out of the
//	                        running engine: quiesced snapshot, slice the
//	                        moved groups, log the removal, remove them,
//	                        return the slice (binary ExtractResponse).
//	POST /cluster/adopt     graft a range in: log the AdoptRecord, catch
//	                        the slice up past its watermark by replaying
//	                        the delta in a temporary engine (regenerating
//	                        the emissions the previous owner never
//	                        delivered), absorb the groups, and push an
//	                        `adopted` marker to punctuating subscribers.
//
// Both run on the pump goroutine like every other state change, are
// WAL-logged before they touch the engine (a killed worker re-applies
// them on recovery), and require a uniform, grouped, non-dynamic
// workload with no live migration draining.

// ExtractRequest is the /cluster/extract body: the (old, new) ring
// memberships and the (source, target) pair whose moved keys should be
// cut. Both sides re-derive the same predicate from the same membership
// lists (see chash.Moved), so the request stays O(1) regardless of how
// many groups move.
type ExtractRequest struct {
	Op     int64    `json:"op"`
	VNodes int      `json:"vnodes"`
	Old    []string `json:"old"`
	New    []string `json:"new"`
	Source string   `json:"source"`
	Target string   `json:"target"`
}

// clusterApplicable reports whether a cluster hand-off can run now.
func (s *Server) clusterApplicable() *ctlError {
	if s.old != nil {
		return ctlErrf(http.StatusConflict, "live workload change still draining; retry after its boundary closes")
	}
	if s.cur.sys.Segments() != 1 || s.cfg.Dynamic {
		return ctlErrf(http.StatusConflict, "cluster rebalancing requires a uniform non-dynamic workload")
	}
	if !s.cur.entries[0].Q.GroupBy {
		return ctlErrf(http.StatusConflict, "cluster rebalancing requires a grouped workload (ungrouped state cannot be hash-partitioned)")
	}
	return nil
}

// applyExtract cuts the requested range on the pump goroutine.
//
//sharon:pump
func (s *Server) applyExtract(req *ctlReq) {
	x := req.extract
	fail := func(ce *ctlError) { req.reply <- ctlReply{status: ce.status, body: map[string]string{"error": ce.msg}} }
	if ce := s.clusterApplicable(); ce != nil {
		fail(ce)
		return
	}
	oldRing, err := chash.New(x.Old, x.VNodes)
	if err != nil {
		fail(ctlErrf(http.StatusBadRequest, "old ring: %v", err))
		return
	}
	newRing, err := chash.New(x.New, x.VNodes)
	if err != nil {
		fail(ctlErrf(http.StatusBadRequest, "new ring: %v", err))
		return
	}
	moved := chash.Moved(oldRing, newRing, x.Source, x.Target)

	// Quiesced snapshot first (Snapshot barriers the parallel executor),
	// then slice. Nothing is mutated until the WAL record is durable.
	snap, err := s.cur.sys.Snapshot()
	if err != nil {
		fail(ctlErrf(http.StatusInternalServerError, "snapshot: %v", err))
		return
	}
	slice, err := persist.SliceSnapshotGroups(snap, moved)
	if err != nil {
		fail(ctlErrf(http.StatusConflict, "%v", err))
		return
	}
	keys := make([]sharon.GroupKey, len(slice.Engine.Groups))
	for i := range slice.Engine.Groups {
		keys[i] = slice.Engine.Groups[i].Key
	}
	if s.wal != nil {
		rec := persist.ExtractRecord{Op: x.Op, Keys: keys}
		seq, werr := s.wal.Append(persist.RecExtract, persist.EncodeExtractRecord(rec))
		if werr != nil {
			s.fail(werr)
			fail(ctlErrf(http.StatusInternalServerError, "wal: %v", werr))
			return
		}
		s.appliedSeq = seq
	}
	if _, err := s.cur.sys.RemoveGroups(moved); err != nil {
		s.fail(err)
		fail(ctlErrf(http.StatusInternalServerError, "remove: %v", err))
		return
	}
	body, err := persist.EncodeExtractResponse(persist.ExtractResponse{
		Watermark: s.wmState,
		Groups:    int64(len(keys)),
		Slice:     slice,
	})
	if err != nil {
		fail(ctlErrf(http.StatusInternalServerError, "encode: %v", err))
		return
	}
	s.edge.Log.Info("cluster extract", "op", x.Op, "groups", len(keys), "target", x.Target, "watermark", s.wmState)
	req.reply <- ctlReply{status: http.StatusOK, raw: body}
}

// replayExtract re-applies a logged extraction during WAL recovery.
func (s *Server) replayExtract(rec persist.ExtractRecord) error {
	if ce := s.clusterApplicable(); ce != nil {
		return fmt.Errorf("replay extract: %s", ce.msg)
	}
	drop := make(map[sharon.GroupKey]bool, len(rec.Keys))
	for _, k := range rec.Keys {
		drop[k] = true
	}
	_, err := s.cur.sys.RemoveGroups(func(k sharon.GroupKey) bool { return drop[k] })
	return err
}

// applyAdopt grafts a shipped range on the pump goroutine.
//
//sharon:pump
func (s *Server) applyAdopt(req *ctlReq) {
	a := req.adopt
	fail := func(ce *ctlError) { req.reply <- ctlReply{status: ce.status, body: map[string]string{"error": ce.msg}} }
	if ce := s.clusterApplicable(); ce != nil {
		fail(ce)
		return
	}
	if !a.Plan.Equal(s.cur.plan) {
		fail(ctlErrf(http.StatusConflict, "adopt slice was built under a different sharing plan than this worker runs (same queries and rates on every worker required)"))
		return
	}
	if a.TargetWM < s.wmState {
		fail(ctlErrf(http.StatusConflict, "adopt target watermark %d behind this worker's %d (router must barrier before handing off)", a.TargetWM, s.wmState))
		return
	}
	// Log before apply: a crash mid-graft re-applies the whole hand-off,
	// regenerating the same groups and the same emissions.
	if s.wal != nil {
		payload, err := persist.EncodeAdoptRecord(*a)
		if err != nil {
			fail(ctlErrf(http.StatusInternalServerError, "encode: %v", err))
			return
		}
		seq, werr := s.wal.Append(persist.RecAdopt, payload)
		if werr != nil {
			s.fail(werr)
			fail(ctlErrf(http.StatusInternalServerError, "wal: %v", werr))
			return
		}
		s.appliedSeq = seq
	}
	groups, regen, err := s.adoptApply(a)
	if err != nil {
		s.fail(err)
		fail(ctlErrf(http.StatusInternalServerError, "adopt: %v", err))
		return
	}
	s.publishEngineStats(true)
	req.reply <- ctlReply{status: http.StatusOK, body: map[string]any{
		"op":          a.Op,
		"adopted":     groups,
		"regenerated": regen,
		"watermark":   s.wmState,
	}}
	s.adoptDone(a)
}

// adoptApply is the shared graft path of the live handler and WAL
// replay: rebuild the moved range in a temporary sequential engine —
// restore the slice, replay the delta past the slice watermark, emitting
// (through the server's normal sink sequence) only the windows the
// previous owner never delivered — then absorb the caught-up groups
// into the serving engine and align the stream watermark.
//
//sharon:applies
func (s *Server) adoptApply(a *persist.AdoptRecord) (groups int, regen int64, err error) {
	// Quiesce first: with a parallel engine the merge goroutine may
	// still be assigning sequence numbers to results of earlier steps
	// (live: the pre-adopt punctuation already quiesced; WAL replay has
	// no punctuation), and the regenerated emissions below must take
	// strictly later seqs than everything at or below the watermark.
	if err := s.cur.sys.Quiesce(); err != nil {
		return 0, 0, fmt.Errorf("quiesce: %w", err)
	}
	w := workloadOf(s.cur.entries)
	qs := s.cur.sink.qs
	emitFrom := a.EmitFrom
	sink := func(r sharon.Result) {
		q := qs[r.Query]
		if q == nil || q.Window.End(r.Win) <= emitFrom {
			return
		}
		seq := s.seq.Add(1) - 1
		s.edge.Emitted.Add(1)
		payload := EncodeResult(qs, seq, r)
		s.edge.Ring.Append(seq, payload)
		s.edge.Hub.Publish(r.Query, int64(r.Group), seq, payload, time.Now().UnixNano())
		regen++
	}
	tmp, err := sharon.NewSystem(w, sharon.Options{
		Plan:        a.Plan,
		OnResult:    sink,
		EmitEmpty:   s.cfg.EmitEmpty,
		Parallelism: 1,
	})
	if err != nil {
		return 0, 0, fmt.Errorf("temp engine: %w", err)
	}
	defer tmp.Close()
	last := int64(-1)
	if a.Slice != nil && a.Slice.Engine != nil && a.Slice.Engine.Started {
		if err := tmp.Restore(a.Slice); err != nil {
			return 0, 0, fmt.Errorf("restore slice: %w", err)
		}
		last = a.Slice.Engine.LastTime
	}
	// The delta may overlap the slice (checkpoint-covered WAL records,
	// double-shipped in-flight batches): the time filter is the same
	// late-event defense the ingest path runs.
	for _, b := range a.Delta {
		events := b.Events
		for len(events) > 0 && events[0].Time <= last {
			events = events[1:]
		}
		if len(events) > 0 {
			if err := tmp.FeedBatch(events); err != nil {
				return 0, 0, fmt.Errorf("delta replay: %w", err)
			}
			last = events[len(events)-1].Time
		}
		if b.Watermark > last {
			tmp.AdvanceWatermark(b.Watermark)
			last = b.Watermark
		}
	}
	if a.TargetWM > last {
		tmp.AdvanceWatermark(a.TargetWM)
		last = a.TargetWM
	}
	if last > a.TargetWM {
		return 0, 0, fmt.Errorf("delta runs to %d, past the target watermark %d (router shipped steps beyond the barrier)", last, a.TargetWM)
	}
	snap, err := tmp.Snapshot()
	if err != nil {
		return 0, 0, fmt.Errorf("snapshot caught-up slice: %w", err)
	}
	caught, err := sharon.SliceGroups(snap, func(sharon.GroupKey) bool { return true })
	if err != nil {
		return 0, 0, err
	}
	if err := s.cur.sys.AbsorbGroups(caught); err != nil {
		return 0, 0, fmt.Errorf("absorb: %w", err)
	}
	if a.TargetWM > s.wmState {
		s.wmState = a.TargetWM
		s.edge.Watermark.Store(a.TargetWM)
	}
	s.edge.Log.Info("cluster adopt", "op", a.Op, "groups", len(caught.Engine.Groups), "watermark", a.TargetWM, "regenerated", regen, "past", emitFrom)
	return len(caught.Engine.Groups), regen, nil
}

// replayAdopt re-applies a logged hand-off during WAL recovery. The
// regenerated emissions repeat with the same sequence numbers, keeping
// the replay ring contiguous across a crash mid-rebalance.
func (s *Server) replayAdopt(rec persist.AdoptRecord) error {
	if ce := s.clusterApplicable(); ce != nil {
		return fmt.Errorf("replay adopt: %s", ce.msg)
	}
	_, _, err := s.adoptApply(&rec)
	return err
}

// adoptDone publishes the `adopted` SSE marker after the reply is
// queued; punctuating subscribers (the router) use it as the "all
// regenerated results delivered" barrier. Ordered after the regenerated
// results because both flow through the hub from the pump goroutine.
func (s *Server) adoptDone(a *persist.AdoptRecord) {
	s.edge.Hub.PublishCtl("adopted", fmt.Appendf(nil, `{"op":%d,"watermark":%d}`, a.Op, s.wmState))
}

func (s *Server) handleClusterExtract(w http.ResponseWriter, r *http.Request) {
	var x ExtractRequest
	lim := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(lim).Decode(&x); err != nil {
		WriteErr(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	if x.Source == "" || x.Target == "" || len(x.Old) == 0 || len(x.New) == 0 {
		WriteErr(w, http.StatusBadRequest, "want {op, vnodes, old:[...], new:[...], source, target}")
		return
	}
	s.sendCtl(w, &ctlReq{extract: &x})
}

func (s *Server) handleClusterAdopt(w http.ResponseWriter, r *http.Request) {
	// Adopt bodies carry a checkpoint slice; allow well past the ingest
	// batch limit but still bounded.
	lim := http.MaxBytesReader(w, r.Body, 1<<30)
	body, err := io.ReadAll(lim)
	if err != nil {
		WriteErr(w, http.StatusRequestEntityTooLarge, "read: %v", err)
		return
	}
	rec, err := persist.DecodeAdoptRecord(body)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	s.sendCtl(w, &ctlReq{adopt: &rec})
}
