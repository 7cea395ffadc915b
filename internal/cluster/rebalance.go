package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/chash"
	"github.com/sharon-project/sharon/internal/exec"
	"github.com/sharon-project/sharon/internal/persist"
	"github.com/sharon-project/sharon/internal/server"
)

// Rebalancing moves consistent-hash ranges between workers at a window
// boundary, reusing the durability layer as the state-transfer
// primitive. All three flows run on the pump goroutine (ingestion is
// paused — the bounded queue backpressures clients with 429s):
//
// Worker death:
//  1. Freeze the dead lane at its last punctuation W_p (its buffered
//     results at or below W_p are complete; later ones are discarded as
//     possibly partial). The merge frontier cannot pass W_p.
//  2. Barrier: wait until every survivor has punctuated the router's
//     stream position P — all live state is now aligned at P.
//  3. Rebuild the dead worker's range from its durable state: the
//     newest checkpoint slice (persist.SliceSnapshotGroups) plus the
//     WAL-tail batch records, plus the router's retained delta (steps
//     newer than W_p). Per surviving owner of the moved range, ship an
//     AdoptRecord {slice, delta, EmitFrom: W_p, TargetWM: P}.
//  4. Each successor replays the hand-off in a temporary engine,
//     re-emitting exactly the results in (W_p, P] the dead worker never
//     delivered, absorbs the groups, and pushes an `adopted` marker.
//  5. Drop the dead lane, recompute the frontier (= P), and flush the
//     merge: buffered survivor results, the dead worker's (F, W_p]
//     leftovers, and the regenerated (W_p, P] slice interleave into the
//     canonical order. The merged stream is byte-identical to an
//     uninterrupted single-node run.
//
// Join and graceful leave use the same machinery with live sources:
// /cluster/extract cuts the moved range out of each source at the
// barrier (P = slice watermark, empty delta, nothing to regenerate).

// rebalanceDead recovers a dead worker's range onto the survivors.
func (r *Router) rebalanceDead(deadID string) {
	started := time.Now()
	r.edge.Log.Warn("worker presumed dead; rebalancing", "worker", deadID)

	r.mu.Lock()
	ln := r.lanes[deadID]
	if ln == nil || !r.chring.Has(deadID) {
		r.mu.Unlock()
		return
	}
	ln.gone.Store(true)
	//sharon:allow lockio (context.CancelFunc never blocks: it closes the done channel)
	ln.cancel()
	wp := ln.frontier
	// Results beyond the last punctuation may be a partial step; the
	// regeneration covers (W_p, P] completely, so drop them.
	for end := range ln.pending {
		if end > wp {
			delete(ln.pending, end)
		}
	}
	delta := append([]persist.BatchRecord(nil), ln.delta...)
	oldRing := r.chring
	newRing, err := r.chring.Remove(deadID)
	r.mu.Unlock()
	if err != nil {
		r.fail("rebalance %s: %v", deadID, err)
		return
	}
	if newRing.Size() == 0 {
		r.fail("last worker %s died; no survivors to rebalance onto", deadID)
		return
	}
	if ln.spec.DataDir == "" {
		r.fail("worker %s died without a data-dir; its open-window state is unrecoverable (run cluster workers with -data-dir)", deadID)
		return
	}
	target := r.wmState

	// Barrier: survivors must drain to P before state moves.
	if err := r.barrier(newRing.Members(), target); err != nil {
		r.fail("rebalance %s: %v", deadID, err)
		return
	}

	// Rebuild the dead worker's durable state: checkpoint slice + WAL
	// tail. The tail and the router delta overlap; the adoptee's replay
	// time-filters the overlap away.
	ck, tail, err := r.loadDeadState(ln.spec.DataDir)
	if err != nil {
		r.fail("rebalance %s: %v", deadID, err)
		return
	}
	delta = append(tail, delta...)

	// The checkpoint can be AHEAD of the last punctuation the router
	// received (the worker checkpointed at watermark C, then died while
	// the wm frames sat undelivered in the socket, so W_p < C). The
	// successors' temp-engine replay restores the slice with windows at
	// or below C already closed and can only regenerate (C, P] — the
	// results in (W_p, C] come from the checkpoint's own emission ring,
	// which the worker cut in the same consistent snapshot.
	if ck != nil {
		inject, err := ringResultsAfter(ck.Ring, wp)
		if err != nil {
			r.fail("rebalance %s: %v", deadID, err)
			return
		}
		if len(inject) > 0 {
			r.mu.Lock()
			for _, wr := range inject {
				r.orphan[wr.End] = append(r.orphan[wr.End], wr)
			}
			r.mu.Unlock()
			r.edge.Log.Info("recovered results from checkpoint emission ring", "worker", deadID, "results", len(inject), "from", wp, "to", ck.Watermark)
		}
	}

	for _, succ := range newRing.Members() {
		moved := chash.Moved(oldRing, newRing, deadID, succ)
		slice, err := r.sliceFor(ck, moved)
		if err != nil {
			r.fail("rebalance %s -> %s: %v", deadID, succ, err)
			return
		}
		part := filterDelta(delta, moved)
		// Skip successors the dead range contributes nothing to: an
		// event-free delta is watermark-only records (every batch
		// yields one), and a no-op adopt would still WAL-log a RecAdopt
		// the next dead-worker recovery refuses to flatten.
		if len(slice.Engine.Groups) == 0 && deltaEvents(part) == 0 {
			continue
		}
		if err := r.adopt(succ, persist.AdoptRecord{
			Op:       r.opSeq.Add(1),
			TargetWM: target,
			EmitFrom: wp,
			Plan:     r.plan,
			Slice:    slice,
			Delta:    part,
		}); err != nil {
			r.fail("rebalance %s -> %s: %v", deadID, succ, err)
			return
		}
	}

	// Membership flips, the dead lane leaves the frontier, and the
	// merge flushes everything at or below P in canonical order. The
	// dead lane's buckets at or below W_p normally drained while the
	// survivors crossed the barrier; whatever remains rides the orphan
	// buffer so no completed window can be dropped with the lane.
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.chring = newRing
	for end, rs := range ln.pending {
		r.orphan[end] = append(r.orphan[end], rs...)
	}
	delete(r.lanes, deadID)
	r.advanceMergeLocked(now)
	r.mu.Unlock()
	r.rebalances.Add(1)
	r.lastRebalance.Store(time.Since(started).Nanoseconds())
	r.edge.Log.Info("rebalanced dead worker", "worker", deadID, "survivors", newRing.Size(), "took", time.Since(started).Round(time.Millisecond), "watermark", target)
}

// barrier waits until every listed lane has punctuated wm — its queue
// is drained and its results for windows ending at or before wm are in
// the merge buffers.
func (r *Router) barrier(ids []string, wm int64) error {
	deadline := time.Now().Add(r.cfg.BarrierTimeout)
	for {
		behind := ""
		r.mu.Lock()
		for _, id := range ids {
			ln := r.lanes[id]
			if ln == nil {
				r.mu.Unlock()
				return fmt.Errorf("barrier: no lane %s", id)
			}
			if ln.frontier < wm {
				behind = fmt.Sprintf("%s at %d of %d", id, ln.frontier, wm)
				break
			}
		}
		r.mu.Unlock()
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("barrier timed out: %s", behind)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// loadDeadState reads a dead worker's durable directory: the newest
// checkpoint (nil if none) and the WAL-tail batch records past it. A
// tail holding a cluster adopt of its own (a rebalance within the last
// checkpoint interval) is refused — the nested hand-off state cannot be
// flattened safely — and the operator intervenes.
func (r *Router) loadDeadState(dir string) (*persist.Checkpoint, []persist.BatchRecord, error) {
	ck, err := persist.LoadLatestCheckpoint(dir, r.edge.Log)
	if err != nil {
		return nil, nil, fmt.Errorf("load checkpoint: %w", err)
	}
	after := int64(-1)
	if ck != nil {
		after = ck.WALSeq
		if len(ck.Queries) != len(r.cfg.Queries) {
			return nil, nil, fmt.Errorf("dead worker checkpoint has %d queries, cluster runs %d", len(ck.Queries), len(r.cfg.Queries))
		}
		for i, q := range ck.Queries {
			if q.Text != r.cfg.Queries[i] {
				return nil, nil, fmt.Errorf("dead worker checkpoint query %d is %q, cluster runs %q", i, q.Text, r.cfg.Queries[i])
			}
		}
	}
	wal, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("open wal: %w", err)
	}
	if n := wal.Stats().TornBytes; n > 0 {
		r.edge.Log.Warn("dead worker wal torn tail truncated", "dir", dir, "bytes", n)
	}
	defer wal.Close()
	var tail []persist.BatchRecord
	err = wal.Replay(after, func(rec persist.Record) error {
		switch rec.Type {
		case persist.RecBatch:
			b, err := persist.DecodeBatchRecord(rec.Payload)
			if err != nil {
				return err
			}
			tail = append(tail, b)
		case persist.RecExtract:
			// Groups extracted away are no longer in the dead worker's
			// arcs on the current ring; the moved-key predicate already
			// excludes them.
			return nil
		case persist.RecCtl:
			return fmt.Errorf("wal tail holds a live workload change; cluster workers must not take live registrations")
		case persist.RecAdopt:
			return fmt.Errorf("wal tail holds an un-checkpointed adopt (the worker died mid-rebalance-interval); recover it manually by restarting the worker on its data-dir")
		default:
			return fmt.Errorf("unknown wal record type %d", rec.Type)
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("wal tail: %w", err)
	}
	return ck, tail, nil
}

// ringResultsAfter extracts the emissions with window end past wp from
// a checkpoint's retained ring. It refuses when the ring may have
// trimmed entries the merge still needs: completeness holds when the
// ring reaches back to the stream head (first Seq 0) or to a result
// already covered by the punctuation (cluster worker emission ends are
// nondecreasing except adopt regenerations, which stay at or below
// their own barrier and therefore below wp).
func ringResultsAfter(ring []persist.RingEntry, wp int64) ([]server.WireResult, error) {
	if len(ring) == 0 {
		return nil, nil
	}
	parsed := make([]server.WireResult, len(ring))
	for i, e := range ring {
		if err := json.Unmarshal(e.Payload, &parsed[i]); err != nil {
			return nil, fmt.Errorf("checkpoint ring entry seq %d: %w", e.Seq, err)
		}
	}
	if ring[0].Seq > 0 && parsed[0].End > wp {
		return nil, fmt.Errorf("checkpoint emission ring starts past the last received punctuation %d (oldest retained end %d); the dead worker's -replay-buffer was too small to bridge the hand-off", wp, parsed[0].End)
	}
	var out []server.WireResult
	for _, wr := range parsed {
		if wr.End > wp {
			out = append(out, wr)
		}
	}
	return out, nil
}

// sliceFor cuts the moved groups out of a checkpoint's engine state
// (an empty engine slice when no checkpoint exists yet).
func (r *Router) sliceFor(ck *persist.Checkpoint, keep func(sharon.GroupKey) bool) (*exec.SystemSnapshot, error) {
	if ck == nil || ck.State == nil {
		return &exec.SystemSnapshot{Kind: exec.KindEngine, Engine: &exec.EngineSnapshot{}}, nil
	}
	return persist.SliceSnapshotGroups(ck.State, keep)
}

// deltaEvents counts the events across a filtered delta.
func deltaEvents(delta []persist.BatchRecord) int {
	n := 0
	for _, b := range delta {
		n += len(b.Events)
	}
	return n
}

// filterDelta projects the hand-off delta onto one successor's keys,
// keeping every step's watermark (the successor's temporary engine must
// close the same windows the dead worker would have).
func filterDelta(delta []persist.BatchRecord, keep func(sharon.GroupKey) bool) []persist.BatchRecord {
	out := make([]persist.BatchRecord, 0, len(delta))
	for _, b := range delta {
		var events []sharon.Event
		for _, e := range b.Events {
			if keep(e.Key) {
				events = append(events, e)
			}
		}
		out = append(out, persist.BatchRecord{Events: events, Watermark: b.Watermark})
	}
	return out
}

// adopt ships one AdoptRecord and waits for both the HTTP reply and the
// `adopted` SSE marker — the marker is ordered after the regenerated
// results on the lane, so once it arrives the merge buffers are
// complete for the grafted range.
func (r *Router) adopt(succ string, rec persist.AdoptRecord) error {
	ln := r.lane(succ)
	if ln == nil {
		return fmt.Errorf("no lane for successor %s", succ)
	}
	return r.adoptLane(ln, rec)
}

// adoptLane is adopt against an explicit lane (the join path grafts
// into a staged lane not yet in the membership map).
func (r *Router) adoptLane(ln *lane, rec persist.AdoptRecord) error {
	succ := ln.id
	body, err := persist.EncodeAdoptRecord(rec)
	if err != nil {
		return err
	}
	resp, err := r.client.Post(succ+"/cluster/adopt", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("adopt post: %w", err)
	}
	reply, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("adopt status %d: %s", resp.StatusCode, bytes.TrimSpace(reply))
	}
	deadline := time.NewTimer(r.cfg.BarrierTimeout)
	defer deadline.Stop()
	for {
		select {
		case op := <-ln.adopted:
			if op == rec.Op {
				return nil
			}
		case <-deadline.C:
			return fmt.Errorf("adopted marker %d from %s timed out", rec.Op, succ)
		}
	}
}

// applyCtl executes a membership change (or a death check) on the pump.
func (r *Router) applyCtl(ctl *routerCtl) {
	reply := func(status int, body any) {
		if ctl.reply != nil {
			ctl.reply <- ctlResult{status: status, body: body}
		}
	}
	switch {
	case ctl.deadcheck != "":
		if r.lane(ctl.deadcheck) == nil {
			return // already rebalanced
		}
		if healthy, _ := r.probe(ctl.deadcheck); healthy {
			return // transient; the lane reader resumes on its own
		}
		if r.edge.Failed() == "" {
			r.rebalanceDead(ctl.deadcheck)
		}
	case ctl.join != nil:
		status, body := r.join(*ctl.join)
		reply(status, body)
	case ctl.leave != "":
		status, body := r.leave(ctl.leave)
		reply(status, body)
	}
}

// join adds a fresh worker: extract its ring share from each current
// owner at the barrier and graft the combined slice into it.
func (r *Router) join(spec WorkerSpec) (int, any) {
	started := time.Now()
	id := spec.URL
	r.mu.Lock()
	already := r.chring.Has(id)
	oldRing := r.chring
	r.mu.Unlock()
	if already {
		return http.StatusConflict, map[string]string{"error": fmt.Sprintf("worker %s already a member", id)}
	}
	if err := r.checkWorkerWorkload(id); err != nil {
		return http.StatusBadRequest, map[string]string{"error": err.Error()}
	}
	if err := r.checkWorkerFresh(id); err != nil {
		return http.StatusConflict, map[string]string{"error": err.Error()}
	}
	newRing, err := oldRing.Add(id)
	if err != nil {
		return http.StatusBadRequest, map[string]string{"error": err.Error()}
	}
	ln, err := r.newLane(spec)
	if err != nil {
		return http.StatusBadGateway, map[string]string{"error": err.Error()}
	}
	abort := func(status int, err error) (int, any) {
		ln.gone.Store(true)
		ln.cancel()
		r.rebalanceFail.Add(1)
		return status, map[string]string{"error": err.Error()}
	}
	target := r.wmState
	if err := r.barrier(oldRing.Members(), target); err != nil {
		return abort(http.StatusGatewayTimeout, err)
	}
	// From the first extract on, failures are fatal: an extract is
	// destructive at its source (the groups are WAL-logged out and
	// removed before the slice is returned), so a partial round leaves
	// the moved range ownerless — the router must stop serving rather
	// than let the sources rebuild those groups from empty state.
	merged := &exec.EngineSnapshot{}
	for _, src := range oldRing.Members() {
		x, err := r.extract(src, oldRing, newRing, id)
		if err != nil {
			r.fail("join %s: %v", id, err)
			return abort(http.StatusBadGateway, err)
		}
		if x.Watermark != target {
			err := fmt.Errorf("extract from %s at watermark %d, expected %d", src, x.Watermark, target)
			r.fail("join %s: %v", id, err)
			return abort(http.StatusBadGateway, err)
		}
		if err := mergeSlices(merged, x.Slice.Engine); err != nil {
			r.fail("join %s: %v", id, err)
			return abort(http.StatusBadGateway, err)
		}
	}
	if err := r.adoptLane(ln, persist.AdoptRecord{
		Op:       r.opSeq.Add(1),
		TargetWM: target,
		EmitFrom: target,
		Plan:     r.plan,
		Slice:    &exec.SystemSnapshot{Kind: exec.KindEngine, Engine: merged},
	}); err != nil {
		// The sources already gave their groups up; without the graft
		// the range is ownerless. Fatal.
		r.fail("join %s: %v", id, err)
		return http.StatusBadGateway, map[string]string{"error": err.Error()}
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.chring = newRing
	r.lanes[id] = ln
	r.advanceMergeLocked(now)
	r.mu.Unlock()
	r.rebalances.Add(1)
	r.lastRebalance.Store(time.Since(started).Nanoseconds())
	r.edge.Log.Info("worker joined", "worker", id, "groups", len(merged.Groups), "watermark", target, "took", time.Since(started).Round(time.Millisecond))
	return http.StatusOK, map[string]any{
		"joined":    id,
		"groups":    len(merged.Groups),
		"watermark": target,
		"workers":   newRing.Members(),
	}
}

// leave removes a member gracefully, handing each of its ranges to the
// surviving owner.
func (r *Router) leave(id string) (int, any) {
	started := time.Now()
	r.mu.Lock()
	ln := r.lanes[id]
	oldRing := r.chring
	r.mu.Unlock()
	if ln == nil || !oldRing.Has(id) {
		return http.StatusNotFound, map[string]string{"error": fmt.Sprintf("worker %s not a member", id)}
	}
	newRing, err := oldRing.Remove(id)
	if err != nil {
		return http.StatusBadRequest, map[string]string{"error": err.Error()}
	}
	if newRing.Size() == 0 {
		return http.StatusConflict, map[string]string{"error": "cannot remove the last worker"}
	}
	target := r.wmState
	if err := r.barrier(oldRing.Members(), target); err != nil {
		r.rebalanceFail.Add(1)
		return http.StatusGatewayTimeout, map[string]string{"error": err.Error()}
	}
	moved := 0
	for _, succ := range newRing.Members() {
		x, err := r.extract(id, oldRing, newRing, succ)
		if err != nil {
			r.fail("leave %s: %v", id, err)
			return http.StatusBadGateway, map[string]string{"error": err.Error()}
		}
		if len(x.Slice.Engine.Groups) == 0 {
			continue
		}
		moved += len(x.Slice.Engine.Groups)
		if err := r.adopt(succ, persist.AdoptRecord{
			Op:       r.opSeq.Add(1),
			TargetWM: target,
			EmitFrom: target,
			Plan:     r.plan,
			Slice:    x.Slice,
		}); err != nil {
			r.fail("leave %s -> %s: %v", id, succ, err)
			return http.StatusBadGateway, map[string]string{"error": err.Error()}
		}
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	ln.gone.Store(true)
	//sharon:allow lockio (context.CancelFunc never blocks: it closes the done channel)
	ln.cancel()
	r.chring = newRing
	for end, rs := range ln.pending {
		r.orphan[end] = append(r.orphan[end], rs...)
	}
	delete(r.lanes, id)
	r.advanceMergeLocked(now)
	r.mu.Unlock()
	r.rebalances.Add(1)
	r.lastRebalance.Store(time.Since(started).Nanoseconds())
	r.edge.Log.Info("worker left", "worker", id, "groups", moved, "survivors", newRing.Size(), "took", time.Since(started).Round(time.Millisecond))
	return http.StatusOK, map[string]any{
		"left":    id,
		"groups":  moved,
		"workers": newRing.Members(),
	}
}

// extract asks src to cut the keys moving from `from` to `to` between
// the two memberships.
func (r *Router) extract(src string, oldRing, newRing *chash.Ring, to string) (persist.ExtractResponse, error) {
	reqBody, _ := json.MarshalIndent(server.ExtractRequest{
		Op:     r.opSeq.Add(1),
		VNodes: r.cfg.VNodes,
		Old:    oldRing.Members(),
		New:    newRing.Members(),
		Source: src,
		Target: to,
	}, "", "")
	resp, err := r.client.Post(src+"/cluster/extract", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return persist.ExtractResponse{}, fmt.Errorf("extract from %s: %w", src, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return persist.ExtractResponse{}, fmt.Errorf("extract from %s: %w", src, err)
	}
	if resp.StatusCode != http.StatusOK {
		return persist.ExtractResponse{}, fmt.Errorf("extract from %s: status %d: %s", src, resp.StatusCode, bytes.TrimSpace(body))
	}
	x, err := persist.DecodeExtractResponse(body)
	if err != nil {
		return persist.ExtractResponse{}, fmt.Errorf("extract from %s: %w", src, err)
	}
	if x.Slice == nil || x.Slice.Engine == nil {
		x.Slice = &exec.SystemSnapshot{Kind: exec.KindEngine, Engine: &exec.EngineSnapshot{}}
	}
	return x, nil
}

// checkWorkerFresh refuses joining a worker that already holds state:
// its groups would collide with the live owners'.
func (r *Router) checkWorkerFresh(id string) error {
	resp, err := r.client.Get(id + "/metrics")
	if err != nil {
		return fmt.Errorf("worker %s unreachable: %w", id, err)
	}
	defer resp.Body.Close()
	var st struct {
		Watermark      int64 `json:"watermark"`
		EventsIngested int64 `json:"events_ingested"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("worker %s /metrics: %w", id, err)
	}
	if st.Watermark >= 0 || st.EventsIngested > 0 {
		return fmt.Errorf("worker %s already holds stream state (watermark %d, %d events); join a fresh worker (empty data-dir)", id, st.Watermark, st.EventsIngested)
	}
	return nil
}

// mergeSlices concatenates group slices extracted at the same barrier.
func mergeSlices(dst, src *exec.EngineSnapshot) error {
	if !src.Started && len(src.Groups) == 0 {
		return nil
	}
	if !dst.Started {
		dst.Started = true
		dst.LastTime, dst.NextClose, dst.MaxWin = src.LastTime, src.NextClose, src.MaxWin
	} else if dst.LastTime != src.LastTime || dst.NextClose != src.NextClose || dst.MaxWin != src.MaxWin {
		return fmt.Errorf("extract slices disagree on stream position (t=%d vs t=%d)", dst.LastTime, src.LastTime)
	}
	dst.Groups = append(dst.Groups, src.Groups...)
	return nil
}
