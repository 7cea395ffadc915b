package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/exec"
	"github.com/sharon-project/sharon/internal/persist"
)

// Live query registration (the paper's workload-evolution scenario,
// over the wire): POST /queries and DELETE /queries/{id} re-run the
// Sharon optimizer on the updated workload and migrate to the new plan
// at a window boundary, exactly like exec.Dynamic's §7.4 protocol but
// driven by workload changes instead of rate drift — the old system
// keeps consuming the stream until every window it owns (those starting
// before the boundary) has closed, the new system owns the windows from
// the boundary on, and each sink is window-capped so every window is
// emitted exactly once. The response reports the plan diff and the
// migration count.

// ctlReq is a control-plane request executed on the pump goroutine,
// which owns the engine and the registry: a live workload change
// (add/remove) or a cluster hand-off (adopt/extract, see cluster.go).
type ctlReq struct {
	add     []string
	remove  []int
	adopt   *persist.AdoptRecord
	extract *ExtractRequest
	reply   chan ctlReply
}

// ctlReply is the handler-visible outcome: a JSON body, or a raw
// binary body (cluster extract slices) when raw is non-nil.
type ctlReply struct {
	status int
	body   any
	raw    []byte
}

// planDiff describes how the sharing plan changed at a migration.
type planDiff struct {
	Added   []string `json:"added"`
	Removed []string `json:"removed"`
}

// diffPlans compares plans as candidate sets; removed candidates are
// rendered against the old workload (they may reference removed
// queries), added ones against the new.
func (s *Server) diffPlans(oldPlan sharon.Plan, oldW sharon.Workload, newPlan sharon.Plan, newW sharon.Workload) planDiff {
	d := planDiff{Added: []string{}, Removed: []string{}}
	oldKeys := make(map[string]bool, len(oldPlan))
	for _, c := range oldPlan {
		oldKeys[c.Key()] = true
	}
	newKeys := make(map[string]bool, len(newPlan))
	for _, c := range newPlan {
		newKeys[c.Key()] = true
		if !oldKeys[c.Key()] {
			d.Added = append(d.Added, c.Format(s.reg, newW))
		}
	}
	for _, c := range oldPlan {
		if !newKeys[c.Key()] {
			d.Removed = append(d.Removed, c.Format(s.reg, oldW))
		}
	}
	return d
}

// ctlError carries a user-addressable control-plane failure.
type ctlError struct {
	status int
	msg    string
}

func (e *ctlError) Error() string { return e.msg }

func ctlErrf(status int, format string, args ...any) *ctlError {
	return &ctlError{status: status, msg: fmt.Sprintf(format, args...)}
}

// editEntries assembles the post-change query list: removals by ID,
// additions parsed and uniformity-checked against the running workload.
// assigned supplies the IDs for added queries (WAL replay re-applies a
// recorded change); nil allocates fresh IDs from s.nextID. Pump
// goroutine (owns the registry and nextID).
func (s *Server) editEntries(add []string, remove []int, assigned []int) ([]queryEntry, []int, *ctlError) {
	entries := append([]queryEntry(nil), s.cur.entries...)
	for _, id := range remove {
		at := -1
		for i, e := range entries {
			if e.ID == id {
				at = i
				break
			}
		}
		if at < 0 {
			return nil, nil, ctlErrf(http.StatusNotFound, "no query %d", id)
		}
		entries = append(entries[:at], entries[at+1:]...)
	}
	if assigned != nil && len(assigned) != len(add) {
		return nil, nil, ctlErrf(http.StatusBadRequest, "recorded change has %d ids for %d queries", len(assigned), len(add))
	}
	ids := make([]int, 0, len(add))
	for i, text := range add {
		q, err := sharon.ParseQuery(text, s.reg)
		if err != nil {
			return nil, nil, ctlErrf(http.StatusBadRequest, "parse: %v", err)
		}
		// The hand-off boundary is a window index of the current uniform
		// window; a query with a different window (or grouping or
		// predicates) would reinterpret that index and emit windows that
		// miss their pre-registration events. Enforce uniformity against
		// the running system, not just within the new workload.
		if len(exec.PartitionWorkload(sharon.Workload{s.cur.entries[0].Q, q})) != 1 {
			return nil, nil, ctlErrf(http.StatusBadRequest,
				"query %q does not match the running workload's window/grouping/predicates (live registration requires a uniform workload)", text)
		}
		if assigned != nil {
			q.ID = assigned[i]
			if q.ID >= s.nextID {
				s.nextID = q.ID + 1
			}
		} else {
			q.ID = s.nextID
			s.nextID++
		}
		ids = append(ids, q.ID)
		entries = append(entries, queryEntry{ID: q.ID, Text: text, Q: q})
	}
	if len(entries) == 0 {
		return nil, nil, ctlErrf(http.StatusBadRequest, "workload cannot become empty")
	}
	return entries, ids, nil
}

// ctlRates resolves the rates a workload change optimizes under.
func (s *Server) ctlRates(newW sharon.Workload) sharon.Rates {
	rates := s.measuredRates()
	if rates == nil {
		return s.configuredRates(newW)
	}
	// Types the stream has not shown yet still need a rate entry.
	for t := range newW.Types() {
		if _, ok := rates[t]; !ok {
			rates[t] = 1
		}
	}
	return rates
}

// buildNextWorkload runs the fallible half of a workload change: the
// hand-off boundary and the new system, built but not yet installed.
// Pump goroutine.
func (s *Server) buildNextWorkload(entries []queryEntry, rates sharon.Rates, plan sharon.Plan) (int64, *builtSystem, *ctlError) {
	// The new system owns windows from the first one starting after the
	// watermark; before any event everything starts fresh at window 0.
	boundary := int64(0)
	if s.wmState >= 0 {
		boundary = s.cur.win.LastContaining(s.wmState) + 1
	}
	next, err := s.buildSystem(entries, rates, plan, boundary)
	if err != nil {
		return 0, nil, ctlErrf(http.StatusBadRequest, "%v", err)
	}
	return boundary, next, nil
}

// installWorkload swaps the built system in, retiring (or draining) the
// old one. Infallible by construction: everything that can fail runs in
// buildNextWorkload, BEFORE the change is logged to the WAL — a logged
// change must always be installable, or replaying it would wedge
// recovery on a failure the live path shrugged off. Pump goroutine.
//
//sharon:applies
func (s *Server) installWorkload(entries []queryEntry, boundary int64, next *builtSystem) {
	if boundary == 0 {
		// Nothing was ever fed: replace outright, nothing to drain.
		s.cur.sys.Close()
	} else {
		s.cur.sink.hi.Store(boundary)
		s.old = s.cur
		s.oldBoundary = boundary
	}
	s.cur = next
	s.migrations.Add(1)
	s.publishView()
	s.edge.Log.Info("workload change", "queries", len(entries), "boundary_window", boundary, "plan", s.loadView().plan)
}

// ctlApplicable reports whether a workload change can run right now.
func (s *Server) ctlApplicable() *ctlError {
	if s.old != nil {
		return ctlErrf(http.StatusConflict, "previous workload change still draining; retry after its boundary closes")
	}
	if s.cur.sys.Segments() != 1 {
		return ctlErrf(http.StatusConflict, "live registration requires a uniform workload (same window, grouping, predicates)")
	}
	return nil
}

// applyCtl executes a live workload change on the pump goroutine.
//
//sharon:pump
func (s *Server) applyCtl(req *ctlReq) {
	reply := func(status int, body any) {
		req.reply <- ctlReply{status: status, body: body}
	}
	fail := func(ce *ctlError) { reply(ce.status, map[string]string{"error": ce.msg}) }
	if ce := s.ctlApplicable(); ce != nil {
		fail(ce)
		return
	}
	entries, assigned, ce := s.editEntries(req.add, req.remove, nil)
	if ce != nil {
		fail(ce)
		return
	}
	newW := workloadOf(entries)
	rates := s.ctlRates(newW)
	plan, _, err := sharon.Optimize(newW, rates)
	if err != nil {
		fail(ctlErrf(http.StatusBadRequest, "optimize: %v", err))
		return
	}
	oldPlan, oldW := s.cur.plan, workloadOf(s.cur.entries)
	boundary, next, ce := s.buildNextWorkload(entries, rates, plan)
	if ce != nil {
		fail(ce)
		return
	}
	// Log the change — with the assigned IDs and the chosen plan, the
	// two things replay cannot rederive — after the fallible build and
	// before the infallible install, so a logged record always replays.
	if s.wal != nil {
		rec := persist.CtlRecord{Add: req.add, Remove: req.remove, AssignedIDs: assigned, Plan: plan}
		seq, werr := s.wal.Append(persist.RecCtl, persist.EncodeCtlRecord(rec))
		if werr != nil {
			next.sys.Close()
			s.fail(werr)
			fail(ctlErrf(http.StatusInternalServerError, "wal: %v", werr))
			return
		}
		s.appliedSeq = seq
	}
	s.installWorkload(entries, boundary, next)
	reply(http.StatusOK, map[string]any{
		"queries":              s.queryList(),
		"plan":                 s.loadView().plan,
		"plan_diff":            s.diffPlans(oldPlan, oldW, next.plan, newW),
		"migrations":           s.migrations.Load(),
		"boundary_window":      boundary,
		"boundary_start_tick":  s.cur.win.Start(boundary),
		"draining_old_windows": s.old != nil,
	})
}

// replayCtl re-applies a recorded workload change during WAL recovery:
// the same install path as applyCtl, but with the recorded IDs and plan
// instead of fresh allocation and a fresh optimizer run.
func (s *Server) replayCtl(rec persist.CtlRecord) error {
	if ce := s.ctlApplicable(); ce != nil {
		return fmt.Errorf("replay ctl: %s", ce.msg)
	}
	entries, _, ce := s.editEntries(rec.Add, rec.Remove, rec.AssignedIDs)
	if ce != nil {
		return fmt.Errorf("replay ctl: %s", ce.msg)
	}
	rates := s.ctlRates(workloadOf(entries))
	boundary, next, ce := s.buildNextWorkload(entries, rates, rec.Plan)
	if ce != nil {
		return fmt.Errorf("replay ctl: %s", ce.msg)
	}
	s.installWorkload(entries, boundary, next)
	return nil
}

// sendCtl submits a control request through the same bounded queue as
// the data plane (the pump serializes both) and awaits the reply.
func (s *Server) sendCtl(w http.ResponseWriter, req *ctlReq) {
	req.reply = make(chan ctlReply, 1)
	if !s.edge.Enqueue(w, pumpMsg{Ctl: req}) {
		return
	}
	select {
	case rep := <-req.reply:
		if rep.raw != nil {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(rep.status)
			_, _ = w.Write(rep.raw)
			return
		}
		WriteJSON(w, rep.status, rep.body)
	case <-time.After(30 * time.Second):
		WriteErr(w, http.StatusGatewayTimeout, "control request timed out")
	}
}

// queryList renders the registered queries for responses; pump or
// handler goroutine (reads the immutable view snapshot).
func (s *Server) queryList() []map[string]any {
	v := s.loadView()
	out := make([]map[string]any, len(v.entries))
	for i, e := range v.entries {
		out[i] = map[string]any{"id": e.ID, "label": e.Q.Label(), "query": e.Text}
	}
	return out
}

func (s *Server) handleQueriesGet(w http.ResponseWriter, r *http.Request) {
	v := s.loadView()
	WriteJSON(w, http.StatusOK, map[string]any{
		"queries":    s.queryList(),
		"plan":       v.plan,
		"plan_score": v.score,
		"uniform":    v.uniform,
		"migrations": s.migrations.Load(),
	})
}

func (s *Server) handleQueriesPost(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Query string `json:"query"`
	}
	lim := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(lim).Decode(&body); err != nil || strings.TrimSpace(body.Query) == "" {
		WriteErr(w, http.StatusBadRequest, `want {"query":"RETURN ... PATTERN SEQ(...) ..."}`)
		return
	}
	s.sendCtl(w, &ctlReq{add: []string{body.Query}})
}

func (s *Server) handleQueriesDelete(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.PathValue("id"), "q")
	id, err := strconv.Atoi(raw)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "bad query id %q", r.PathValue("id"))
		return
	}
	s.sendCtl(w, &ctlReq{remove: []int{id}})
}
