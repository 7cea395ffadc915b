package server

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/obs"
)

// queryEntry is one registered query: its global ID (stable across live
// workload changes), its source text, and its compiled form.
type queryEntry struct {
	ID   int
	Text string
	Q    *sharon.Query
}

// workloadOf assembles the entries' compiled queries.
func workloadOf(entries []queryEntry) sharon.Workload {
	w := make(sharon.Workload, len(entries))
	for i, e := range entries {
		w[i] = e.Q
	}
	return w
}

// sink forwards one system's emitted results to the hub, bounded to the
// window range [lo, hi) the system owns in the live-migration protocol
// (a fresh system owns [0, inf); a draining one is capped at the
// boundary). hi is atomic because the parallel merge goroutine reads it
// while the pump installs a new bound at a workload change.
type sink struct {
	srv *Server
	qs  map[int]*sharon.Query
	lo  int64
	hi  atomic.Int64
}

func newSink(srv *Server, entries []queryEntry, lo int64) *sink {
	qs := make(map[int]*sharon.Query, len(entries))
	for _, e := range entries {
		qs[e.ID] = e.Q
	}
	sk := &sink{srv: srv, qs: qs, lo: lo}
	sk.hi.Store(math.MaxInt64)
	return sk
}

// onResult is the OnResult callback: encode once, retain in the replay
// ring (the resumable-subscription backfill, persisted with each
// checkpoint), publish to every matching subscriber. Ring before hub: a
// subscriber resuming concurrently sees the emission in its ring read,
// its live channel, or both — never neither — and deduplicates by seq.
func (sk *sink) onResult(r sharon.Result) {
	if r.Win < sk.lo || r.Win >= sk.hi.Load() {
		return
	}
	seq := sk.srv.seq.Add(1) - 1
	sk.srv.edge.Emitted.Add(1)
	payload := EncodeResult(sk.qs, seq, r)
	// Ingest-to-emit: attribute the result to the admit stamp of the
	// step the pump is applying (the batch whose events or watermark
	// closed this window). Reached only through the dynamic OnResult
	// seam, so the wall clock here never taints a deterministic path.
	now := time.Now().UnixNano()
	if stamp := sk.srv.batchStamp.Load(); stamp > 0 {
		sk.srv.emit.Record(now - stamp)
		if q, ok := sk.qs[r.Query]; ok && sk.srv.lastWinTraced.Swap(r.Win) != r.Win {
			sk.srv.edge.Tracer.Record(obs.Span{
				Kind:      "window",
				Start:     stamp,
				DurNs:     now - stamp,
				Seq:       seq,
				Watermark: q.Window.End(r.Win),
			})
		}
	}
	sk.srv.edge.Ring.Append(seq, payload)
	sk.srv.edge.Hub.Publish(r.Query, int64(r.Group), seq, payload, now)
}

// builtSystem pairs a running system with its sink and metadata.
type builtSystem struct {
	sys     *sharon.System
	sink    *sink
	entries []queryEntry
	win     sharon.Window // the uniform window (the first query's when partitioned)
	plan    sharon.Plan   // initial plan (nil when partitioned)
}

// buildSystem compiles the entries into a running system with a fresh
// sink emitting windows >= lo. plan, when non-nil, bypasses the
// optimizer (the live-registration path optimizes first to compute the
// plan diff, then hands the chosen plan over); dynamic mode installs
// its own plans and drops it.
func (s *Server) buildSystem(entries []queryEntry, rates sharon.Rates, plan sharon.Plan, lo int64) (*builtSystem, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("server: empty workload")
	}
	w := workloadOf(entries)
	sk := newSink(s, entries, lo)
	opts := sharon.Options{
		Rates:       rates,
		Plan:        plan,
		OnResult:    sk.onResult,
		EmitEmpty:   s.cfg.EmitEmpty,
		Parallelism: s.cfg.Parallelism,
	}
	if s.cfg.Dynamic {
		opts.Plan = nil
		opts.Dynamic = &sharon.DynamicOptions{
			OnMigrate: func(int64, sharon.Plan, sharon.Plan) { s.migrations.Add(1) },
		}
		if s.cfg.Adaptive {
			opts.Dynamic.Adaptive = true
			// Transition counters and the detector-state gauge are fed
			// from the decision callback (serialized across shards), not
			// polled: shard state is worker-owned while the run is live.
			opts.Dynamic.OnDecision = func(_ int64, state sharon.BurstState, _ sharon.Plan) {
				s.burstState.Store(int32(state))
				if state == sharon.Burst {
					s.shareTrans.Add(1)
				} else {
					s.splitTrans.Add(1)
				}
			}
		}
	}
	sys, err := sharon.NewSystem(w, opts)
	if err != nil {
		return nil, err
	}
	return &builtSystem{sys: sys, sink: sk, entries: entries, win: w[0].Window, plan: sys.Plan()}, nil
}
