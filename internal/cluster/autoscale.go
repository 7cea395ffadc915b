package cluster

import (
	"net/http"
	"time"
)

// Elastic membership: the router watches the same per-worker occupancy
// gauge it already exposes on /metrics (groups_live, refreshed by the
// health loop) and drives the existing checkpoint-handoff join/leave
// machinery when occupancy crosses the configured band. No new
// rebalance path exists — an autoscale operation is byte-for-byte the
// ctl a POST/DELETE on /cluster/workers would have injected, so every
// invariant the manual path enforces (fresh-worker check, barrier,
// extract-then-install ordering) holds for the automatic one.
//
// Scale-out joins a worker from the standby pool: pre-provisioned,
// running, and empty — join refuses stateful workers, so the pool must
// hold fresh ones. Scale-in drains the least-occupied worker; the
// drained worker keeps its (now-empty-but-initialized) data dir and is
// NOT returned to the pool, since a rejoin would need a fresh dir.

// autoscaleLoop evaluates the occupancy band every AutoScaleEvery until
// the pump exits. Disabled unless a band edge is configured.
func (r *Router) autoscaleLoop() {
	if r.cfg.OccupancyHigh <= 0 && r.cfg.OccupancyLow <= 0 {
		return
	}
	t := time.NewTicker(r.cfg.AutoScaleEvery)
	defer t.Stop()
	for {
		select {
		case <-r.edge.Done():
			return
		case <-t.C:
		}
		r.autoscaleTick()
	}
}

func (r *Router) autoscaleTick() {
	if r.edge.Failed() != "" {
		return
	}
	if time.Since(time.Unix(0, r.lastAuto.Load())) < r.cfg.AutoScaleCooldown {
		return
	}

	r.mu.Lock()
	var maxG, minG int64 = -1, -1
	var minID string
	members := len(r.lanes)
	healthyAll := members > 0
	for id, ln := range r.lanes {
		if !ln.healthy.Load() {
			healthyAll = false
			continue
		}
		g := ln.groups.Load()
		if g > maxG {
			maxG = g
		}
		if minG < 0 || g < minG {
			minG, minID = g, id
		}
	}
	var spec *WorkerSpec
	if r.cfg.OccupancyHigh > 0 && maxG > r.cfg.OccupancyHigh && len(r.standby) > 0 {
		s := r.standby[0]
		r.standby = r.standby[1:]
		spec = &s
	}
	r.mu.Unlock()

	switch {
	case spec != nil:
		r.lastAuto.Store(time.Now().UnixNano())
		r.edge.Log.Info("autoscale: occupancy above band, joining standby worker",
			"max_groups", maxG, "band_high", r.cfg.OccupancyHigh, "worker", spec.URL)
		if r.runCtl(&routerCtl{join: spec}) {
			r.autoOut.Add(1)
		} else {
			r.autoScaleFail.Add(1)
			r.mu.Lock()
			r.standby = append(r.standby, *spec)
			r.mu.Unlock()
		}
	case r.cfg.OccupancyLow > 0 && healthyAll && members > 1 && maxG >= 0 && maxG < r.cfg.OccupancyLow:
		r.lastAuto.Store(time.Now().UnixNano())
		r.edge.Log.Info("autoscale: occupancy below band, draining least-occupied worker",
			"max_groups", maxG, "band_low", r.cfg.OccupancyLow, "worker", minID)
		if r.runCtl(&routerCtl{leave: minID}) {
			r.autoIn.Add(1)
		} else {
			r.autoScaleFail.Add(1)
		}
	}
}

// runCtl submits a membership change through the pump — the autoscale
// twin of sendCtl, with no HTTP client waiting on the outcome. The
// enqueue is non-blocking: a saturated ingest queue means the cluster
// is busy, and the band will still be crossed at the next tick.
func (r *Router) runCtl(ctl *routerCtl) bool {
	ctl.reply = make(chan ctlResult, 1)
	if !r.edge.Offer(routerMsg{Ctl: ctl}) {
		return false
	}
	select {
	case res := <-ctl.reply:
		return res.status == http.StatusOK
	case <-r.edge.Done():
		return false
	case <-time.After(2 * time.Minute):
		return false
	}
}
