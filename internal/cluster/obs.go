package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/obs"
)

// laneSummary digests one lane histogram into milliseconds, nil until
// the first sample so idle lanes stay out of the JSON.
func laneSummary(h *obs.Histogram) *obs.Summary {
	snap := h.Snapshot()
	if snap.Count == 0 {
		return nil
	}
	s := snap.Summary(1e-6)
	return &s
}

// workerStageOrder fixes the exposition order of the scraped worker
// stage digests (the keys of metrics.ServerStats.Stages).
var workerStageOrder = []string{
	"decode_ndjson", "decode_binary", "decode_stream",
	"queue", "apply", "emit", "fanout",
}

// scrapeWorkers fetches every worker's JSON /metrics concurrently
// (short probe timeout — a black-holed worker costs one up=0 sample,
// not a hung scrape) for the merged cluster-wide exposition.
func (r *Router) scrapeWorkers(ids []string) map[string]*metrics.ServerStats {
	out := make(map[string]*metrics.ServerStats, len(ids))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp, err := r.probeCli.Get(id + "/metrics")
			if err != nil {
				return
			}
			defer func() {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}()
			var st metrics.ServerStats
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
				return
			}
			mu.Lock()
			out[id] = &st
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	return out
}

// writeProm renders the router's own families after the edge's (text
// exposition v0.0.4): merge and rebalance counters, the per-worker lane
// digests, and a cluster-wide view scraped live from each worker's
// /metrics.
func (r *Router) writeProm(pw *obs.PromWriter, st metrics.RouterStats) {
	pw.Gauge("sharon_router_merged_watermark", "Merge frontier: results at or below it have been emitted.", nil, float64(st.MergedWatermark))
	pw.Counter("sharon_router_autoscale_total", "Occupancy-triggered membership changes, by direction.", []string{"direction", "out"}, float64(st.AutoScaleOut))
	pw.Counter("sharon_router_autoscale_total", "Occupancy-triggered membership changes, by direction.", []string{"direction", "in"}, float64(st.AutoScaleIn))
	pw.Counter("sharon_router_autoscale_failed_total", "Autoscale attempts that aborted.", nil, float64(st.AutoScaleFailed))
	pw.Gauge("sharon_router_standby_workers", "Fresh workers remaining in the autoscale standby pool.", nil, float64(st.StandbyWorkers))
	pw.Counter("sharon_router_rebalances_total", "Completed hash-range hand-offs.", nil, float64(st.Rebalances))
	pw.Counter("sharon_router_rebalances_failed_total", "Aborted rebalances (cluster error state).", nil, float64(st.RebalancesFailed))
	pw.Gauge("sharon_router_last_rebalance_seconds", "Duration of the most recent rebalance.", nil, st.LastRebalanceMs/1e3)

	// Per-worker lane view: occupancy counters plus the lane latency
	// digests. st.Workers is sorted by id, so each family's samples come
	// out in a stable order.
	for _, ws := range st.Workers {
		pw.Gauge("sharon_router_worker_healthy", "Last health-probe outcome per worker.", []string{"worker", ws.ID}, obs.Bool(ws.Healthy))
	}
	for _, ws := range st.Workers {
		pw.Gauge("sharon_router_worker_frontier", "Per-worker punctuated merge frontier in ticks.", []string{"worker", ws.ID}, float64(ws.Frontier))
	}
	for _, ws := range st.Workers {
		pw.Counter("sharon_router_worker_events_forwarded_total", "Ingest slices routed to the worker, in events.", []string{"worker", ws.ID}, float64(ws.EventsForwarded))
	}
	for _, ws := range st.Workers {
		pw.Counter("sharon_router_worker_batches_forwarded_total", "Ingest slices routed to the worker, in batches.", []string{"worker", ws.ID}, float64(ws.BatchesForwarded))
	}
	for _, ws := range st.Workers {
		pw.Counter("sharon_router_worker_retries_429_total", "Backpressure retries against the worker.", []string{"worker", ws.ID}, float64(ws.Retries429))
	}
	for _, ws := range st.Workers {
		pw.Gauge("sharon_router_worker_pending_results", "Results buffered in the merge awaiting the frontier.", []string{"worker", ws.ID}, float64(ws.PendingResults))
	}
	for _, ws := range st.Workers {
		pw.Gauge("sharon_router_worker_delta_batches", "Retained hand-off delta depth in batches.", []string{"worker", ws.ID}, float64(ws.DeltaBatches))
	}
	for _, ws := range st.Workers {
		pw.Gauge("sharon_router_worker_groups_live", "Live group count reported by the worker.", []string{"worker", ws.ID}, float64(ws.GroupsLive))
	}
	laneDigests := []struct {
		name, help string
		pick       func(metrics.RouterWorkerStats) *obs.Summary
	}{
		{"sharon_router_worker_forward_seconds", "Forward round-trip latency per worker (including retries).",
			func(ws metrics.RouterWorkerStats) *obs.Summary { return ws.Forward }},
		{"sharon_router_worker_merge_hold_seconds", "Result hold time in the merge buffer per worker.",
			func(ws metrics.RouterWorkerStats) *obs.Summary { return ws.MergeHold }},
		{"sharon_router_worker_punct_lag_seconds", "Watermark-forwarded to punctuation-received lag per worker.",
			func(ws metrics.RouterWorkerStats) *obs.Summary { return ws.PunctLag }},
	}
	for _, d := range laneDigests {
		for _, ws := range st.Workers {
			if s := d.pick(ws); s != nil {
				pw.SummaryQuantiles(d.name, d.help, []string{"worker", ws.ID}, *s, 1e-3)
			}
		}
	}

	// Cluster-wide view: scrape every worker's JSON /metrics and merge.
	// A failed scrape shows as up=0 with its series absent; the router's
	// own counters above stay authoritative for the stream totals.
	ids := make([]string, 0, len(st.Workers))
	for _, ws := range st.Workers {
		ids = append(ids, ws.ID)
	}
	scraped := r.scrapeWorkers(ids)
	var clusterIngested, clusterGroups int64
	healthy := 0
	for _, ws := range st.Workers {
		if ws.Healthy {
			healthy++
		}
	}
	pw.Gauge("sharon_cluster_workers", "Cluster membership size.", nil, float64(len(st.Workers)))
	pw.Gauge("sharon_cluster_workers_healthy", "Workers passing health probes.", nil, float64(healthy))
	for _, id := range ids {
		pw.Gauge("sharon_cluster_worker_up", "1 when the worker's /metrics answered this scrape.", []string{"worker", id}, obs.Bool(scraped[id] != nil))
	}
	for _, id := range ids {
		if s := scraped[id]; s != nil {
			pw.Counter("sharon_cluster_worker_events_ingested_total", "Events the worker applied.", []string{"worker", id}, float64(s.EventsIngested))
			clusterIngested += s.EventsIngested
		}
	}
	for _, id := range ids {
		if s := scraped[id]; s != nil {
			pw.Counter("sharon_cluster_worker_results_emitted_total", "Results the worker emitted.", []string{"worker", id}, float64(s.ResultsEmitted))
		}
	}
	for _, id := range ids {
		if s := scraped[id]; s != nil {
			pw.Gauge("sharon_cluster_worker_groups_live", "Live groups owned by the worker.", []string{"worker", id}, float64(s.GroupsLive))
			clusterGroups += s.GroupsLive
		}
	}
	for _, stage := range workerStageOrder {
		for _, id := range ids {
			s := scraped[id]
			if s == nil {
				continue
			}
			if sum, ok := s.Stages[stage]; ok && sum.Count > 0 {
				pw.SummaryQuantiles("sharon_cluster_worker_stage_latency_seconds",
					"Worker-local per-stage latency digest, scraped from each worker.",
					[]string{"worker", id, "stage", stage}, sum, 1e-3)
			}
		}
	}
	pw.Counter("sharon_cluster_events_ingested_total", "Events applied across all reachable workers.", nil, float64(clusterIngested))
	pw.Gauge("sharon_cluster_groups_live", "Live groups across all reachable workers.", nil, float64(clusterGroups))
}
