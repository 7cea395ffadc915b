package metrics

import "github.com/sharon-project/sharon/internal/obs"

// RouterStats is the /metrics snapshot of a cluster router: ingestion
// and merge progress plus the per-worker shard-occupancy and rebalance
// counters.
type RouterStats struct {
	EdgeStats
	// MergedWatermark is the merge frontier: every result for windows
	// ending at or before it has been emitted downstream.
	MergedWatermark int64 `json:"merged_watermark"`

	// AutoScaleOut/AutoScaleIn count occupancy-triggered join/leave
	// rebalances the router launched on its own; AutoScaleFailed counts
	// attempts that aborted. StandbyWorkers is the remaining pool of
	// joinable fresh workers.
	AutoScaleOut    int64 `json:"autoscale_out"`
	AutoScaleIn     int64 `json:"autoscale_in"`
	AutoScaleFailed int64 `json:"autoscale_failed"`
	StandbyWorkers  int   `json:"standby_workers"`

	// Rebalances counts completed hash-range hand-offs (worker death,
	// join, leave); RebalancesFailed counts aborted ones (the cluster
	// enters the error state).
	Rebalances       int64 `json:"rebalances"`
	RebalancesFailed int64 `json:"rebalances_failed"`
	// LastRebalanceMs is the duration of the most recent rebalance.
	LastRebalanceMs float64 `json:"last_rebalance_ms"`

	// Error is a fatal cluster condition.
	Error string `json:"error,omitempty"`

	// Workers is the per-worker view: membership, merge frontier, and
	// shard occupancy.
	Workers []RouterWorkerStats `json:"workers"`
}

// RouterWorkerStats is one worker's slice of the router's view.
type RouterWorkerStats struct {
	// ID is the ring member id (the worker URL).
	ID string `json:"id"`
	// Healthy is the last health-probe outcome.
	Healthy bool `json:"healthy"`
	// Frontier is the worker's last punctuated watermark: every result
	// it owes for windows ending at or before it has been received.
	Frontier int64 `json:"frontier"`
	// EventsForwarded / BatchesForwarded count the ingest slices routed
	// to this worker; Retries429 its backpressure retries.
	EventsForwarded  int64 `json:"events_forwarded"`
	BatchesForwarded int64 `json:"batches_forwarded"`
	Retries429       int64 `json:"retries_429"`
	// PendingResults is the number of results buffered in the merge
	// awaiting the global frontier.
	PendingResults int `json:"pending_results"`
	// DeltaBatches is the retained hand-off delta (steps newer than the
	// worker's frontier, replayed onto a successor if this worker dies).
	DeltaBatches int `json:"delta_batches"`
	// GroupsLive is the worker's live group count (from its /metrics) —
	// the cluster's shard-occupancy signal.
	GroupsLive int64 `json:"groups_live"`

	// Forward digests the round-trip latency of ingest POSTs to this
	// worker (including backpressure retries); MergeHold the time a
	// result waited in the merge buffer between first arrival and the
	// frontier passing its window; PunctLag the lag between forwarding a
	// watermark and this worker's punctuation covering it. Milliseconds;
	// nil until the lane records a sample.
	Forward   *obs.Summary `json:"forward_ms,omitempty"`
	MergeHold *obs.Summary `json:"merge_hold_ms,omitempty"`
	PunctLag  *obs.Summary `json:"punct_lag_ms,omitempty"`
}
