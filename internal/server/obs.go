package server

import (
	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/obs"
)

// wireBatchEvents is the per-frame batch-size distribution at the
// binary decode edge. It is recorded inside decodeWireEvents — on the
// hot-path call graph, which is the point: obs recording provably
// passes the hotpathalloc gate. Process-global because the decoder is
// shared API surface (the router calls DecodeWireBatch too); one
// sharond process hosts one server, and the router exposes its own.
var wireBatchEvents obs.Histogram

// writeProm renders the server's own families after the edge's
// (text exposition v0.0.4).
func writeProm(pw *obs.PromWriter, st metrics.ServerStats) {
	pw.Gauge("sharon_parallelism", "Configured shard worker count.", nil, float64(st.Parallelism))
	pw.Counter("sharon_migrations_total", "Live workload changes that installed a new plan.", nil, float64(st.Migrations))
	if st.BurstState != "" {
		pw.Gauge("sharon_burst_state", "Adaptive detector state (0 = valley/split, 1 = burst/shared).", nil, obs.Bool(st.BurstState == "burst"))
	}
	pw.Counter("sharon_share_transitions_total", "Confirmed burst transitions that installed the shared plan.", nil, float64(st.ShareTransitions))
	pw.Counter("sharon_split_transitions_total", "Confirmed valley transitions that split back to per-query plans.", nil, float64(st.SplitTransitions))
	pw.Counter("sharon_pruned_starts_total", "START records recycled at birth by the state reduction.", nil, float64(st.PrunedStarts))
	pw.Gauge("sharon_peak_live_states", "Peak live aggregate-state count.", nil, float64(st.PeakLiveStates))
	pw.Gauge("sharon_groups_live", "Live per-group runtimes owned by the engine.", nil, float64(st.GroupsLive))
	pw.Histogram("sharon_wire_batch_events", "Events per binary wire frame at the decode edge.", nil, wireBatchEvents.Snapshot(), 1)

	if p := st.Parallel; p != nil {
		pw.Gauge("sharon_parallel_workers", "Parallel executor worker count.", nil, float64(p.Workers))
		pw.Counter("sharon_parallel_events_fed_total", "Events fed to shard workers.", nil, float64(p.EventsFed))
		pw.Counter("sharon_parallel_rounds_total", "Parallel feed/merge rounds.", nil, float64(p.Rounds))
		pw.Counter("sharon_parallel_results_merged_total", "Results merged from shard workers.", nil, float64(p.ResultsMerged))
		pw.Gauge("sharon_parallel_imbalance", "Shard occupancy imbalance ratio.", nil, p.Imbalance)
	}
	if d := st.Durability; d != nil {
		pw.Gauge("sharon_wal_bytes", "Live WAL size in bytes.", nil, float64(d.WalBytes))
		pw.Gauge("sharon_wal_segments", "Live WAL segment count.", nil, float64(d.WalSegments))
		pw.Counter("sharon_wal_appended_total", "WAL records appended since boot.", nil, float64(d.WalAppended))
		pw.Counter("sharon_wal_syncs_total", "WAL fsyncs since boot.", nil, float64(d.WalSyncs))
		pw.Counter("sharon_checkpoints_total", "Checkpoints written since boot.", nil, float64(d.Checkpoints))
		pw.Gauge("sharon_last_checkpoint_age_seconds", "Age of the newest checkpoint (-1 before the first).", nil, d.LastCheckpointAgeSec)
		pw.Gauge("sharon_recovering", "1 while WAL replay is running.", nil, obs.Bool(d.Recovering))
	}
}
