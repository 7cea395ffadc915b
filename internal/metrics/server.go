package metrics

// ServerStats is the point-in-time counter snapshot sharond serves on
// /metrics: the network-facing complement of RunStats/ParallelStats for
// an open-ended run — ingestion, backpressure, subscription, and
// watermark progress counters instead of a finite stream's totals.
type ServerStats struct {
	EdgeStats
	// Parallelism is the configured shard worker count (1 = sequential).
	Parallelism int `json:"parallelism"`

	// Migrations counts live workload changes (queries added/removed)
	// that installed a new plan.
	Migrations int64 `json:"migrations"`
	// BurstState is the adaptive runtime's debounced detector state
	// ("valley" | "burst"); empty when the server is not adaptive.
	BurstState string `json:"burst_state,omitempty"`
	// ShareTransitions/SplitTransitions count the adaptive runtime's
	// confirmed burst→shared and valley→split plan installs.
	ShareTransitions int64 `json:"share_transitions"`
	SplitTransitions int64 `json:"split_transitions"`
	// PrunedStarts counts START records the state reduction recycled at
	// birth (no open window could still observe them).
	PrunedStarts int64 `json:"pruned_starts"`
	// PeakLiveStates is the engine's peak live aggregate-state count
	// (sequential engines report live; parallel engines report 0 until
	// drained — worker goroutines own the shard state while running).
	PeakLiveStates int64 `json:"peak_live_states"`
	// GroupsLive is a gauge of the live per-group runtimes the engine
	// owns — in a cluster, each worker's share of the key space.
	GroupsLive int64 `json:"groups_live"`
	// Parallel carries the shard-occupancy counters when the engine
	// runs the parallel executor.
	Parallel *ParallelStatsJSON `json:"parallel,omitempty"`

	// Durability carries the WAL/checkpoint counters when the server
	// runs with a data directory.
	Durability *DurabilityStatsJSON `json:"durability,omitempty"`
}

// DurabilityStatsJSON is the /metrics view of the persistence layer:
// WAL size/position, checkpoint recency, and recovery progress.
type DurabilityStatsJSON struct {
	// FsyncPolicy is the configured WAL sync policy.
	FsyncPolicy string `json:"fsync_policy"`
	// WalBytes/WalSegments describe the live log; WalNextSeq is the next
	// record sequence number; WalAppended/WalSyncs count operations since
	// boot.
	WalBytes    int64 `json:"wal_bytes"`
	WalSegments int   `json:"wal_segments"`
	WalNextSeq  int64 `json:"wal_next_seq"`
	WalAppended int64 `json:"wal_appended"`
	WalSyncs    int64 `json:"wal_syncs"`
	// Checkpoints counts checkpoints written since boot;
	// LastCheckpointAgeSec is the age of the newest one (-1 before the
	// first), LastCheckpointBytes its encoded size.
	Checkpoints          int64   `json:"checkpoints"`
	LastCheckpointAgeSec float64 `json:"last_checkpoint_age_sec"`
	LastCheckpointBytes  int64   `json:"last_checkpoint_bytes"`
	// ReplayedBatches/ReplayedEvents count the WAL tail re-applied at
	// boot; Recovering reports whether replay is still running.
	ReplayedBatches int64 `json:"replayed_batches"`
	ReplayedEvents  int64 `json:"replayed_events"`
	Recovering      bool  `json:"recovering"`
}

// ParallelStatsJSON is the wire form of ParallelStats (the in-memory
// struct predates JSON exposure and carries no tags).
type ParallelStatsJSON struct {
	Workers       int     `json:"workers"`
	BatchSize     int     `json:"batch_size"`
	EventsFed     int64   `json:"events_fed"`
	Rounds        int64   `json:"rounds"`
	ResultsMerged int64   `json:"results_merged"`
	Imbalance     float64 `json:"imbalance"`
}

// WireParallelStats converts a ParallelStats snapshot to its wire form,
// or nil for the zero value (sequential run).
func WireParallelStats(p ParallelStats) *ParallelStatsJSON {
	if p.Workers == 0 {
		return nil
	}
	return &ParallelStatsJSON{
		Workers:       p.Workers,
		BatchSize:     p.BatchSize,
		EventsFed:     p.EventsFed,
		Rounds:        p.Rounds,
		ResultsMerged: p.ResultsMerged,
		Imbalance:     p.Imbalance(),
	}
}
