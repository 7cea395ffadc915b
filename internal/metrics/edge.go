package metrics

import "github.com/sharon-project/sharon/internal/obs"

// EdgeStats is the request edge's share of /metrics: ingestion,
// backpressure, watermark, fan-out and stage-latency counters. Both
// ServerStats and RouterStats embed it, so its keys sit at the top
// level of either JSON document.
type EdgeStats struct {
	// UptimeSec is the wall-clock seconds since the tier started.
	UptimeSec float64 `json:"uptime_sec"`
	// Queries is the number of queries served.
	Queries int `json:"queries"`

	// EventsIngested counts events accepted past the late filter (into
	// the engine on a server, forwarded on a router).
	EventsIngested int64 `json:"events_ingested"`
	// EventsDroppedLate counts events discarded for arriving at or
	// behind the stream watermark.
	EventsDroppedLate int64 `json:"events_dropped_late"`
	// EventsDroppedUnknownType counts events whose type matches no
	// registered query's pattern alphabet.
	EventsDroppedUnknownType int64 `json:"events_dropped_unknown_type"`
	// Batches counts accepted ingest batches.
	Batches int64 `json:"batches"`
	// RejectedBackpressure counts ingest batches refused with 429
	// because the bounded ingest queue was full.
	RejectedBackpressure int64 `json:"rejected_backpressure"`
	// RejectedOversize counts ingest requests refused with 413 for
	// exceeding the request body limit.
	RejectedOversize int64 `json:"rejected_oversize"`
	// IngestQueueDepth/IngestQueueCap describe the bounded ingest queue.
	IngestQueueDepth int `json:"ingest_queue_depth"`
	IngestQueueCap   int `json:"ingest_queue_cap"`
	// Watermark is the stream watermark in ticks (max event time or
	// explicit watermark seen; -1 before the first).
	Watermark int64 `json:"watermark"`

	// ResultsEmitted counts results published downstream (the
	// emission sequence height); ResultsDelivered counts result
	// messages fanned out to subscribers (one per result per matching
	// subscriber).
	ResultsEmitted   int64 `json:"results_emitted"`
	ResultsDelivered int64 `json:"results_delivered"`
	// Subscribers is the number of live result subscriptions.
	Subscribers int `json:"subscribers"`
	// SlowConsumerDisconnects counts subscribers dropped because the
	// broadcast log's retention overran their cursor.
	SlowConsumerDisconnects int64 `json:"slow_consumer_disconnects"`

	// FanoutFramesEncoded counts shared frames rendered by the broadcast
	// tier — one per published result or control event, never multiplied
	// by subscriber count (the encode-once invariant).
	// FanoutFramesDelivered counts frames written into subscriber
	// streams (one per frame per matching subscriber).
	FanoutFramesEncoded   int64 `json:"fanout_frames_encoded"`
	FanoutFramesDelivered int64 `json:"fanout_frames_delivered"`
	// FanoutDroppedSlow/FanoutDroppedFiltered count subscribers ended
	// with an explicit `dropped` terminal frame on log overrun
	// (slow-consumer = unfiltered, filtered-resume = filtered stream
	// that cannot verify its own loss).
	FanoutDroppedSlow     int64 `json:"fanout_dropped_slow"`
	FanoutDroppedFiltered int64 `json:"fanout_dropped_filtered"`

	// Draining reports whether the tier is shutting down.
	Draining bool `json:"draining"`

	// Stages digests the per-stage pipeline latency histograms (values
	// in milliseconds; a server's "wire_batch_events" is a size
	// distribution in events). A server's keys are decode_ndjson,
	// decode_binary, decode_stream, queue, apply, emit, fanout; a
	// router's decode_ndjson, decode_binary, queue, forward, fanout —
	// see README "Observability" for the stage boundaries.
	Stages map[string]obs.Summary `json:"stages,omitempty"`
}
