// Package obs is the module's dependency-free observability layer:
// lock-free log-bucketed histograms cheap enough for //sharon:hotpath
// code, a hand-rolled Prometheus text-exposition encoder (and the
// minimal parser the tooling uses to read it back), and a
// ring-buffered span tracer. Everything here is stdlib-only.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	// histSubBits fixes the histogram resolution: each power-of-two
	// octave is split into 2^histSubBits linear sub-buckets, bounding
	// the relative quantile error at 1/2^histSubBits = 12.5%.
	histSubBits = 3
	histSub     = 1 << histSubBits

	// NumBuckets covers all non-negative int64 values: buckets 0..15
	// are exact, then 8 sub-buckets per octave up to 2^63-1 (whose
	// 63-bit length makes bucket 487 the last reachable one).
	NumBuckets = (63-histSubBits-1)*histSub + 2*histSub
)

// Histogram is a fixed-size log-bucketed histogram with atomic
// counters. The zero value is ready to use; Record never allocates and
// never blocks, so it is safe from hot-path code, under locks, and
// inside //sharon:deterministic emit paths. Values are unitless int64s
// (callers record nanoseconds for latency series, counts for size
// series); negative values clamp to 0.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Record adds one observation.
//
//sharon:hotpath
//sharon:locksafe
//sharon:deterministic
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// bucketIndex maps a non-negative value to its bucket: values < 16 map
// exactly, larger values to (octave, sub-bucket) pairs.
//
//sharon:hotpath
//sharon:locksafe
//sharon:deterministic
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < 2*histSub {
		return int(u)
	}
	shift := uint(bits.Len64(u)) - histSubBits - 1
	return int(uint64(shift)<<histSubBits + u>>shift)
}

// BucketUpper returns the inclusive upper bound of bucket i's value
// range (the Prometheus `le` boundary before unit scaling).
func BucketUpper(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	shift := uint(i>>histSubBits) - 1
	upper := (uint64(histSub+i&(histSub-1))+1)<<shift - 1
	if upper > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(upper)
}

// Bucket is one non-empty histogram bucket in a Snapshot.
type Bucket struct {
	// Upper is the inclusive upper bound of the bucket's value range.
	Upper int64 `json:"upper"`
	// Count is the number of observations in the bucket.
	Count int64 `json:"count"`
}

// Snapshot is a point-in-time copy of a histogram. Counters are read
// individually, so a snapshot taken during concurrent recording may be
// off by in-flight observations; it is internally usable regardless.
type Snapshot struct {
	Count int64
	Sum   int64
	Max   int64
	// Buckets holds the non-empty buckets in ascending Upper order.
	Buckets []Bucket
}

// Snapshot copies the histogram's current counters. Pure atomic loads
// with no I/O; safe to call with caller locks held.
//
//sharon:locksafe
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Upper: BucketUpper(i), Count: c})
		}
	}
	return s
}

// Merge adds other's counters into h. It is safe against concurrent
// recording on either side.
func (h *Histogram) Merge(other *Histogram) {
	for i := range other.buckets {
		if c := other.buckets[i].Load(); c > 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	om := other.max.Load()
	for {
		old := h.max.Load()
		if om <= old || h.max.CompareAndSwap(old, om) {
			break
		}
	}
}

// Quantile estimates the q-th quantile (0 < q <= 1) as the upper bound
// of the bucket holding that rank, capped at the observed maximum.
// Relative error is bounded by the bucket width: at most 12.5%.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			if b.Upper > s.Max {
				return s.Max
			}
			return b.Upper
		}
	}
	return s.Max
}

// Summary is the compact quantile digest of a histogram exposed on the
// JSON /metrics form. Values carry whatever unit the caller scaled to
// (the servers expose latency stages in milliseconds).
type Summary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// Summary digests the snapshot, multiplying every value by scale
// (1e-6 turns recorded nanoseconds into milliseconds; 1 keeps counts).
// Pure math; safe to call with caller locks held.
//
//sharon:locksafe
func (s Snapshot) Summary(scale float64) Summary {
	return Summary{
		Count: s.Count,
		Sum:   float64(s.Sum) * scale,
		P50:   float64(s.Quantile(0.50)) * scale,
		P90:   float64(s.Quantile(0.90)) * scale,
		P99:   float64(s.Quantile(0.99)) * scale,
		P999:  float64(s.Quantile(0.999)) * scale,
		Max:   float64(s.Max) * scale,
	}
}
