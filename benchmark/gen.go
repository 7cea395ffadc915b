package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/gen"
)

// mix is the splitmix64 finalizer: a stateless hash from (seed, index)
// to 64 well-scrambled bits, so any batch of any stream can be produced
// on its own without replaying the generator.
func mix(seed, i uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + i + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit maps 64 hashed bits to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// zipf draws keys 0..n-1 with P(k) proportional to 1/(k+1)^s by
// inverting the cumulative distribution. gen.Generate only draws uniform
// keys, so the churn workload samples its own.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	cum := make([]float64, n)
	var sum float64
	for k := range cum {
		sum += 1 / math.Pow(float64(k+1), s)
		cum[k] = sum
	}
	for k := range cum {
		cum[k] /= sum
	}
	return &zipf{cum: cum}
}

func (z *zipf) key(u float64) int {
	k := sort.SearchFloat64s(z.cum, u)
	if k >= len(z.cum) {
		k = len(z.cum) - 1
	}
	return k
}

// source yields the events of one workload's stream by index. Event i
// carries tick offset+i+1, so ticks are strictly increasing and one
// event wide; fill writes events [from, from+len(dst)).
type source interface {
	fill(dst []sharon.Event, from int, offset int64)
}

// servedSource is the served stream: types cycle A..D by index, keys and
// values come from the seeded hash.
type servedSource struct{ seed uint64 }

func (s servedSource) fill(dst []sharon.Event, from int, offset int64) {
	for j := range dst {
		i := uint64(from + j)
		h := mix(s.seed, i)
		dst[j] = sharon.Event{
			Time: offset + int64(i) + 1,
			Type: sharon.Type(i%uint64(len(servedTypes)) + 1),
			Key:  sharon.GroupKey(h % servedKeys),
			Val:  float64(h>>32%7 + 1),
		}
	}
}

// churnSource draws uniform types and Zipf-skewed keys.
type churnSource struct {
	seed   uint64
	ntypes uint64
	keys   *zipf
}

func (s churnSource) fill(dst []sharon.Event, from int, offset int64) {
	for j := range dst {
		i := uint64(from + j)
		h := mix(s.seed, i)
		dst[j] = sharon.Event{
			Time: offset + int64(i) + 1,
			Type: sharon.Type(h%s.ntypes + 1),
			Key:  sharon.GroupKey(s.keys.key(unit(mix(s.seed+1, i)))),
			Val:  float64(h>>32%100 + 1),
		}
	}
}

// segmentEvents is the length of the replayed segment of a stream that
// needs a whole-stream generator (32 bytes an event: 32 MB, under the
// 64 MB buffer cap).
const segmentEvents = 1 << 20

// segmentSource replays one gen.StreamForWorkload segment end to end,
// shifting ticks by the segment's span on every lap. The generator
// spaces events one tick apart, so event i keeps tick offset+i+1.
type segmentSource struct{ seg sharon.Stream }

func newSegmentSource(d workloadDef, seed uint64) segmentSource {
	types := make([]sharon.Type, len(d.typeNames))
	for i := range types {
		types[i] = sharon.Type(i + 1)
	}
	return segmentSource{seg: gen.StreamForWorkload(types, d.hotTypes, segmentEvents, sharedKeys, sharon.TicksPerSecond, 3, int64(seed))}
}

func (s segmentSource) fill(dst []sharon.Event, from int, offset int64) {
	n := len(s.seg)
	for j := range dst {
		i := from + j
		e := s.seg[i%n]
		e.Time = offset + int64(i) + 1
		dst[j] = e
	}
}

// newSource builds the workload's event source for a seed.
func (s spec) newSource(d workloadDef, seed uint64) source {
	switch {
	case !s.engine:
		return servedSource{seed: seed}
	case s.name == "engine-churn":
		return churnSource{seed: seed, ntypes: uint64(len(d.typeNames)), keys: newZipf(churnKeys, churnZipfS)}
	default:
		return newSegmentSource(d, seed)
	}
}

// inputDigest is the SHA-256 of the first n events of a source: the
// fingerprint the determinism test and the run report use.
func inputDigest(src source, n int) [32]byte {
	h := sha256.New()
	buf := make([]sharon.Event, batchSize)
	var rec [28]byte
	for from := 0; from < n; from += len(buf) {
		b := buf[:min(len(buf), n-from)]
		src.fill(b, from, 0)
		for _, e := range b {
			binary.LittleEndian.PutUint64(rec[0:], uint64(e.Time))
			binary.LittleEndian.PutUint32(rec[8:], uint32(e.Type))
			binary.LittleEndian.PutUint64(rec[12:], uint64(e.Key))
			binary.LittleEndian.PutUint64(rec[20:], math.Float64bits(e.Val))
			h.Write(rec[:])
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
