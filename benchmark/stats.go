package main

import (
	"math"
	"sort"
)

// ladder is the set of percentiles a whole phase's high reading may be
// taken at, in per mille.
var ladder = []int{900, 950, 990}

// highPercentile picks the highest percentile of the ladder that still
// has at least ten of the n samples beyond it, and the lowest one when
// none has.
func highPercentile(n int) float64 {
	best := ladder[0]
	for _, pm := range ladder {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 1000
}

// quantile reads the p-quantile of sorted samples (nearest rank).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quantileOf reads the p-quantile of unsorted samples.
func quantileOf(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, p)
}

// median of a small sample (set-up repetitions, repeat runs).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// shareWithin is the share of samples at or under limit among expected
// results; a result that never arrived counts as over the limit.
func shareWithin(samples []float64, limit float64, expected int) float64 {
	if expected == 0 {
		return 1
	}
	ok := 0
	for _, v := range samples {
		if v <= limit {
			ok++
		}
	}
	return float64(ok) / float64(expected)
}

// tailStretches is how many equal stretches of a phase the tail is read
// in, and tailQuantile where. The reported tail is the median of the
// stretches' readings: a stall (a checkpoint, a collection cycle, the
// scheduler) lands in one stretch and moves one reading, not the metric.
// p90 is as far out as six seconds on two shared cores support: ten runs
// of p90 read this way stay within 9 % of each other on every workload,
// p95 within 20 %, and p99 moves by a third.
const (
	tailStretches = 5
	tailQuantile  = 0.90
)

// stretchTail reads the tail quantile in each of tailStretches
// consecutive stretches of samples (kept in window order) and returns
// the median of the readings.
func stretchTail(samples []float64) float64 {
	tails := make([]float64, 0, tailStretches)
	for i := 0; i < tailStretches; i++ {
		lo, hi := i*len(samples)/tailStretches, (i+1)*len(samples)/tailStretches
		if hi > lo {
			tails = append(tails, quantileOf(samples[lo:hi], tailQuantile))
		}
	}
	return median(tails)
}

// latencyMetrics fills in the three latency metrics from the per-window
// samples of the two fixed rates, each in window order, and beside them
// each phase's plain reading at the highest percentile its sample count
// supports.
func latencyMetrics(m map[string]float64, r1, r2 []float64) {
	m["latency_p50_ms"] = quantileOf(r1, 0.5)
	m["latency_tail_ms"] = stretchTail(r1)
	m["latency_tail_ms_r2"] = stretchTail(r2)
	for i, v := range [][]float64{r1, r2} {
		suffix := []string{"", "_r2"}[i]
		high := highPercentile(len(v))
		m["driver.latency_samples"+suffix] = float64(len(v))
		m["driver.latency_high_ms"+suffix] = quantileOf(v, high)
		m["driver.high_percentile"+suffix] = high * 100
	}
}
