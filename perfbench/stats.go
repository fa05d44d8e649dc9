package main

import (
	"fmt"
	"math"
	"sort"
)

// rounds collects the end-to-end numbers of a run's rounds.
type rounds struct {
	setups, sweeps, peaks, lat []float64
	sweepSum                   float64
}

// add records one round: its set-up and measured wall time in seconds,
// its peak RSS, and the latency of every request it completed.
func (t *rounds) add(setupS, sweepS, peakMB float64, latMS []float64) {
	t.setups = append(t.setups, setupS)
	t.sweeps = append(t.sweeps, sweepS)
	t.peaks = append(t.peaks, peakMB)
	t.lat = append(t.lat, latMS...)
	t.sweepSum += sweepS
}

// report sets the end-to-end metrics: medians over rounds, percentiles
// over the pooled samples, and samples per second of measured time.
func (t *rounds) report(res *result) error {
	res.set("setup_s", median(t.setups))
	res.set("sweep_s", median(t.sweeps))
	res.set("rps", float64(len(t.lat))/t.sweepSum)
	res.set("peak_rss_mb", median(t.peaks))
	return res.percentiles(t.lat)
}

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 over fewer than 1000 samples would be decided by a handful of
// outliers, so it is refused rather than printed.
const minBeyond = 10

// minSamples is the fewest samples whose p99 has minBeyond beyond it.
const minSamples = 100 * minBeyond

// nearestRank returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method. It refuses a percentile with fewer than
// minBeyond samples beyond it. xs is sorted in place.
func nearestRank(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", p, n, n-rank, minBeyond)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median returns the middle of a few per-round values (the mean of the
// middle two for an even count). It does not apply the minBeyond rule:
// it summarises rounds of one run, not a latency distribution.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio divides, reading 0/0 as 0 so a layer with no work reports an
// explicit zero instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
