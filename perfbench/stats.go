package main

import (
	"math"
	"sort"
)

// tailPercentiles are the percentiles a timing may be reported at, highest
// first. A percentile is reported only when at least minTail samples lie
// beyond it, so the figure rests on more than a handful of outliers.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

const minTail = 10

// supportedTail returns the highest percentile in tailPercentiles that has
// at least minTail samples beyond it among n samples, or 0 when none has.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		// Compare in hundredths of a sample so 10000 * 0.1% counts as 10.
		if float64(n)*(100-p) >= minTail*100-1e-6 {
			return p
		}
	}
	return 0
}

// samples is a set of measurements (durations in ns, or plain values).
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// quantile returns the nearest-rank q-quantile (0 < q <= 1); it sorts s in
// place. An empty set yields 0.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(s) {
		sort.Float64s(s)
	}
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func (s samples) median() float64 { return s.quantile(0.5) }

// p99 returns the 99th percentile when the sample supports it (at least
// minTail samples beyond it), else the highest percentile it does support.
// The percentile used and the count are returned so a report can state
// them.
func (s samples) p99() (v, pct float64, n int) {
	pct = supportedTail(len(s))
	if pct > 99 {
		pct = 99
	}
	if pct == 0 {
		return s.quantile(1), 100, len(s)
	}
	return s.quantile(pct / 100), pct, len(s)
}
