package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of xs by the "exclusive" method
// of Python's statistics.quantiles(xs, n=4), the method spread.py applies
// to run-to-run spreads, so both compute the same quartiles. Fewer than two values
// give that value (or 0) three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(ld-1, j))
		delta := i*m - j*n
		cut[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[max(1, min(len(s), nearestRank(p, len(s))))-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n
// samples. The small tolerance keeps a rank that is whole in decimal,
// such as 99.9% of 10000, from rounding up past it in binary.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailLadder lists the percentiles a timing may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for timings: the highest
// percentile of tailLadder that still has at least ten samples beyond
// it. ok is false when even the median has fewer than ten.
func tailPercentile(samples int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if samples-nearestRank(p, samples) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// latencySummary describes a set of latencies in milliseconds by the
// reporting rule: the sample count, the median, and the tailPercentile
// when there is one above the median.
func latencySummary(lat []float64) string {
	s := fmt.Sprintf("%d samples, p50 %.1f ms", len(lat), median(lat))
	if p, ok := tailPercentile(len(lat)); ok && p > 50 {
		return s + fmt.Sprintf(", p%g %.1f ms", p, percentile(lat, p))
	}
	return s + ", no higher percentile has ten samples beyond it"
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
