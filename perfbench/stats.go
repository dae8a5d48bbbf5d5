package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile of ascending xs: the
// smallest value with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := rank(p, n)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// tailCandidates are the percentiles a latency report may use, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 50}

// tailPercentile picks the highest candidate percentile that leaves at
// least ten of n samples beyond it (under the nearest-rank rule of
// percentile) and returns it with the number of samples beyond. With
// fewer than 20 samples no candidate qualifies and it returns 0, n.
func tailPercentile(n int) (p float64, beyond int) {
	for _, c := range tailCandidates {
		b := n - rank(c, n)
		if b >= 10 {
			return c, b
		}
	}
	return 0, n
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps float error in p/100*n (99.9/100*10000 reads
// 9990.000000000002) from pushing an exact rank up by one.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spread this benchmark reports matches the one the
// acceptance check computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}
