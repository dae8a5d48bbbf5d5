// Package obs is the telemetry layer for the live runtime: atomic
// counters and gauges, log-bucketed latency histograms with quantile
// estimation, a named-metric Registry with Prometheus text exposition,
// a bounded in-memory event/span Tracer, and an admin HTTP listener
// (/metrics, /statusz, /trace, pprof).
//
// The paper's scheduling story is about latency and staleness
// *distributions*, not lifetime averages — this package is what turns
// "the staleness policy helps" into measured p50/p95/p99 queue waits on
// the hot path. It is deliberately dependency-light (stdlib only) and
// allocation-free on the record path: every Observe/Add is a handful of
// atomic operations, so instrumentation can stay on even in production
// and benchmark runs (perfbench's traced runs report the overhead as
// trace.overhead_frac).
//
// Everything is optional at the call sites: a nil *Counter, *Gauge,
// *Histogram, or *Tracer is a safe no-op, so instrumented packages pay
// one nil check when telemetry is disabled.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative deltas are ignored —
// counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a metric that can go up and down. The zero value is ready to
// use; a nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) reset() { g.bits.Store(0) }

// Histogram bucket geometry: powers of two from 2^histMinExp seconds
// (≈1µs) up to 2^histMaxExp (64s), plus an overflow (+Inf) bucket.
// Power-of-two buckets make the record path a Frexp and one atomic add
// — no search — at ~2× worst-case quantile resolution, plenty for
// latency work where the interesting differences are 10× and up.
const (
	histMinExp    = -20 // smallest finite upper bound: 2^-20 s ≈ 0.95µs
	histMaxExp    = 6   // largest finite upper bound: 64s
	histBuckets   = histMaxExp - histMinExp + 1
	histOverflow  = histBuckets // index of the +Inf bucket
	histNumCounts = histBuckets + 1
)

// bucketBound returns the upper bound (seconds) of finite bucket i.
func bucketBound(i int) float64 {
	return math.Ldexp(1, histMinExp+i)
}

// bucketIndex maps a value in seconds to its bucket: the smallest i
// with v <= bound(i), or the overflow bucket.
func bucketIndex(v float64) int {
	if v <= 0 {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac × 2^exp, frac ∈ [0.5, 1)
	if frac == 0.5 {
		exp-- // v is exactly a power of two: it belongs in its own le bucket
	}
	i := exp - histMinExp
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histOverflow
	}
	return i
}

// Histogram accumulates a distribution of values (seconds, for latency
// metrics) in log-spaced buckets, cheap enough for hot paths: one
// Frexp, two atomic adds, and a CAS loop for the sum. Quantiles are
// estimated by linear interpolation inside the matched bucket. The zero
// value is ready to use; a nil Histogram is a no-op.
//
// Concurrent Observe vs Snapshot/Quantile is safe: readers see a
// near-consistent view (buckets are monotone counters), which is all a
// telemetry scrape needs.
type Histogram struct {
	counts [histNumCounts]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value (in seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nb) {
			return
		}
	}
}

// ObserveDuration records a duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-th quantile (q ∈ [0,1]) by linear
// interpolation within the matched log bucket. An empty histogram
// returns 0. The estimate for the overflow bucket saturates at the
// largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var counts [histNumCounts]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= target {
			if i == histOverflow {
				return bucketBound(histBuckets - 1)
			}
			lo := 0.0
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			hi := bucketBound(i)
			frac := (target - cum) / fc
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += fc
	}
	return bucketBound(histBuckets - 1)
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}
