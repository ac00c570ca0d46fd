// Package stats provides the statistical primitives the analytics
// stage uses to turn per-day aggregates into the paper's figures:
// empirical CDFs/CCDFs, quantiles, Bézier smoothing (Figure 4 of the
// paper smooths its hourly ratio curves with a Bézier interpolation),
// and the deterministic samplers the traffic model draws from.
package stats

import (
	"math"
	"sort"
	"sync"
)

// ECDF is an empirical cumulative distribution over float64 samples.
// The zero value is ready to use; Add samples, then query. Queries
// (P, CCDF, Quantile, Median, Mean) finalise the distribution lazily
// under a mutex, so concurrent readers are safe —
// stage two fans figure rendering out over goroutines that may share
// one distribution. Add/AddAll are writer-side and must not race with
// queries; call Finalize first to hand a filled ECDF to readers.
type ECDF struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
}

// Add appends one sample.
func (e *ECDF) Add(v float64) {
	e.samples = append(e.samples, v)
	e.sorted = false
}

// AddAll appends many samples.
func (e *ECDF) AddAll(vs []float64) {
	e.samples = append(e.samples, vs...)
	e.sorted = false
}

// N returns the sample count.
func (e *ECDF) N() int { return len(e.samples) }

// Finalize sorts the samples so later queries are read-only. Optional:
// queries finalise lazily (and safely) on their own; calling it once
// after the last Add simply moves the sort off the query path.
func (e *ECDF) Finalize() { e.sort() }

// sort finalises under the lock. The pre-check on sorted is not a
// fast path on purpose: an unsynchronised read of the flag while
// another goroutine sorts was exactly the race this fixes.
func (e *ECDF) sort() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.sorted {
		sort.Float64s(e.samples)
		e.sorted = true
	}
}

// P returns the empirical P(X <= v), 0 for an empty distribution.
func (e *ECDF) P(v float64) float64 {
	if len(e.samples) == 0 {
		return 0
	}
	e.sort()
	i := sort.SearchFloat64s(e.samples, math.Nextafter(v, math.Inf(1)))
	return float64(i) / float64(len(e.samples))
}

// CCDF returns the empirical P(X > v).
func (e *ECDF) CCDF(v float64) float64 { return 1 - e.P(v) }

// Quantile returns the q-quantile (0 <= q <= 1) by the nearest-rank
// method. An empty distribution reports 0 — a zero-active-days figure
// renders as an empty/zero row, never as NaN cells in the tables.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.samples) == 0 {
		return 0
	}
	e.sort()
	if q <= 0 {
		return e.samples[0]
	}
	if q >= 1 {
		return e.samples[len(e.samples)-1]
	}
	i := int(math.Ceil(q*float64(len(e.samples)))) - 1
	if i < 0 {
		i = 0
	}
	return e.samples[i]
}

// Median is Quantile(0.5).
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Mean returns the arithmetic mean, or 0 when empty (see Quantile).
func (e *ECDF) Mean() float64 {
	if len(e.samples) == 0 {
		return 0
	}
	// Finalise first: summing while another goroutine sorts the shared
	// slice would read mid-swap garbage (and race). The sum is
	// order-independent, so reading the sorted samples changes nothing.
	e.sort()
	var s float64
	for _, v := range e.samples {
		s += v
	}
	return s / float64(len(e.samples))
}

// Point is one (X, Y) coordinate of a rendered curve.
type Point struct{ X, Y float64 }

// Bezier resamples curve with a Bézier interpolation using the input
// points as control polygon, evaluated at n parameter values — the
// smoothing gnuplot applies when the paper plots Figure 4. The first
// and last points are preserved exactly.
func Bezier(curve []Point, n int) []Point {
	if len(curve) == 0 || n < 2 {
		return nil
	}
	if len(curve) == 1 {
		return []Point{curve[0]}
	}
	out := make([]Point, n)
	// De Casteljau at each t; O(n·m²) is fine for figure-sized inputs.
	tmp := make([]Point, len(curve))
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		copy(tmp, curve)
		for k := len(tmp) - 1; k > 0; k-- {
			for j := 0; j < k; j++ {
				tmp[j].X = tmp[j].X*(1-t) + tmp[j+1].X*t
				tmp[j].Y = tmp[j].Y*(1-t) + tmp[j+1].Y*t
			}
		}
		out[i] = tmp[0]
	}
	return out
}
