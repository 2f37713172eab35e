// Package stats provides the small statistical toolkit used throughout the
// simulator: event counters, bucketed histograms (for rewrite-interval
// distributions), coefficient-of-variation computations (for inter- and
// intra-set write-variation analysis, Fig. 3 of the paper), and geometric
// means (used for summarizing per-benchmark speedups).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of vs, or 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// StdDev returns the population standard deviation of vs, or 0 when fewer
// than two values are present.
func StdDev(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := Mean(vs)
	ss := 0.0
	for _, v := range vs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vs)))
}

// COV returns the coefficient of variation (stddev/mean) of vs. It is the
// metric the paper borrows from i2WAP [Wang et al., HPCA'13] to quantify
// write variation across and within cache sets. A zero mean yields 0.
func COV(vs []float64) float64 {
	m := Mean(vs)
	if m == 0 {
		return 0
	}
	return StdDev(vs) / m
}

// Gmean returns the geometric mean of vs. Non-positive values are not
// meaningful for speedup summaries and cause Gmean to return 0.
func Gmean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vs)))
}

// Histogram is a bucketed histogram over float64 samples. Bucket i counts
// samples v with v <= Edges[i]; samples above the last edge fall into the
// overflow bucket. The zero value is not usable; construct with
// NewHistogram.
type Histogram struct {
	Edges    []float64 // ascending upper bounds, one per bucket
	Counts   []uint64  // len(Edges) bucket counts
	Overflow uint64    // samples above Edges[len(Edges)-1]
	N        uint64    // total samples observed
}

// NewHistogram builds a histogram with the given ascending bucket edges.
// It panics if edges is empty or not strictly ascending, since that is a
// programming error in experiment setup.
func NewHistogram(edges ...float64) *Histogram {
	if len(edges) == 0 {
		panic("stats: histogram needs at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("stats: histogram edges must be strictly ascending")
		}
	}
	return &Histogram{
		Edges:  append([]float64(nil), edges...),
		Counts: make([]uint64, len(edges)),
	}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.N++
	// Linear scan: histograms here have a handful of buckets.
	for i, e := range h.Edges {
		if v <= e {
			h.Counts[i]++
			return
		}
	}
	h.Overflow++
}

// Fractions returns the fraction of all samples in each bucket followed by
// the overflow fraction. It returns all zeros when no samples were added.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts)+1)
	if h.N == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.N)
	}
	out[len(h.Counts)] = float64(h.Overflow) / float64(h.N)
	return out
}

// CumulativeFraction returns the fraction of samples at or below edge
// index i.
func (h *Histogram) CumulativeFraction(i int) float64 {
	if h.N == 0 {
		return 0
	}
	var c uint64
	for j := 0; j <= i && j < len(h.Counts); j++ {
		c += h.Counts[j]
	}
	return float64(c) / float64(h.N)
}

// Percentile returns the smallest edge e such that at least frac of the
// samples are <= e, or +Inf if frac of the samples lie beyond the last
// edge. frac must be in (0, 1].
func (h *Histogram) Percentile(frac float64) float64 {
	if h.N == 0 {
		return 0
	}
	target := frac * float64(h.N)
	var c uint64
	for i, n := range h.Counts {
		c += n
		if float64(c) >= target {
			return h.Edges[i]
		}
	}
	return math.Inf(1)
}

// WriteVariation accumulates per-set, per-way write counts for a cache
// array and reports the paper's Fig. 3 metrics:
//
//   - inter-set COV: variation of total writes across sets
//   - intra-set COV: variation of writes across ways within a set,
//     averaged over sets that saw any writes
//
// The zero value is unusable; construct with NewWriteVariation.
type WriteVariation struct {
	sets   int
	ways   int
	counts []uint64 // sets*ways, row-major
}

// NewWriteVariation creates a tracker for a sets x ways array.
func NewWriteVariation(sets, ways int) *WriteVariation {
	if sets <= 0 || ways <= 0 {
		panic("stats: WriteVariation needs positive dimensions")
	}
	return &WriteVariation{sets: sets, ways: ways, counts: make([]uint64, sets*ways)}
}

// Reset zeroes every count, keeping the dimensions.
func (w *WriteVariation) Reset() { clear(w.counts) }

// Sets returns the tracked set count.
func (w *WriteVariation) Sets() int { return w.sets }

// Ways returns the tracked way count.
func (w *WriteVariation) Ways() int { return w.ways }

// Record registers one write to the given set and way.
func (w *WriteVariation) Record(set, way int) {
	w.counts[set*w.ways+way]++
}

// Writes returns the write count of (set, way).
func (w *WriteVariation) Writes(set, way int) uint64 {
	return w.counts[set*w.ways+way]
}

// TotalWrites returns the total number of recorded writes.
func (w *WriteVariation) TotalWrites() uint64 {
	var t uint64
	for _, c := range w.counts {
		t += c
	}
	return t
}

// InterSetCOV returns the coefficient of variation of per-set total write
// counts.
func (w *WriteVariation) InterSetCOV() float64 {
	per := make([]float64, w.sets)
	for s := 0; s < w.sets; s++ {
		var t uint64
		for y := 0; y < w.ways; y++ {
			t += w.counts[s*w.ways+y]
		}
		per[s] = float64(t)
	}
	return COV(per)
}

// IntraSetCOV returns the mean, over sets with at least one write, of the
// COV of per-way write counts within the set.
func (w *WriteVariation) IntraSetCOV() float64 {
	var sum float64
	var n int
	ways := make([]float64, w.ways)
	for s := 0; s < w.sets; s++ {
		var t uint64
		for y := 0; y < w.ways; y++ {
			c := w.counts[s*w.ways+y]
			ways[y] = float64(c)
			t += c
		}
		if t == 0 {
			continue
		}
		sum += COV(ways)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PerSetTotals returns each set's total write count as float64s, for
// pooling sets across multiple banks before computing an inter-set COV.
func (w *WriteVariation) PerSetTotals() []float64 {
	out := make([]float64, w.sets)
	for s := 0; s < w.sets; s++ {
		var t uint64
		for y := 0; y < w.ways; y++ {
			t += w.counts[s*w.ways+y]
		}
		out[s] = float64(t)
	}
	return out
}

// PerSetCOVs returns the intra-set COV of every set that saw at least one
// write, for pooling across banks.
func (w *WriteVariation) PerSetCOVs() []float64 {
	var out []float64
	ways := make([]float64, w.ways)
	for s := 0; s < w.sets; s++ {
		var t uint64
		for y := 0; y < w.ways; y++ {
			c := w.counts[s*w.ways+y]
			ways[y] = float64(c)
			t += c
		}
		if t == 0 {
			continue
		}
		out = append(out, COV(ways))
	}
	return out
}

// Quantiles returns the q-quantiles (e.g. q=4 for quartiles) of vs without
// modifying the input. Returned slice has q+1 entries: min, quantile
// points, max. Empty input yields nil.
func Quantiles(vs []float64, q int) []float64 {
	if len(vs) == 0 || q <= 0 {
		return nil
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	out := make([]float64, q+1)
	for i := 0; i <= q; i++ {
		pos := float64(i) / float64(q) * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out
}

// FormatPct renders a fraction as a percentage string like "16.2%".
func FormatPct(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}
