// Package reliability analyzes the two failure modes that bound a
// relaxed-retention STT-RAM cache design:
//
//  1. Retention failures — a bit thermally flips before its block is
//     rewritten or refreshed. The paper's retention counters bound every
//     block's unprotected age by the labeled retention time; this
//     package quantifies what that guarantee is worth, and what dropping
//     the refresh machinery would cost at each retention class.
//  2. Write endurance (wear) — MTJ cells sustain a finite number of
//     writes. The proposed design deliberately concentrates the write
//     working set onto the small LR part, so LR lines wear much faster
//     than a uniform cache's; the i2WAP work the paper cites for write
//     variation is about exactly this tradeoff.
//
// Following the multi-retention literature, a cell's *labeled* retention
// R is a guarantee, not the thermal time constant: the design targets a
// block-failure probability at age R (TargetBlockFailure), and the MTJ's
// thermal constant τ_th is engineered with margin so that
// P(block corrupt | age = R) = target.
package reliability

import (
	"math"
	"time"

	"sttllc/internal/stats"
)

// TargetBlockFailure is the design-target probability that a block has
// any flipped bit when it reaches its labeled retention age. One in ten
// thousand expiring blocks — expiring blocks are already rare, and an
// ECC-1 code (not modeled) would absorb these.
const TargetBlockFailure = 1e-4

// BitFailureProb returns the probability that one bit has flipped after
// age t given the thermal time constant tauTh (P = 1 - exp(-t/τ)).
func BitFailureProb(t, tauTh time.Duration) float64 {
	if t <= 0 {
		return 0
	}
	if tauTh <= 0 {
		return 1
	}
	return -math.Expm1(-float64(t) / float64(tauTh))
}

// BlockFailureProb returns the probability that at least one of bits
// bits has flipped after age t: 1 - (1-p)^bits, computed stably.
func BlockFailureProb(t, tauTh time.Duration, bits int) float64 {
	p := BitFailureProb(t, tauTh)
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	// 1 - (1-p)^bits = -expm1(bits * log1p(-p))
	return -math.Expm1(float64(bits) * math.Log1p(-p))
}

// ThermalTau returns the thermal time constant an MTJ must be engineered
// for so that a block of blockBits reaches exactly target block-failure
// probability at its labeled retention age.
func ThermalTau(labeled time.Duration, blockBits int, target float64) time.Duration {
	if labeled <= 0 || blockBits <= 0 || target <= 0 || target >= 1 {
		return 0
	}
	// Per-bit failure budget: p = 1 - (1-target)^(1/bits).
	pBit := -math.Expm1(math.Log1p(-target) / float64(blockBits))
	// t/τ = -log(1-pBit)  =>  τ = labeled / (-log1p(-pBit)).
	denom := -math.Log1p(-pBit)
	if denom <= 0 {
		return 0
	}
	tau := float64(labeled) / denom
	if tau >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(tau)
}

// Analysis is the retention-failure report for one measured
// rewrite-interval distribution.
type Analysis struct {
	Labeled   time.Duration
	BlockBits int
	TauTh     time.Duration
	// LossPerRewrite is the expected probability that a rewritten
	// block had silently decayed before its rewrite, if NO refresh
	// machinery existed (ages follow the measured distribution).
	LossPerRewrite float64
	// WorstBucketLoss is the block-failure probability at the
	// distribution's largest finite bucket edge.
	WorstBucketLoss float64
	// GuaranteedLoss is the block-failure probability at the labeled
	// retention age — the bound the refresh machinery enforces.
	GuaranteedLoss float64
	// RefreshNeededShare is the fraction of rewrite intervals that
	// exceed the labeled retention (the overflow bucket): these blocks
	// would have been lost without refresh.
	RefreshNeededShare float64
}

// Analyze evaluates a rewrite-interval histogram (bucket edges in
// microseconds, as produced by the simulator) against a labeled
// retention class.
func Analyze(h *stats.Histogram, labeled time.Duration, blockBits int) Analysis {
	a := Analysis{
		Labeled:   labeled,
		BlockBits: blockBits,
		TauTh:     ThermalTau(labeled, blockBits, TargetBlockFailure),
	}
	a.GuaranteedLoss = BlockFailureProb(labeled, a.TauTh, blockBits)
	if h == nil || h.N == 0 {
		return a
	}
	fr := h.Fractions()
	for i, edge := range h.Edges {
		age := time.Duration(edge * float64(time.Microsecond))
		p := BlockFailureProb(age, a.TauTh, blockBits)
		a.LossPerRewrite += fr[i] * p
		if fr[i] > 0 {
			a.WorstBucketLoss = p
		}
	}
	// Overflow bucket: intervals beyond the last edge. Charge them the
	// labeled-retention loss if they are still under it, else certain
	// loss-without-refresh.
	over := fr[len(fr)-1]
	lastEdge := time.Duration(h.Edges[len(h.Edges)-1] * float64(time.Microsecond))
	if lastEdge >= labeled {
		a.LossPerRewrite += over * 1.0
		a.RefreshNeededShare = over
	} else {
		a.LossPerRewrite += over * a.GuaranteedLoss
	}
	return a
}

// ---------------------------------------------------------------------
// Endurance / wear.
// ---------------------------------------------------------------------

// MTJEnduranceWrites is the per-cell write endurance assumed for the
// wear analysis (4x10^12 writes, the commonly cited STT-RAM figure).
const MTJEnduranceWrites = 4e12

// Wear reports lifetime estimates for one cache array under an observed
// write distribution.
type Wear struct {
	// MaxWritesPerLine and MeanWritesPerLine over the observation.
	MaxWritesPerLine  float64
	MeanWritesPerLine float64
	// Variation is max/mean — i2WAP's headline wear-variation metric;
	// 1.0 is perfectly level wear.
	Variation float64
	// LifetimeYears extrapolates the observed worst line's write rate
	// against the cell endurance.
	LifetimeYears float64
}

// WearFrom computes wear from per-line write counts accumulated over
// seconds of simulated time.
func WearFrom(perLineWrites []float64, seconds float64) Wear {
	var w Wear
	if len(perLineWrites) == 0 || seconds <= 0 {
		return w
	}
	w.MeanWritesPerLine = stats.Mean(perLineWrites)
	for _, v := range perLineWrites {
		if v > w.MaxWritesPerLine {
			w.MaxWritesPerLine = v
		}
	}
	if w.MeanWritesPerLine > 0 {
		w.Variation = w.MaxWritesPerLine / w.MeanWritesPerLine
	}
	if w.MaxWritesPerLine > 0 {
		rate := w.MaxWritesPerLine / seconds // writes/sec on the hottest line
		w.LifetimeYears = MTJEnduranceWrites / rate / (365.25 * 24 * 3600)
	} else {
		w.LifetimeYears = math.Inf(1)
	}
	return w
}
