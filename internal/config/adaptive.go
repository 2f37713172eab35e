// Organization C4: the runtime-adaptive two-part bank. C1-C3 fix the
// LR share, the WWS migration threshold, and the HR retention tier at
// design time; C4 starts from C2's iso-capacity split and lets an
// online controller (internal/sim) retune all three at epoch
// boundaries from the bank's own statistics deltas, using the explicit
// transition API on core.TwoPartBank. The spec here is pure policy
// configuration — a disabled spec (the zero value) changes nothing
// anywhere, which is what keeps every C1-C3 golden dump byte-identical.
package config

import (
	"fmt"
	"time"
)

// AdaptiveSpec configures the C4 online reconfiguration controller.
// The zero value disables it. Zero fields of an enabled spec take the
// defaults below (withDefaults).
type AdaptiveSpec struct {
	// Enabled turns the controller on. Only meaningful on two-part
	// organizations; Validate rejects it elsewhere.
	Enabled bool
	// EpochCycles is the controller's sampling period in core cycles
	// (0 = 25000, ~36µs at 700MHz — short enough that the evaluation
	// kernels, which retire within a few hundred thousand cycles, see
	// several adaptation opportunities).
	EpochCycles int64
	// MinLRWays floors LR shrinking (0 = 1; never below 1).
	MinLRWays int
	// MaxThreshold caps threshold raising (0 = 4; hard cap 15, the
	// 4-bit WWS counter's saturation point).
	MaxThreshold uint8
	// RetentionLadder is the ascending set of HR retention tiers the
	// controller may switch among (nil = {10ms, 40ms, 160ms}). Every
	// entry must be at least the LR retention so the bank's TickPeriod
	// — the finer of the two scan cadences — is invariant across
	// switches, and the cadence observers sample at (invariant audits,
	// tracer windows) stays the bank's retention-counter period.
	RetentionLadder []time.Duration
	// OverflowPerMille raises the migration threshold when an epoch's
	// overflow writebacks exceed this fraction (per mille) of its
	// migrations: the swap buffers are thrashing, so migrate less
	// (0 = 125, i.e. 12.5%).
	OverflowPerMille int
	// ShrinkSharePerMille shrinks the LR part when the epoch's LR write
	// share falls below this per-mille fraction — the write working set
	// is not using the fast ways (0 = 100, i.e. 10%).
	ShrinkSharePerMille int
	// GrowSharePerMille re-opens LR ways when the share climbs back
	// above this fraction (0 = 300, i.e. 30%).
	GrowSharePerMille int
	// ExpiryPerMille ladders the HR retention up when an epoch's HR
	// expiries exceed this fraction of its DRAM fills — expiry-driven
	// refetch is eating the cheap-write gains (0 = 50, i.e. 5%).
	ExpiryPerMille int
}

// DefaultAdaptiveEpochCycles is the controller's default sampling
// period; the service collapses this spelling to the zero field so
// equivalent requests share one cache key.
const DefaultAdaptiveEpochCycles = 25000

// defaultRetentionLadder is the HR tiers C4 sweeps by default: one
// step below and one above the paper's 40ms design point.
func defaultRetentionLadder() []time.Duration {
	return []time.Duration{10 * time.Millisecond, 40 * time.Millisecond, 160 * time.Millisecond}
}

// withDefaults resolves zero fields of an enabled spec. A disabled
// spec is returned unchanged — its fields are never read.
func (a AdaptiveSpec) withDefaults() AdaptiveSpec {
	if !a.Enabled {
		return a
	}
	if a.EpochCycles == 0 {
		a.EpochCycles = DefaultAdaptiveEpochCycles
	}
	if a.MinLRWays == 0 {
		a.MinLRWays = 1
	}
	if a.MaxThreshold == 0 {
		a.MaxThreshold = 4
	}
	if len(a.RetentionLadder) == 0 {
		a.RetentionLadder = defaultRetentionLadder()
	}
	if a.OverflowPerMille == 0 {
		a.OverflowPerMille = 125
	}
	if a.ShrinkSharePerMille == 0 {
		a.ShrinkSharePerMille = 100
	}
	if a.GrowSharePerMille == 0 {
		a.GrowSharePerMille = 300
	}
	if a.ExpiryPerMille == 0 {
		a.ExpiryPerMille = 50
	}
	return a
}

// Resolved returns the spec with defaults applied — what the simulator
// actually runs.
func (a AdaptiveSpec) Resolved() AdaptiveSpec { return a.withDefaults() }

// validate checks an adaptive spec against its owning configuration.
func (a AdaptiveSpec) validate(g GPUConfig) error {
	if !a.Enabled {
		return nil
	}
	if g.L2.Kind != L2TwoPart {
		return fmt.Errorf("adaptive reconfiguration requires a two-part L2")
	}
	w := a.withDefaults()
	if w.EpochCycles < 1 {
		return fmt.Errorf("adaptive epoch %d must be positive", w.EpochCycles)
	}
	if w.MinLRWays < 1 || w.MinLRWays > g.L2.LRWays {
		return fmt.Errorf("adaptive MinLRWays %d outside [1, %d]", w.MinLRWays, g.L2.LRWays)
	}
	if w.MaxThreshold > 15 {
		return fmt.Errorf("adaptive MaxThreshold %d exceeds the 4-bit counter cap 15", w.MaxThreshold)
	}
	if w.MaxThreshold < g.L2.WriteThreshold {
		return fmt.Errorf("adaptive MaxThreshold %d below the configured threshold %d",
			w.MaxThreshold, g.L2.WriteThreshold)
	}
	lrRet := g.lrCell().Retention
	prev := time.Duration(0)
	for _, r := range w.RetentionLadder {
		if r <= prev {
			return fmt.Errorf("adaptive retention ladder must be strictly ascending (got %v after %v)", r, prev)
		}
		if lrRet > 0 && r < lrRet {
			// hrTick >= lrTick keeps TickPeriod invariant across switches.
			return fmt.Errorf("adaptive retention tier %v below the LR retention %v", r, lrRet)
		}
		prev = r
	}
	if w.OverflowPerMille < 0 || w.ShrinkSharePerMille < 0 ||
		w.GrowSharePerMille < 0 || w.ExpiryPerMille < 0 {
		return fmt.Errorf("adaptive policy ratios must be non-negative")
	}
	if w.ShrinkSharePerMille >= w.GrowSharePerMille {
		return fmt.Errorf("adaptive shrink share %d‰ must be below grow share %d‰ (hysteresis)",
			w.ShrinkSharePerMille, w.GrowSharePerMille)
	}
	return nil
}

// C4 is C2 — the iso-capacity two-part L2 with the register bonus —
// plus the online reconfiguration controller at its defaults.
func C4() GPUConfig {
	g := C2()
	g.Name = "C4"
	g.Description = "iso-capacity two-part STT-RAM L2 with runtime-adaptive reconfiguration"
	g.Adaptive = AdaptiveSpec{Enabled: true}
	return g
}
