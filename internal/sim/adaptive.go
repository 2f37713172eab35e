// The C4 adaptive controller: an observer on the timer engine that
// samples each two-part bank's statistics once per epoch and retunes
// at most one structural parameter per bank — the WWS migration
// threshold, the LR part's active associativity, or the HR retention
// tier — through the explicit transition API (core.TwoPartBank's
// SetWriteThreshold / SetLRActiveWays / SetHRRetention). The policy is
// a fixed-priority rule list over epoch deltas, so a given workload
// and configuration always produce the same transition sequence and
// dumps stay reproducible; the reference model replays the same
// transitions step for step.
//
// The controller exists only when config.AdaptiveSpec.Enabled is set:
// a disabled run constructs no controller, schedules no epoch events,
// and registers no extra counters, which keeps every static golden
// dump byte-identical.
package sim

import (
	"time"

	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/metrics"
)

// adaptiveBank is one managed two-part bank: the bank itself, its flat
// tier index (for invariant audits), its trace track, and the previous
// epoch's statistics snapshot the deltas are taken against.
type adaptiveBank struct {
	tp   *core.TwoPartBank
	flat int // index into Simulator.flat, for auditBank
	tid  int // tracer track (bankTID)
	prev core.BankStats
}

// adaptiveController drives the epoch policy across all managed banks.
type adaptiveController struct {
	spec   config.AdaptiveSpec // resolved (defaults applied)
	cfgTh  uint8               // configured threshold (the lower bound)
	lrCap  int                 // configured LR ways (the upper bound)
	tracer *metrics.Tracer
	audit  func(bank int, b core.Bank, now int64)
	banks  []adaptiveBank
	epochs uint64
}

// newAdaptiveController adopts every two-part L2 bank of the simulator
// (registerMetrics publishes their reconfiguration counters). Only
// built when the configuration enables adaptation.
func newAdaptiveController(s *Simulator) *adaptiveController {
	c := &adaptiveController{
		spec:   s.cfg.Adaptive.Resolved(),
		cfgTh:  s.cfg.L2.WriteThreshold,
		lrCap:  s.cfg.L2.LRWays,
		tracer: s.tracer,
		audit:  s.auditBank,
	}
	fi := 0
	for i, chain := range s.tiers {
		for ti, t := range chain {
			if ti == 0 {
				if tp, ok := t.(*core.TwoPartBank); ok {
					c.banks = append(c.banks, adaptiveBank{
						tp: tp, flat: fi, tid: bankTID(i), prev: *tp.Stats(),
					})
				}
			}
			fi++
		}
	}
	return c
}

// rebase resnapshots every bank after a statistics reset (the warmup
// boundary): the zeroed counters would otherwise make the next epoch's
// unsigned deltas wrap.
func (c *adaptiveController) rebase() {
	for i := range c.banks {
		c.banks[i].prev = *c.banks[i].tp.Stats()
	}
}

// epoch runs the policy against every managed bank at cycle at.
func (c *adaptiveController) epoch(at int64) {
	c.epochs++
	for i := range c.banks {
		c.step(&c.banks[i], at)
	}
}

// wrapped reports a counter that went backwards — a statistics reset
// the controller wasn't told about; the epoch then only rebases.
func wrapped(cur, prev *core.BankStats) bool {
	return cur.Writes < prev.Writes || cur.MigrationsToLR < prev.MigrationsToLR ||
		cur.OverflowWritebacks < prev.OverflowWritebacks ||
		cur.HRExpiries < prev.HRExpiries || cur.DRAMFills < prev.DRAMFills
}

// step applies at most one transition to one bank, chosen by fixed
// priority over the epoch's deltas:
//
//  1. swap-buffer pressure (overflow writebacks outrunning migrations)
//     raises the migration threshold;
//  2. expiry pressure (HR expiries outrunning DRAM fills) switches the
//     HR part to a longer-retention tier;
//  3. a cold LR part (write share below the shrink bound) gives ways
//     back — demoted lines take the ordinary LR->HR return path;
//  4. a hot LR part (share above the grow bound) re-opens ways;
//  5. with no overflow pressure, a raised threshold relaxes back down;
//  6. with no expiries at all in a writing epoch, the HR part steps
//     down a retention tier for cheaper, cooler writes.
//
// Rules that cannot apply (already at a bound, or the ladder has no
// tier in that direction) fall through to the next, so each epoch
// applies the most urgent transition that actually changes something.
func (c *adaptiveController) step(ab *adaptiveBank, at int64) {
	tp := ab.tp
	// Retention scans due by now count toward this epoch's deltas.
	tp.Tick(at)
	st := tp.Stats()
	if wrapped(st, &ab.prev) {
		ab.prev = *st
		return
	}
	dWrites := st.Writes - ab.prev.Writes
	dMigr := st.MigrationsToLR - ab.prev.MigrationsToLR
	dOver := st.OverflowWritebacks - ab.prev.OverflowWritebacks
	dExp := st.HRExpiries - ab.prev.HRExpiries
	dFills := st.DRAMFills - ab.prev.DRAMFills
	dLRW := (st.LRWriteHits + st.LRWriteFills + st.MigrationsToLR) -
		(ab.prev.LRWriteHits + ab.prev.LRWriteFills + ab.prev.MigrationsToLR)

	th := tp.Threshold()
	ways := tp.LRActiveWays()
	ret := tp.HRRetention()

	applied := ""
	var arg any
	switch {
	case dOver > 0 && dOver*1000 > uint64(c.spec.OverflowPerMille)*dMigr && th < c.spec.MaxThreshold:
		applied, arg = "reconfig-threshold", tp.SetWriteThreshold(at, th+1)
	case dExp > 0 && dExp*1000 > uint64(c.spec.ExpiryPerMille)*dFills && c.ladderUp(ret) > ret:
		applied, arg = "reconfig-retention", tp.SetHRRetention(at, c.ladderUp(ret)).String()
	case dWrites > 0 && dLRW*1000 < uint64(c.spec.ShrinkSharePerMille)*dWrites && ways > c.spec.MinLRWays:
		applied, arg = "reconfig-lr-ways", tp.SetLRActiveWays(at, ways-1)
	case dWrites > 0 && dLRW*1000 > uint64(c.spec.GrowSharePerMille)*dWrites && ways < c.lrCap:
		applied, arg = "reconfig-lr-ways", tp.SetLRActiveWays(at, ways+1)
	case dOver == 0 && th > c.cfgTh:
		applied, arg = "reconfig-threshold", tp.SetWriteThreshold(at, th-1)
	case dExp == 0 && dWrites > 0 && c.ladderDown(ret) < ret && c.ladderDown(ret) > 0:
		applied, arg = "reconfig-retention", tp.SetHRRetention(at, c.ladderDown(ret)).String()
	}
	if applied != "" {
		if c.tracer != nil {
			c.tracer.Instant(ab.tid, applied, at, map[string]any{"to": arg})
		}
		if c.audit != nil {
			c.audit(ab.flat, tp, at)
		}
	}
	ab.prev = *tp.Stats()
}

// ladderUp returns the smallest ladder tier above ret (ret itself when
// the ladder tops out there).
func (c *adaptiveController) ladderUp(ret time.Duration) time.Duration {
	for _, r := range c.spec.RetentionLadder {
		if r > ret {
			return r
		}
	}
	return ret
}

// ladderDown returns the largest ladder tier below ret (0 when none).
func (c *adaptiveController) ladderDown(ret time.Duration) time.Duration {
	down := time.Duration(0)
	for _, r := range c.spec.RetentionLadder {
		if r < ret {
			down = r
		}
	}
	return down
}
