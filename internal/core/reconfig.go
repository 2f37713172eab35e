// Online reconfiguration of the two-part bank: the explicit transition
// API the C4 adaptive controller (internal/sim) drives at epoch and
// kernel boundaries. Each transition first advances retention
// bookkeeping to the transition cycle, then mutates exactly one
// structural parameter — the WWS write threshold, the LR part's active
// associativity, or the HR retention tier — leaving the bank in a state
// every later access and scan handles identically to a bank built that
// way. Transitions are deterministic: in-flight LR lines displaced by a
// shrink demote through the ordinary LR->HR return path in (set, way)
// order, and an HR retention switch expires already-over-age lines
// before rebuilding the expiry wheel, so dumps stay reproducible and
// the reference model (internal/refmodel) can mirror every step.
package core

import (
	"fmt"
	"time"

	"sttllc/internal/sttram"
)

// ThresholdManaged reports whether an external controller has taken
// ownership of the write threshold via SetWriteThreshold. Invariant
// checkers use it: a statically configured bank whose threshold drifts
// from the configured value is a bug, a managed one is not. The flag
// survives ResetStats (management is structural state, not a counter)
// and clears on Reset.
func (b *TwoPartBank) ThresholdManaged() bool { return b.thresholdManaged }

// SetWriteThreshold retunes the WWS migration threshold at cycle now,
// clamped to [configured threshold, 15] (the 4-bit saturating counter's
// range). Returns the threshold actually applied. A no-change call is
// free: it neither counts a transition nor marks the threshold managed.
func (b *TwoPartBank) SetWriteThreshold(now int64, th uint8) uint8 {
	b.Tick(now)
	if th < b.cfg.WriteThreshold {
		th = b.cfg.WriteThreshold
	}
	if th > 15 {
		th = 15
	}
	if th == b.threshold {
		return th
	}
	b.threshold = th
	b.thresholdManaged = true
	b.stats.ReconfigThreshold++
	return th
}

// SetLRActiveWays resizes the LR part's usable associativity at cycle
// now, clamped to [1, configured LR ways]. Shrinking demotes every
// valid line parked in a deactivated way through the ordinary LR->HR
// return path (swap buffer, HR fill, overflow writeback), in (set, way)
// order; growing just re-opens the ways. Returns the bound applied.
func (b *TwoPartBank) SetLRActiveWays(now int64, n int) int {
	b.Tick(now)
	if n < 1 {
		n = 1
	}
	if n > b.cfg.LRWays {
		n = b.cfg.LRWays
	}
	cur := b.lr.ActiveWays()
	if n == cur {
		return n
	}
	if n < cur {
		sets := b.lr.Sets()
		for set := 0; set < sets; set++ {
			for way := n; way < cur; way++ {
				ev, ok := b.lr.InvalidateWay(set, way)
				if !ok {
					continue
				}
				b.returnToHR(now, ev)
				b.stats.ReconfigDemotions++
			}
		}
	}
	b.lr.SetActiveWays(n)
	b.stats.ReconfigLRResize++
	return n
}

// LRActiveWays returns the LR part's current allocation bound.
func (b *TwoPartBank) LRActiveWays() int { return b.lr.ActiveWays() }

// HRRetention returns the HR part's current retention window (the
// configured cell's unless SetHRRetention switched tiers).
func (b *TwoPartBank) HRRetention() time.Duration { return b.hrCell.Retention }

// SetHRRetention switches the HR part to a cell of the given retention
// class at cycle now, interpolated from the paper's Table 1 anchors
// (sttram.NewCell): shorter retention buys faster, cheaper HR writes at
// the price of earlier expiry. The switch is applied so that later
// behavior is indistinguishable from a bank built with the new cell
// whose scan clock was always aligned to the new counter window:
//
//  1. pending scans run under the old parameters up to now;
//  2. the HR scan clock realigns to a multiple of the new counter
//     window (scan boundaries must stay exact multiples of the tick or
//     the expiry wheel's bucket arithmetic diverges from the scans);
//  3. lines already over the new retention age expire immediately,
//     exactly as the next scan would have treated them;
//  4. the expiry wheel rebuilds at the new tick/lead and every
//     surviving line is re-marked (survivors are all young enough that
//     their marks land within the wheel's horizon).
//
// The retention ladder the controller sweeps keeps hrTick >= lrTick, so
// TickPeriod (the finer cadence) is unchanged by a switch. Leakage is
// also unchanged: all STT cells share one per-KB leakage figure.
func (b *TwoPartBank) SetHRRetention(now int64, ret time.Duration) time.Duration {
	b.Tick(now)
	if ret == b.hrCell.Retention {
		return ret
	}
	cell := sttram.NewCell(fmt.Sprintf("HR-%v", ret), ret)
	b.applyHRCell(cell)
	b.lastHRScan = now - now%b.hrTickCy
	expired := b.hr.AppendExpired(b.scanDrop[:0], now, b.hrRetCy)
	for _, sw := range expired {
		ev, _ := b.hr.InvalidateWay(sw[0], sw[1])
		if ev.Dirty {
			b.writeback(now, ev.Addr)
		}
		b.stats.HRExpiries++
	}
	b.scanDrop = expired[:0]
	b.hr.EnableExpiryWheel(b.hrTickCy, b.hrRetCy)
	b.hr.RemarkExpiry()
	b.stats.ReconfigRetention++
	return ret
}

// applyHRCell installs an HR cell and recomputes every derived timing
// and energy parameter. Tag energy is geometry-only and leakage uses
// the constant STT per-KB figure, so neither needs recomputing.
func (b *TwoPartBank) applyHRCell(cell sttram.Cell) {
	b.hrCell = cell
	b.hrReadCy = cyclesOf(cell.ReadLatency, b.cfg.ClockHz)
	b.hrWriteCy = cyclesOf(cell.WriteLatency, b.cfg.ClockHz)
	b.hrReadE = cell.EnergyPerBlock(b.cfg.LineBytes, false)
	b.hrWriteE = cell.EnergyPerBlock(b.cfg.LineBytes, true)
	b.hrWriteOcc = writeOccupancy(b.hrReadCy, b.hrWriteCy)
	b.hrRetCy = cyclesOf(cell.Retention, b.cfg.ClockHz)
	b.hrTickCy = b.hrRetCy >> uint(b.cfg.HRCounterBits)
	if b.hrTickCy < 1 {
		b.hrTickCy = 1
	}
}
