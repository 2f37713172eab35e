package experiments

import (
	"fmt"
	"strings"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/reliability"
	"sttllc/internal/sim"
	"sttllc/internal/workloads"
)

// ---------------------------------------------------------------------
// LR retention sweep: the design-space axis behind Table 1. Shorter
// retention buys faster/cheaper LR writes but forces more refresh; far
// too short and refresh/expiry traffic erases the benefit.
// ---------------------------------------------------------------------

// RetentionPoints are the swept LR retention classes.
var RetentionPoints = []time.Duration{
	100 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond, // the paper's design point
	5 * time.Millisecond,
	40 * time.Millisecond, // LR degenerates into a second HR
}

// RetentionRow is one (benchmark, retention) measurement.
type RetentionRow struct {
	Benchmark string
	Retention time.Duration
	// Speedup is IPC normalized to the paper's 1ms design point.
	Speedup float64
	// DynPower is dynamic power normalized to the 1ms design point.
	DynPower  float64
	Refreshes uint64
	Expiries  uint64 // LR expiry drops (buffer-full at refresh time)
}

// RetentionSweep evaluates C1 with the LR part built from each retention
// class.
func RetentionSweep(p Params, points []time.Duration) []RetentionRow {
	if len(points) == 0 {
		points = RetentionPoints
	}
	cfgs := make([]config.GPUConfig, len(points))
	for i, ret := range points {
		cfgs[i] = config.C1()
		cfgs[i].L2.LRRetention = ret
	}
	rs := runGrid(p, cfgs)
	specs := p.specs()
	rows := make([]RetentionRow, len(specs)*len(points))
	for si, spec := range specs {
		runs := rs[si*len(points) : (si+1)*len(points)]
		var ref sim.Result
		for i, ret := range points {
			if ret == time.Millisecond {
				ref = runs[i]
			}
		}
		if ref.Cycles == 0 {
			ref = runs[len(runs)/2]
		}
		for i, ret := range points {
			r := runs[i]
			row := RetentionRow{
				Benchmark: spec.Name,
				Retention: ret,
				Refreshes: r.Bank.Refreshes,
				Expiries:  r.Bank.LRExpiryDrops,
			}
			if ref.IPC > 0 {
				row.Speedup = r.IPC / ref.IPC
			}
			if ref.DynamicPowerW > 0 {
				row.DynPower = r.DynamicPowerW / ref.DynamicPowerW
			}
			rows[si*len(points)+i] = row
		}
	}
	return rows
}

// FormatRetentionSweep renders the sweep.
func FormatRetentionSweep(rows []RetentionRow) string {
	var b strings.Builder
	b.WriteString("LR retention sweep (normalized to the 1ms design point)\n")
	b.WriteString(header("Benchmark", "Retention", "Speedup", "DynPower", "Refreshes", "Expiries"))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12v %12.3f %12.3f %12d %12d\n",
			r.Benchmark, r.Retention, r.Speedup, r.DynPower, r.Refreshes, r.Expiries)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// LR size sweep: how much of the L2 should be low-retention?
// ---------------------------------------------------------------------

// LRSizeRow is one (benchmark, LR fraction) measurement.
type LRSizeRow struct {
	Benchmark  string
	LRFraction string // "1/16" etc.
	Speedup    float64
	DynPower   float64
	LRShare    float64 // fraction of writes served by LR
}

// lrSizePoints maps labels to (lrDivisor): LR = total/divisor.
var lrSizePoints = []struct {
	label   string
	divisor int
}{
	{"1/16", 16},
	{"1/8", 8}, // the paper's split (192KB of 1536KB)
	{"1/4", 4},
}

// hrWaysFor picks an HR associativity that yields a power-of-two set
// count for the given per-bank capacity: the odd factor of the line
// count. (The paper's 224KB/bank with 256B lines gives 7-way; other
// split points need different associativities, so this sweep co-varies
// HR ways with HR size — an organization sweep, not a pure size sweep.)
func hrWaysFor(bytesPerBank, lineBytes int) int {
	lines := bytesPerBank / lineBytes
	for lines%2 == 0 {
		lines /= 2
	}
	if lines < 1 {
		return 1
	}
	return lines
}

// LRSizeSweep evaluates C1 with different LR/HR splits at constant total
// capacity, normalized to the paper's 1/8 split.
func LRSizeSweep(p Params) []LRSizeRow {
	total := config.C1().L2.Capacity()
	cfgs := make([]config.GPUConfig, len(lrSizePoints))
	ref := 0
	for i, pt := range lrSizePoints {
		cfg := config.C1()
		lr := total / pt.divisor
		cfg.L2.LRBytes = lr
		cfg.L2.HRBytes = total - lr
		cfg.L2.HRWays = hrWaysFor(cfg.L2.HRBytes/cfg.NumBanks, cfg.LineBytes)
		cfgs[i] = cfg
		if pt.divisor == 8 {
			ref = i
		}
	}
	rs := runGrid(p, cfgs)
	specs := p.specs()
	rows := make([]LRSizeRow, len(specs)*len(lrSizePoints))
	for si, spec := range specs {
		runs := rs[si*len(cfgs) : (si+1)*len(cfgs)]
		ref := runs[ref]
		for i, pt := range lrSizePoints {
			r := runs[i]
			row := LRSizeRow{
				Benchmark:  spec.Name,
				LRFraction: pt.label,
				LRShare:    r.Bank.LRWriteShare(),
			}
			if ref.IPC > 0 {
				row.Speedup = r.IPC / ref.IPC
			}
			if ref.DynamicPowerW > 0 {
				row.DynPower = r.DynamicPowerW / ref.DynamicPowerW
			}
			rows[si*len(lrSizePoints)+i] = row
		}
	}
	return rows
}

// FormatLRSizeSweep renders the sweep.
func FormatLRSizeSweep(rows []LRSizeRow) string {
	var b strings.Builder
	b.WriteString("LR size sweep at constant total capacity (normalized to the 1/8 split)\n")
	b.WriteString(header("Benchmark", "LR frac", "Speedup", "DynPower", "LR share"))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12s %12.3f %12.3f %12.3f\n",
			r.Benchmark, r.LRFraction, r.Speedup, r.DynPower, r.LRShare)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Reliability: retention-failure exposure and write wear.
// ---------------------------------------------------------------------

// ReliabilityRow evaluates one benchmark's measured LR rewrite intervals
// against several retention classes, plus the wear of the LR part.
type ReliabilityRow struct {
	Benchmark string
	// LossNoRefresh maps retention class to the expected probability
	// that a rewritten block silently decayed first, absent refresh.
	LossNoRefresh map[time.Duration]float64
	// RefreshNeeded is the measured fraction of LR rewrite intervals
	// beyond the 1ms class (would be lost without the RC machinery).
	RefreshNeeded float64
	// LRWear is the wear report of the LR part (writes concentrate
	// there by design).
	LRWear reliability.Wear
	// UniformWear is the wear of the baseline SRAM array for contrast.
	UniformWear reliability.Wear
}

// ReliabilityRetentions are the what-if classes evaluated.
var ReliabilityRetentions = []time.Duration{
	10 * time.Microsecond,
	100 * time.Microsecond,
	1 * time.Millisecond,
}

// Reliability runs C1 (and the SRAM baseline for wear contrast) per
// benchmark and analyzes retention-failure exposure and wear.
func Reliability(p Params) []ReliabilityRow {
	rows := make([]ReliabilityRow, len(p.specs()))
	forEachSpec(p, func(i int, spec workloads.Spec) {
		c1 := sim.New(config.C1(), spec, sim.Options{MaxCycles: p.MaxCycles})
		rc1 := c1.Run()
		base := sim.New(config.BaselineSRAM(), spec, sim.Options{MaxCycles: p.MaxCycles})
		rbase := base.Run()

		row := ReliabilityRow{
			Benchmark:     spec.Name,
			LossNoRefresh: map[time.Duration]float64{},
		}
		blockBits := config.BaseLineBytes * 8
		for _, ret := range ReliabilityRetentions {
			a := reliability.Analyze(rc1.Bank.RewriteIntervals, ret, blockBits)
			row.LossNoRefresh[ret] = a.LossPerRewrite
			if ret == time.Millisecond {
				row.RefreshNeeded = a.RefreshNeededShare
			}
		}
		row.LRWear = reliability.WearFrom(lrLineWrites(c1), rc1.Seconds)
		row.UniformWear = reliability.WearFrom(uniformLineWrites(base), rbase.Seconds)
		rows[i] = row
	})
	return rows
}

// lrLineWrites reads the per-slot wear counters of every LR part.
func lrLineWrites(s *sim.Simulator) []float64 {
	var out []float64
	for _, b := range s.Banks() {
		tp := b.(core.PartArrayReporter)
		out = append(out, tp.LRArray().WearCounts()...)
	}
	return out
}

// uniformLineWrites reads the per-slot wear counters of a uniform cache.
func uniformLineWrites(s *sim.Simulator) []float64 {
	var out []float64
	for _, b := range s.Banks() {
		ub := b.(core.ArrayReporter)
		out = append(out, ub.Array().WearCounts()...)
	}
	return out
}

// FormatReliability renders the reliability table.
func FormatReliability(rows []ReliabilityRow) string {
	var b strings.Builder
	b.WriteString("Reliability: retention-failure exposure (no-refresh what-if) and wear\n")
	b.WriteString(header("Benchmark", "loss@10us", "loss@100us", "loss@1ms", "needRefr", "LRwearVar", "LRlife(y)"))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12.2e %12.2e %12.2e %11.2f%% %12.1f %12.2f\n",
			r.Benchmark,
			r.LossNoRefresh[10*time.Microsecond],
			r.LossNoRefresh[100*time.Microsecond],
			r.LossNoRefresh[time.Millisecond],
			r.RefreshNeeded*100,
			r.LRWear.Variation,
			r.LRWear.LifetimeYears)
	}
	return b.String()
}
