package experiments

import (
	"fmt"
	"strings"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/sim"
)

// ---------------------------------------------------------------------
// Adaptive policy sweep: does C4's online controller recover (or beat)
// the best statically chosen setting of the knobs it tunes? Each
// benchmark runs under C2 pinned at each HR retention tier of C4's
// ladder — the static choices a designer fixing the cell at build time
// would pick among — and under C4; the comparison metric is total L2
// energy over the run (dynamic plus leakage x runtime), the quantity
// that build-time gamble is actually about.
// ---------------------------------------------------------------------

// adaptiveFixedConfigs are the static design points C4 competes with:
// the paper's C2 (40ms HR) plus C2 pinned at the other tiers of the
// default retention ladder.
func adaptiveFixedConfigs() []config.GPUConfig {
	fixed := []config.GPUConfig{config.C2()}
	for _, ret := range []time.Duration{10 * time.Millisecond, 160 * time.Millisecond} {
		g := config.C2()
		g.Name = fmt.Sprintf("C2-hr%v", ret)
		g.L2.HRRetention = ret
		fixed = append(fixed, g)
	}
	return fixed
}

// AdaptiveRow is one benchmark's fixed-vs-adaptive comparison.
type AdaptiveRow struct {
	Benchmark string
	// FixedEnergyJ maps each static organization to its total L2
	// energy (dynamic + leakage over the run's wall time).
	FixedEnergyJ map[string]float64
	// FixedBest names the static organization with the lowest energy.
	FixedBest        string
	FixedBestEnergyJ float64
	AdaptiveEnergyJ  float64
	// EnergyRatio is adaptive / fixed-best (<= 1 means the controller
	// matched or beat the best per-workload static choice).
	EnergyRatio float64
	// Speedup is adaptive IPC over fixed-best IPC.
	Speedup float64
	// Transition activity of the adaptive run, summed across banks.
	ThresholdMoves uint64
	LRResizes      uint64
	RetentionMoves uint64
	Demotions      uint64
}

// totalL2EnergyJ folds leakage over the measured window into the
// dynamic ledger: the energy a fixed-vs-adaptive choice actually pays.
func totalL2EnergyJ(r sim.Result) float64 {
	return r.DynamicEnergyJ + r.LeakagePowerW*r.Seconds
}

// AdaptivePolicySweep runs every benchmark under the fixed two-part
// organizations and under C4, and reports per-workload energy with the
// controller's transition activity.
func AdaptivePolicySweep(p Params) []AdaptiveRow {
	fixed := adaptiveFixedConfigs()
	rs := runGrid(p, append(fixed, config.C4()))
	specs := p.specs()
	rows := make([]AdaptiveRow, len(specs))
	for si, spec := range specs {
		runs := rs[si*(len(fixed)+1) : (si+1)*(len(fixed)+1)]
		row := AdaptiveRow{Benchmark: spec.Name, FixedEnergyJ: map[string]float64{}}
		var bestIPC float64
		for i, cfg := range fixed {
			e := totalL2EnergyJ(runs[i])
			row.FixedEnergyJ[cfg.Name] = e
			if row.FixedBest == "" || e < row.FixedBestEnergyJ {
				row.FixedBest, row.FixedBestEnergyJ, bestIPC = cfg.Name, e, runs[i].IPC
			}
		}
		ra := runs[len(fixed)]
		row.AdaptiveEnergyJ = totalL2EnergyJ(ra)
		if row.FixedBestEnergyJ > 0 {
			row.EnergyRatio = row.AdaptiveEnergyJ / row.FixedBestEnergyJ
		}
		if bestIPC > 0 {
			row.Speedup = ra.IPC / bestIPC
		}
		row.ThresholdMoves = ra.Bank.ReconfigThreshold
		row.LRResizes = ra.Bank.ReconfigLRResize
		row.RetentionMoves = ra.Bank.ReconfigRetention
		row.Demotions = ra.Bank.ReconfigDemotions
		rows[si] = row
	}
	return rows
}

// FormatAdaptivePolicySweep renders the comparison, with a summary
// line counting the workloads where the controller matched or beat the
// best static organization.
func FormatAdaptivePolicySweep(rows []AdaptiveRow) string {
	var b strings.Builder
	b.WriteString("Adaptive policy sweep: C4 vs the best fixed two-part organization (total L2 energy)\n")
	b.WriteString(header("Benchmark", "FixedBest", "Fixed J", "Adaptive J", "A/F", "Speedup", "Trans", "Demote"))
	wins := 0
	for _, r := range rows {
		if r.EnergyRatio > 0 && r.EnergyRatio <= 1 {
			wins++
		}
		fmt.Fprintf(&b, "%-14s %12s %12.3e %12.3e %12.3f %12.3f %12d %12d\n",
			r.Benchmark, r.FixedBest, r.FixedBestEnergyJ, r.AdaptiveEnergyJ,
			r.EnergyRatio, r.Speedup,
			r.ThresholdMoves+r.LRResizes+r.RetentionMoves, r.Demotions)
	}
	fmt.Fprintf(&b, "adaptive <= fixed-best on %d/%d workloads\n", wins, len(rows))
	return b.String()
}
