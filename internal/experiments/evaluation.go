package experiments

import (
	"fmt"
	"strings"

	"sttllc/internal/config"
	"sttllc/internal/sim"
	"sttllc/internal/stats"
	"sttllc/internal/workloads"
)

// ---------------------------------------------------------------------
// Figure 8: speedup (a), dynamic power (b), and total L2 power (c) of
// baseline-STT / C1 / C2 / C3, normalized to the SRAM baseline.
// ---------------------------------------------------------------------

// Fig8Configs are the non-reference configurations, in plot order.
var Fig8Configs = []string{"baseline-STT", "C1", "C2", "C3"}

// Fig8Row holds one benchmark's normalized metrics per configuration.
type Fig8Row struct {
	Benchmark string
	Region    workloads.Region
	// Maps keyed by configuration name.
	Speedup      map[string]float64
	DynamicPower map[string]float64
	TotalPower   map[string]float64
	// Raw SRAM-baseline reference values.
	BaseIPC        float64
	BaseDynPowerW  float64
	BaseTotPowerW  float64
	BaseCycles     int64
	ResidentBase   int
	ResidentC2     int
	L2WriteFracPct float64 // write share of L2 accesses (the paper's 0-63%)
}

// Fig8Result is the full evaluation with summary rows.
type Fig8Result struct {
	Rows []Fig8Row
	// GmeanSpeedup, MeanDynPower, MeanTotalPower are keyed by config.
	GmeanSpeedup   map[string]float64
	MeanDynPower   map[string]float64
	MeanTotalPower map[string]float64
}

// Fig8 runs every benchmark on the SRAM baseline and every Fig8Configs
// configuration. The runs are independent, so they fan out one run per
// task (runGrid) and the rows are assembled from the index-addressed
// results afterwards: the output is the same at any Parallel.
func Fig8(p Params) Fig8Result {
	res := Fig8Result{
		GmeanSpeedup:   map[string]float64{},
		MeanDynPower:   map[string]float64{},
		MeanTotalPower: map[string]float64{},
	}
	cfgs := []config.GPUConfig{config.BaselineSRAM()}
	for _, name := range Fig8Configs {
		cfg, _ := config.ByName(name)
		cfgs = append(cfgs, cfg)
	}
	rs := runGrid(p, cfgs)
	specs := p.specs()
	rows := make([]Fig8Row, len(specs))
	for si, spec := range specs {
		runs := rs[si*len(cfgs) : (si+1)*len(cfgs)]
		base := runs[0]
		row := Fig8Row{
			Benchmark:     spec.Name,
			Region:        spec.Region,
			Speedup:       map[string]float64{},
			DynamicPower:  map[string]float64{},
			TotalPower:    map[string]float64{},
			BaseIPC:       base.IPC,
			BaseDynPowerW: base.DynamicPowerW,
			BaseTotPowerW: base.TotalPowerW,
			BaseCycles:    base.Cycles,
			ResidentBase:  base.ResidentWarps,
		}
		if t := base.Bank.Reads + base.Bank.Writes; t > 0 {
			row.L2WriteFracPct = 100 * float64(base.Bank.Writes) / float64(t)
		}
		for ci, name := range Fig8Configs {
			r := runs[ci+1]
			if name == "C2" {
				row.ResidentC2 = r.ResidentWarps
			}
			sp, dp, tp := 0.0, 0.0, 0.0
			if base.IPC > 0 {
				sp = r.IPC / base.IPC
			}
			if base.DynamicPowerW > 0 {
				dp = r.DynamicPowerW / base.DynamicPowerW
			}
			if base.TotalPowerW > 0 {
				tp = r.TotalPowerW / base.TotalPowerW
			}
			row.Speedup[name] = sp
			row.DynamicPower[name] = dp
			row.TotalPower[name] = tp
		}
		rows[si] = row
	}
	res.Rows = rows
	for _, name := range Fig8Configs {
		var sp, dp, tp []float64
		for _, row := range rows {
			sp = append(sp, row.Speedup[name])
			dp = append(dp, row.DynamicPower[name])
			tp = append(tp, row.TotalPower[name])
		}
		res.GmeanSpeedup[name] = stats.Gmean(sp)
		res.MeanDynPower[name] = stats.Mean(dp)
		res.MeanTotalPower[name] = stats.Mean(tp)
	}
	return res
}

// formatFig8Metric renders one sub-figure's matrix.
func formatFig8Metric(title string, rows []Fig8Row, pick func(Fig8Row) map[string]float64,
	summaryName string, summary map[string]float64) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	cols := append([]string{"Benchmark"}, Fig8Configs...)
	b.WriteString(header(cols...))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s", r.Benchmark)
		m := pick(r)
		for _, c := range Fig8Configs {
			fmt.Fprintf(&b, " %12.3f", m[c])
		}
		fmt.Fprintf(&b, "   (region %d)\n", r.Region)
	}
	fmt.Fprintf(&b, "%-14s", summaryName)
	for _, c := range Fig8Configs {
		fmt.Fprintf(&b, " %12.3f", summary[c])
	}
	b.WriteString("\n")
	return b.String()
}

// FormatFig8a renders the speedup sub-figure.
func FormatFig8a(res Fig8Result) string {
	return formatFig8Metric("Figure 8a: speedup vs SRAM baseline",
		res.Rows, func(r Fig8Row) map[string]float64 { return r.Speedup },
		"Gmean", res.GmeanSpeedup)
}

// FormatFig8b renders the dynamic-power sub-figure.
func FormatFig8b(res Fig8Result) string {
	return formatFig8Metric("Figure 8b: dynamic L2 power normalized to SRAM baseline",
		res.Rows, func(r Fig8Row) map[string]float64 { return r.DynamicPower },
		"Mean", res.MeanDynPower)
}

// FormatFig8c renders the total-power sub-figure.
func FormatFig8c(res Fig8Result) string {
	return formatFig8Metric("Figure 8c: total L2 power normalized to SRAM baseline",
		res.Rows, func(r Fig8Row) map[string]float64 { return r.TotalPower },
		"Mean", res.MeanTotalPower)
}

// ---------------------------------------------------------------------
// Ablations beyond the paper: search policy, migration, and buffers.
// ---------------------------------------------------------------------

// AblationRow compares one design variant against full C1.
type AblationRow struct {
	Benchmark string
	Variant   string
	Speedup   float64 // IPC vs full C1
	DynPower  float64 // dynamic power vs full C1
}

// AblationVariants lists the implemented design ablations.
var AblationVariants = []string{
	"parallel-search", "no-migration", "tiny-buffers", "sram-lr-hybrid",
}

func ablationConfig(variant string) config.GPUConfig {
	cfg := config.C1()
	switch variant {
	case "parallel-search":
		cfg.L2.ParallelSearch = true
	case "no-migration":
		cfg.L2.DisableMigration = true
	case "tiny-buffers":
		cfg.L2.BufferBlocks = 1
	case "sram-lr-hybrid":
		// Related-work design point (hybrid SRAM/STT): fast SRAM LR,
		// at the cost of leakage and (unmodeled) 4x LR area.
		cfg.L2.SRAMLR = true
	default:
		panic(fmt.Sprintf("experiments: unknown ablation %q", variant))
	}
	return cfg
}

// Ablation measures each variant relative to the full C1 design.
func Ablation(p Params, variants []string) []AblationRow {
	if len(variants) == 0 {
		variants = AblationVariants
	}
	cfgs := []config.GPUConfig{config.C1()}
	for _, v := range variants {
		cfgs = append(cfgs, ablationConfig(v))
	}
	rs := runGrid(p, cfgs)
	specs := p.specs()
	rows := make([]AblationRow, len(specs)*len(variants))
	for si, spec := range specs {
		base := rs[si*len(cfgs)]
		for i, v := range variants {
			r := rs[si*len(cfgs)+i+1]
			row := AblationRow{Benchmark: spec.Name, Variant: v}
			if base.IPC > 0 {
				row.Speedup = r.IPC / base.IPC
			}
			if base.DynamicPowerW > 0 {
				row.DynPower = r.DynamicPowerW / base.DynamicPowerW
			}
			rows[si*len(variants)+i] = row
		}
	}
	return rows
}

// FormatAblation renders the ablation study.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablation: design variants relative to full C1 (1.0 = C1)\n")
	b.WriteString(header("Benchmark", "Variant", "Speedup", "DynPower"))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12s %12.3f %12.3f\n", r.Benchmark, r.Variant, r.Speedup, r.DynPower)
	}
	return b.String()
}

// RunResultString summarizes one raw run (used by cmd/sttsim): an
// application of several kernels — partial ones included — as one row
// per kernel plus its totals, anything else — a benchmark, a replay —
// in full.
func RunResultString(r sim.Result) string {
	var b strings.Builder
	if r.Kernels != nil {
		fmt.Fprintf(&b, "application=%s config=%s\n", r.Benchmark, r.Config)
		for _, k := range r.Kernels {
			fmt.Fprintf(&b, "  kernel %-14s cycles=%d IPC=%.4f L2hit=%.3f\n",
				k.Benchmark, k.EndCycle-k.StartCycle, k.IPC, k.L2HitRate)
		}
		fmt.Fprintf(&b, "  total cycles=%d IPC=%.4f power=%.4fW\n", r.Cycles, r.IPC, r.TotalPowerW)
		return b.String()
	}
	fmt.Fprintf(&b, "config=%s benchmark=%s\n", r.Config, r.Benchmark)
	fmt.Fprintf(&b, "  cycles=%d instructions=%d IPC=%.4f warps/SM=%d\n",
		r.Cycles, r.Instructions, r.IPC, r.ResidentWarps)
	fmt.Fprintf(&b, "  L1: accesses=%d hitrate=%.3f\n", r.L1.Accesses(), r.L1.HitRate())
	fmt.Fprintf(&b, "  L2: reads=%d writes=%d hitrate=%.3f LRshare=%.3f migrations=%d refreshes=%d expiries=%d\n",
		r.Bank.Reads, r.Bank.Writes, r.Bank.HitRate(), r.Bank.LRWriteShare(),
		r.Bank.MigrationsToLR, r.Bank.Refreshes, r.Bank.HRExpiries)
	fmt.Fprintf(&b, "  DRAM: fills=%d writebacks=%d overflowWB=%d\n",
		r.Bank.DRAMFills, r.Bank.DRAMWritebacks, r.Bank.OverflowWritebacks)
	fmt.Fprintf(&b, "  power: dynamic=%.4fW leakage=%.4fW total=%.4fW (simulated %.3fms)\n",
		r.DynamicPowerW, r.LeakagePowerW, r.TotalPowerW, r.Seconds*1e3)
	return b.String()
}
