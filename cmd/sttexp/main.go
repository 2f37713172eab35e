// Command sttexp regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports, produced by
// the simulator rather than copied from the paper.
//
// Usage:
//
//	sttexp -exp all                # everything (slow at full scale)
//	sttexp -exp fig8 -scale 0.25   # one experiment, scaled down
//	sttexp -exp fig3,fig6 -bench bfs,stencil
//	sttexp -exp fig4,fig5 -replaysweeps        # record once, replay K-1 variants
//	sttexp -exp fig4 -replay bfs.rec           # drive the sweep from a recording
//	sttexp -exp gen -gen '{"name":"mix","seed":7,"count":4}'   # generated family
//
// Experiments: table1 table2 fig3 fig4 fig5 fig6 fig8 ablation area
// Extensions: power retention lrsize reliability adaptive runs gen
//
// "gen" sweeps a parametric workload family (internal/workloads/gen)
// across configurations: -gen takes a gen.FamilySpec as inline JSON or
// @file, -genconfigs picks the configuration set. Members are
// deterministic draws, so the sweep reproduces from the spec alone.
//
// -replaysweeps accelerates the bank-variant sweeps (fig4, fig5): each
// workload is simulated once and its recorded L2 stream is replayed
// into the remaining configurations; the sweep's normalization base
// stays execution-driven. -replay goes further and replaces simulation
// entirely with a recording produced by `sttsim -record`; it applies to
// fig4, fig5, and fig6 only.
//
// "runs" emits per-run sttllc-stats/v1 dumps (see internal/sim's
// StatsDump) for every configuration x benchmark pair; combine with
// -json for a machine-readable sweep.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"sttllc/internal/arraymodel"
	"sttllc/internal/config"
	"sttllc/internal/experiments"
	"sttllc/internal/plot"
	"sttllc/internal/sttram"
	"sttllc/internal/trace"
	"sttllc/internal/workloads/gen"
)

// fig8Chart renders one Figure 8 metric as grouped ASCII bars.
func fig8Chart(title string, res experiments.Fig8Result, pick func(experiments.Fig8Row) map[string]float64) string {
	perSeries := map[string]map[string]float64{}
	for _, cfg := range experiments.Fig8Configs {
		perSeries[cfg] = map[string]float64{}
	}
	for _, r := range res.Rows {
		m := pick(r)
		for _, cfg := range experiments.Fig8Configs {
			perSeries[cfg][r.Benchmark] = m[cfg]
		}
	}
	ch := plot.FromMap(title, perSeries, experiments.Fig8Configs, 1.0)
	return ch.Render()
}

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiments (table1,table2,fig3,fig4,fig5,fig6,fig8,ablation,area,power,retention,lrsize,reliability,adaptive,runs,gen,all)")
		scale   = flag.Float64("scale", 1.0, "scale per-warp instruction counts")
		warps   = flag.Int("warps", 0, "override warp jobs per SM (0 = benchmark default)")
		benches = flag.String("bench", "", "comma-separated benchmark subset (default: all)")
		quiet   = flag.Bool("q", false, "suppress timing footers")
		asJSON  = flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
		chart   = flag.Bool("chart", false, "render Figure 8 as ASCII bar charts")
		timeout = flag.Duration("timeout", 0, "bound total wall time; on expiry (or Ctrl-C) skip remaining experiments (0 = none)")
		withL3  = flag.Bool("l3", false, "include the stacked-L3 configurations (C1-L3, C2-L3) in the runs sweep")
		replayS = flag.Bool("replaysweeps", false, "accelerate fig4/fig5 bank sweeps: record each workload once, replay the variants")
		replayF = flag.String("replay", "", "drive fig4/fig5/fig6 from a recording file instead of simulating (see sttsim -record)")
		genSpec = flag.String("gen", "", "gen.FamilySpec JSON (inline, or @file) for the 'gen' experiment")
		genCfgs = flag.String("genconfigs", "", "comma-separated configurations for the 'gen' experiment (default: the Fig. 8 set)")
	)
	flag.Parse()

	// Ctrl-C and -timeout cancel the sweep context: running simulations
	// stop at their next periodic check, queued specs are skipped, and
	// the experiments completed so far are still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	p := experiments.Params{Scale: *scale, WarpsPerSM: *warps, Context: ctx, ReplaySweeps: *replayS}
	if *benches != "" {
		p.Benchmarks = strings.Split(*benches, ",")
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	if *replayF != "" {
		// A recording replaces simulation, and only the bank-sweep
		// experiments can be driven from one: everything else needs SMs.
		for name := range want {
			if name != "fig4" && name != "fig5" && name != "fig6" {
				fmt.Fprintf(os.Stderr, "sttexp: -replay drives fig4/fig5/fig6 only (got %q)\n", name)
				os.Exit(2)
			}
		}
		f, err := os.Open(*replayF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sttexp: %v\n", err)
			os.Exit(1)
		}
		rec, err := trace.ReadRecording(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sttexp: reading recording: %v\n", err)
			os.Exit(1)
		}
		p.ReplayTrace = rec
	}

	jsonOut := map[string]any{}
	run := func(name string, fn func()) {
		if !all && !want[name] {
			return
		}
		if ctx.Err() != nil {
			// Interrupted: skip the remaining experiments (delete so the
			// unknown-name check below doesn't trip on skipped ones).
			delete(want, name)
			return
		}
		t0 := time.Now()
		fn()
		if !*asJSON {
			if !*quiet {
				fmt.Printf("[%s took %s]\n\n", name, time.Since(t0).Round(time.Millisecond))
			} else {
				fmt.Println()
			}
		}
		delete(want, name)
	}
	// text prints s unless JSON mode is active; data registers the
	// experiment's structured rows for the JSON document.
	text := func(s string) {
		if !*asJSON {
			fmt.Print(s)
		}
	}
	data := func(name string, v any) { jsonOut[name] = v }

	run("table1", func() {
		rows := sttram.Table1(config.BaseLineBytes)
		data("table1", rows)
		text("Table 1: STT-RAM parameters for different data retention times\n")
		text(sttram.FormatTable1(config.BaseLineBytes))
	})
	run("table2", func() {
		data("table2", config.Table2())
		text("Table 2: GPU configurations\n")
		text(config.FormatTable2())
	})
	run("area", func() {
		area := map[string]any{
			"densityRatio":    arraymodel.DensityRatio(),
			"sram384KBmm2":    arraymodel.DataArrayAreaMM2(384<<10, arraymodel.SRAM),
			"stt1536KBmm2":    arraymodel.DataArrayAreaMM2(1536<<10, arraymodel.STTRAM),
			"c2RegBonusPerSM": config.RegisterBonusPerSM(config.BaseL2Bytes),
			"c3RegBonusPerSM": config.RegisterBonusPerSM(2 * config.BaseL2Bytes),
		}
		data("area", area)
		text("Area model: iso-area accounting\n")
		text(fmt.Sprintf("  STT/SRAM density ratio: %.1fx\n", arraymodel.DensityRatio()))
		text(fmt.Sprintf("  384KB SRAM data array:  %.3f mm²\n", arraymodel.DataArrayAreaMM2(384<<10, arraymodel.SRAM)))
		text(fmt.Sprintf("  1536KB STT data array:  %.3f mm² (C1, equal area)\n", arraymodel.DataArrayAreaMM2(1536<<10, arraymodel.STTRAM)))
		text(fmt.Sprintf("  C2 register bonus/SM:   %d regs\n", config.RegisterBonusPerSM(config.BaseL2Bytes)))
		text(fmt.Sprintf("  C3 register bonus/SM:   %d regs\n", config.RegisterBonusPerSM(2*config.BaseL2Bytes)))
	})
	run("fig3", func() {
		rows := experiments.Fig3(p)
		data("fig3", rows)
		text(experiments.FormatFig3(rows))
	})
	run("fig4", func() {
		rows := experiments.Fig4(p, nil)
		data("fig4", rows)
		text(experiments.FormatFig4(rows))
	})
	run("fig5", func() {
		rows := experiments.Fig5(p, nil)
		data("fig5", rows)
		text(experiments.FormatFig5(rows))
	})
	run("fig6", func() {
		rows := experiments.Fig6(p)
		data("fig6", rows)
		text(experiments.FormatFig6(rows))
	})
	run("fig8", func() {
		res := experiments.Fig8(p)
		data("fig8", res)
		if *chart {
			text(fig8Chart("Figure 8a: speedup vs SRAM baseline", res,
				func(r experiments.Fig8Row) map[string]float64 { return r.Speedup }))
			text("\n")
			text(fig8Chart("Figure 8c: total L2 power vs SRAM baseline", res,
				func(r experiments.Fig8Row) map[string]float64 { return r.TotalPower }))
			return
		}
		text(experiments.FormatFig8a(res))
		text("\n")
		text(experiments.FormatFig8b(res))
		text("\n")
		text(experiments.FormatFig8c(res))
	})
	run("ablation", func() {
		rows := experiments.Ablation(p, nil)
		data("ablation", rows)
		text(experiments.FormatAblation(rows))
	})
	run("power", func() {
		rows := experiments.PowerBreakdown(p, "C1")
		data("power", rows)
		text(experiments.FormatPowerBreakdown(rows))
	})
	run("retention", func() {
		rows := experiments.RetentionSweep(p, nil)
		data("retention", rows)
		text(experiments.FormatRetentionSweep(rows))
	})
	run("lrsize", func() {
		rows := experiments.LRSizeSweep(p)
		data("lrsize", rows)
		text(experiments.FormatLRSizeSweep(rows))
	})
	run("reliability", func() {
		rows := experiments.Reliability(p)
		data("reliability", rows)
		text(experiments.FormatReliability(rows))
	})
	run("adaptive", func() {
		rows := experiments.AdaptivePolicySweep(p)
		data("adaptive", rows)
		text(experiments.FormatAdaptivePolicySweep(rows))
	})
	if *genSpec != "" || want["gen"] {
		run("gen", func() {
			if *genSpec == "" {
				fmt.Fprintln(os.Stderr, "sttexp: -exp gen requires -gen '<family spec JSON>' (or -gen @spec.json)")
				os.Exit(2)
			}
			raw := []byte(*genSpec)
			if strings.HasPrefix(*genSpec, "@") {
				var err error
				raw, err = os.ReadFile((*genSpec)[1:])
				if err != nil {
					fmt.Fprintf(os.Stderr, "sttexp: %v\n", err)
					os.Exit(1)
				}
			}
			var fam gen.FamilySpec
			if err := json.Unmarshal(raw, &fam); err != nil {
				fmt.Fprintf(os.Stderr, "sttexp: parsing -gen: %v\n", err)
				os.Exit(1)
			}
			if fam.Count == 0 {
				fam.Count = 1
			}
			var names []string
			if *genCfgs != "" {
				names = strings.Split(*genCfgs, ",")
			}
			rows, err := experiments.GeneratedSweep(p, fam, names)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sttexp: gen sweep: %v\n", err)
				os.Exit(1)
			}
			data("gen", rows)
			text(experiments.FormatGeneratedSweep(rows))
		})
	}
	run("runs", func() {
		var names []string
		if *withL3 {
			for _, g := range config.Extended() {
				names = append(names, g.Name)
			}
		}
		dumps := experiments.StatsDumps(p, names)
		data("runs", dumps)
		for _, d := range dumps {
			line := fmt.Sprintf("%-14s %-14s cycles=%-10d IPC=%-8.4f L2hit=%-6.3f LRhit=%-6.3f migr=%d refresh=%d overflow=%d",
				d.Config, d.Benchmark, d.Cycles, d.IPC, d.L2.HitRate, d.L2.LRHitRate,
				d.L2.MigrationsToLR, d.L2.Refreshes, d.L2.SwapBufferOverflows)
			// Multi-tier dumps append each lower level's service rate.
			for _, t := range d.Tiers {
				if t.Level != "l2" {
					line += fmt.Sprintf(" %shit=%.3f", t.Level, t.HitRate)
				}
			}
			text(line + "\n")
		}
	})

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "sttexp: interrupted — partial results only")
	}
	if !all {
		for name := range want {
			fmt.Fprintf(os.Stderr, "sttexp: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "sttexp: json: %v\n", err)
			os.Exit(1)
		}
	}
}
