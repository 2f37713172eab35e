// Command sttsim runs one benchmark or multi-kernel application on one
// GPU configuration and prints the simulation result: IPC, cache
// behaviour, the two-part machinery's event counts, and the L2 power
// breakdown — for an application, one row per kernel and its totals.
// A benchmark runs as the application of its one kernel, so every flag
// means the same for both. -warmup counts instructions from the
// application's start across kernel boundaries; statistics reset once,
// where the budget is spent, without moving the timeline.
//
// Usage:
//
//	sttsim -config C1 -bench bfs [-scale 0.5] [-warps 32] [-maxcycles N] [-warmup N]
//	sttsim -config C1 -app srad-pipeline [-warmup N]  # multi-kernel application
//	sttsim -config C2 -bench bfs -trace out.json     # Perfetto timeline
//	sttsim -config C2 -bench bfs -stats-json -       # machine-readable stats
//	sttsim -config C2 -bench bfs -timeout 30s        # bound wall time
//	sttsim -config C1 -bench bfs -record bfs.rec     # save the L2 stream
//	sttsim -config C1 -app srad-pipeline -record srad.rec
//	sttsim -list
//
// -record is the one record command. It captures the L2 reference
// stream of whatever run the other flags select — a warmed-up
// benchmark, an application, an L3 hierarchy — with its warmup boundary
// and kernel-phase markers, to a recording file that `stttrace -replay`
// and `sttexp -replay` can fan out across bank configurations without
// re-running the SMs. An interrupted run's recording is not written.
// Recording does not perturb the run: the reported result is
// byte-identical either way.
//
// Ctrl-C (or an expired -timeout) stops the run at the simulator's next
// periodic cancellation check; the partial result simulated so far is
// still reported, flagged as partial on stderr — an application's with
// a row per kernel that launched, and an empty window if the warmup had
// not ended.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"sttllc/internal/config"
	"sttllc/internal/experiments"
	"sttllc/internal/metrics"
	"sttllc/internal/sim"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

func main() {
	var (
		cfgName   = flag.String("config", "C1", "configuration: baseline-SRAM, baseline-STT, C1, C2, C3")
		benchName = flag.String("bench", "bfs", "benchmark name (see -list)")
		appName   = flag.String("app", "", "run a multi-kernel application instead of one benchmark")
		scale     = flag.Float64("scale", 1.0, "scale per-warp instruction counts")
		warps     = flag.Int("warps", 0, "override warp jobs per SM (0 = benchmark default)")
		maxCycles = flag.Int64("maxcycles", 0, "abort after this many cycles (0 = none)")
		warmup    = flag.Uint64("warmup", 0, "instructions to run before statistics start (0 = none)")
		list      = flag.Bool("list", false, "list configurations and benchmarks")
		traceOut  = flag.String("trace", "", "write a Chrome-trace/Perfetto timeline of the run to this JSON file (load at ui.perfetto.dev)")
		statsOut  = flag.String("stats-json", "", "write the sttllc-stats/v1 JSON dump to this file ('-' = stdout) instead of the text report")
		timeout   = flag.Duration("timeout", 0, "bound wall time; on expiry (or Ctrl-C) report the partial result (0 = none)")
		l3KB      = flag.Int("l3", 0, "stack an STT-MRAM L3 of this many KB (total across banks) behind the L2 (0 = none)")
		l3Ways    = flag.Int("l3ways", 0, "L3 associativity (0 = default 8; needs -l3)")
		l3Variant = flag.String("l3variant", "read-tuned", "L3 cell flavor: read-tuned or write-tuned (needs -l3)")
		recordOut = flag.String("record", "", "write the run's L2 reference stream to this recording file (replayable by stttrace/sttexp -replay)")
	)
	flag.Parse()

	if *list {
		fmt.Println("configurations:")
		for _, g := range config.Extended() {
			fmt.Printf("  %-14s %s\n", g.Name, g.Description)
		}
		fmt.Println("benchmarks:")
		for _, s := range workloads.All() {
			fmt.Printf("  %-14s region %d  %s\n", s.Name, s.Region, s.Description)
		}
		fmt.Println("applications:")
		for _, a := range workloads.Apps() {
			fmt.Printf("  %-18s %s\n", a.Name, a.Description)
		}
		return
	}

	cfg, ok := config.ByName(*cfgName)
	if !ok {
		fail("unknown configuration %q (try -list)", *cfgName)
	}
	if *l3KB > 0 {
		cfg = config.WithL3(cfg, *l3KB<<10, *l3Ways, config.CellVariant(*l3Variant))
	}
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}

	// Ctrl-C and -timeout both cancel the run context; the simulator
	// notices at its next periodic check and returns what it has.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var app workloads.App
	if *appName != "" {
		if app, ok = workloads.AppByName(*appName); !ok {
			fail("unknown application %q (try -list)", *appName)
		}
	} else {
		spec, ok := workloads.ByName(*benchName)
		if !ok {
			fail("unknown benchmark %q (try -list)", *benchName)
		}
		app = workloads.Single(spec)
	}
	for i := range app.Kernels {
		if *scale > 0 && *scale != 1.0 {
			app.Kernels[i] = app.Kernels[i].Scale(*scale)
		}
		if *warps > 0 {
			app.Kernels[i].WarpsPerSM = *warps
		}
	}

	opts := sim.Options{MaxCycles: *maxCycles, WarmupInstructions: *warmup}
	if *traceOut != "" {
		opts.Tracer = metrics.NewTracer(cfg.ClockHz)
	}
	if *statsOut != "" {
		opts.Metrics = metrics.NewRegistry(true)
	}
	if *recordOut != "" {
		opts.Recording = new(trace.Recording)
	}
	s := new(sim.Simulator)
	s.Reset(cfg, app, opts)
	r, err := s.RunContext(ctx)
	writeRecording(*recordOut, opts.Recording, err)
	reportPartial(err)
	writeTrace(*traceOut, opts.Tracer)
	if *statsOut != "" {
		writeStats(*statsOut, sim.DumpStats(r, opts.Metrics))
		return
	}
	fmt.Print(experiments.RunResultString(r))
}

// reportPartial flags an interrupted run on stderr. The results that
// follow on stdout cover only the cycles simulated before the stop.
func reportPartial(err error) {
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintln(os.Stderr, "sttsim: timeout expired — results below are PARTIAL")
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "sttsim: interrupted — results below are PARTIAL")
	default:
		fmt.Fprintf(os.Stderr, "sttsim: run stopped early (%v) — results below are PARTIAL\n", err)
	}
}

// writeRecording persists the run's L2 reference stream, if one was
// recorded. A partial run is not persisted: its stream ends
// mid-workload, and replaying it would silently produce truncated
// statistics.
func writeRecording(path string, rec *trace.Recording, runErr error) {
	if rec == nil {
		return
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "sttsim: run was interrupted — not writing partial recording to %s\n", path)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	if err := trace.WriteRecording(f, rec); err != nil {
		fail("writing recording: %v", err)
	}
	fmt.Fprintf(os.Stderr, "sttsim: recorded %d L2 accesses (%s) to %s\n",
		len(rec.Records), rec.Workload, path)
}

// writeTrace serializes the run's timeline, if one was recorded.
func writeTrace(path string, tr *metrics.Tracer) {
	if tr == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	if err := tr.WriteJSON(f); err != nil {
		fail("writing trace: %v", err)
	}
	fmt.Fprintf(os.Stderr, "sttsim: wrote %d trace events to %s (load at https://ui.perfetto.dev)\n",
		tr.Len(), path)
}

// writeStats serializes the stats dump to path, or stdout for "-".
func writeStats(path string, d sim.StatsDump) {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := d.WriteJSON(w); err != nil {
		fail("writing stats: %v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sttsim: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "usage: sttsim -config <name> -bench <name>; flags:")
	flag.CommandLine.SetOutput(os.Stderr)
	flag.PrintDefaults()
	os.Exit(2)
}
