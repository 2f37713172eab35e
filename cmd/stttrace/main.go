// Command stttrace generates a benchmark's warp instruction streams and
// characterizes them without running the timing simulator: instruction
// mix, address-space coverage, write-working-set size, and the write
// skew that drives the Fig. 3 variation. Useful for inspecting and
// debugging the synthetic workload models.
//
// It also replays recorded L2 access streams into any bank organization.
// `sttsim -record` makes such a recording from a live simulation.
//
// Usage:
//
//	stttrace -bench bfs [-warps 64] [-scale 1.0] [-dump 20]
//	stttrace -replay bfs.rec -config C2
//	stttrace -replay bfs.rec -config C1,C2,C3       # one pass, K configs
//	stttrace -replay bfs.rec -config C2 -stats-json -
//	stttrace -import app.log -o app.rec [-workload name] [-fold-sm]
//
// -replay reads v2 recordings (workload identity, warmup boundary,
// kernel phases) and bare v1 streams. Naming several comma-separated
// configurations replays the stream into all of them in a single pass
// (sim.ReplayMany).
//
// -import converts an external trace — sttllc-trace/v1 NDJSON, a
// GPGPU-Sim/Accel-Sim-style access log, or an existing binary stream;
// the syntax is auto-detected — into a v2 recording, content-addressed
// so the service and the replay caches deduplicate it for free.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"sttllc/internal/config"
	"sttllc/internal/experiments"
	"sttllc/internal/gpu"
	"sttllc/internal/ingest"
	"sttllc/internal/sim"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

func main() {
	var (
		benchName = flag.String("bench", "bfs", "benchmark name")
		warps     = flag.Int("warps", 64, "number of warps to generate")
		scale     = flag.Float64("scale", 1.0, "scale per-warp instruction counts")
		dump      = flag.Int("dump", 0, "print the first N instructions of warp 0")
		replay    = flag.String("replay", "", "replay a recorded trace into banks of -config (comma-separate several configs for a single-pass sweep)")
		cfgName   = flag.String("config", "C1", "configuration(s) for -replay")
		suite     = flag.Bool("suite", false, "print the parameter table of the whole benchmark suite")
		statsOut  = flag.String("stats-json", "", "with -replay: write the sttllc-stats/v1 dump to this file ('-' = stdout)")

		importPath = flag.String("import", "", "convert an external trace (NDJSON, GPGPU-Sim log, or binary; auto-detected) to a v2 recording")
		outPath    = flag.String("o", "", "with -import: output recording path (default: input with .rec appended)")
		workload   = flag.String("workload", "", "with -import: workload label for the recording (default \"imported\")")
		foldSM     = flag.Bool("fold-sm", false, "with -import: fold out-of-range SM ids modulo the SM count instead of rejecting them")
	)
	flag.Parse()

	if *suite {
		printSuite()
		return
	}

	if *importPath != "" {
		importTrace(*importPath, *outPath, *workload, *foldSM)
		return
	}

	if *replay != "" {
		replayTrace(*replay, *cfgName, *statsOut)
		return
	}

	spec, ok := workloads.ByName(*benchName)
	if !ok {
		fmt.Fprintf(os.Stderr, "stttrace: unknown benchmark %q\n", *benchName)
		os.Exit(2)
	}
	if *scale > 0 && *scale != 1.0 {
		spec = spec.Scale(*scale)
	}
	model := spec.Model()

	if *dump > 0 {
		st := model.NewWarp(0)
		for i := 0; i < *dump; i++ {
			in, ok := st.Next()
			if !ok {
				break
			}
			kind := "alu  "
			switch in.Kind {
			case gpu.InstrLoad:
				kind = "load "
			case gpu.InstrStore:
				kind = "store"
			}
			local := ""
			if in.Space != gpu.SpaceGlobal {
				local = " " + in.Space.String()
			}
			if in.Kind == gpu.InstrALU {
				fmt.Printf("%6d  %s\n", i, kind)
			} else {
				fmt.Printf("%6d  %s %#012x%s\n", i, kind, in.Addr, local)
			}
		}
		return
	}

	var total, mem, loads, stores, locals uint64
	readLines := map[uint64]struct{}{}
	writeLines := map[uint64]struct{}{}
	writeCounts := map[uint64]uint64{}
	for w := 0; w < *warps; w++ {
		st := model.NewWarp(w)
		for {
			in, ok := st.Next()
			if !ok {
				break
			}
			total++
			if in.Kind == gpu.InstrALU {
				continue
			}
			mem++
			if in.Space == gpu.SpaceLocal {
				locals++
			}
			line := in.Addr &^ 127
			switch in.Kind {
			case gpu.InstrLoad:
				loads++
				readLines[line] = struct{}{}
			case gpu.InstrStore:
				stores++
				writeLines[line] = struct{}{}
				writeCounts[line]++
			}
		}
	}

	fmt.Printf("benchmark %s (region %d): %s\n", spec.Name, spec.Region, spec.Description)
	fmt.Printf("  warps=%d instructions=%d\n", *warps, total)
	fmt.Printf("  mix: mem=%.1f%% (loads=%.1f%%, stores=%.1f%%, local=%.1f%% of mem)\n",
		pct(mem, total), pct(loads, total), pct(stores, total), pct(locals, mem))
	fmt.Printf("  write share of mem ops: %.1f%% (paper range: ~0%%..63%%)\n", pct(stores, mem))
	fmt.Printf("  read footprint:  %8d lines (%d KB)\n", len(readLines), len(readLines)*128>>10)
	fmt.Printf("  write working set: %6d lines (%d KB)\n", len(writeLines), len(writeLines)*128>>10)

	// Write skew: share of writes landing on the hottest 10% of lines.
	counts := make([]uint64, 0, len(writeCounts))
	for _, c := range writeCounts {
		counts = append(counts, c)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	hot := len(counts) / 10
	if hot == 0 && len(counts) > 0 {
		hot = 1
	}
	var hotWrites uint64
	for _, c := range counts[:hot] {
		hotWrites += c
	}
	if stores > 0 {
		fmt.Printf("  write skew: hottest 10%% of written lines receive %.1f%% of writes\n",
			pct(hotWrites, stores))
	}
}

// importTrace converts an external trace into a v2 recording. The
// importer auto-detects the syntax, validates every record against the
// configured address space, and content-addresses the result, so the
// written recording drops straight into -replay, the recording caches,
// and the service's trace registry.
func importTrace(in, out, workload string, foldSM bool) {
	if out == "" {
		out = in + ".rec"
	}
	f, err := os.Open(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stttrace: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	rec, err := ingest.Import(f, ingest.Options{Workload: workload, FoldSM: foldSM})
	if err != nil {
		fmt.Fprintf(os.Stderr, "stttrace: import: %v\n", err)
		os.Exit(1)
	}
	o, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stttrace: %v\n", err)
		os.Exit(1)
	}
	defer o.Close()
	if err := trace.WriteRecording(o, rec); err != nil {
		fmt.Fprintf(os.Stderr, "stttrace: writing recording: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("imported %d L2 accesses, %d phases, end cycle %d (workload %q, id %s) to %s\n",
		len(rec.Records), len(rec.Phases), rec.EndCycle, rec.Workload, rec.WorkloadHash, out)
}

// resolveConfigs parses the -config value: one name, or a
// comma-separated sweep.
func resolveConfigs(cfgName string) []config.GPUConfig {
	var cfgs []config.GPUConfig
	for _, name := range strings.Split(cfgName, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		cfg, ok := config.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "stttrace: unknown configuration %q\n", name)
			os.Exit(2)
		}
		cfgs = append(cfgs, cfg)
	}
	if len(cfgs) == 0 {
		fmt.Fprintln(os.Stderr, "stttrace: no configuration named")
		os.Exit(2)
	}
	return cfgs
}

// replayTrace drives a recorded trace into the named configurations in
// one pass over the stream.
func replayTrace(path, cfgName, statsOut string) {
	cfgs := resolveConfigs(cfgName)
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stttrace: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	rec, err := trace.ReadRecording(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stttrace: decode: %v\n", err)
		os.Exit(1)
	}
	rs := sim.ReplayMany(rec, cfgs)
	if statsOut != "" {
		w := os.Stdout
		if statsOut != "-" {
			out, err := os.Create(statsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "stttrace: %v\n", err)
				os.Exit(1)
			}
			defer out.Close()
			w = out
		}
		// One config keeps the historical single-dump shape; a sweep
		// emits the multi-run array form.
		if len(rs) == 1 {
			err = rs[0].Dump().WriteJSON(w)
		} else {
			dumps := make([]sim.StatsDump, len(rs))
			for i, r := range rs {
				dumps[i] = r.Dump()
			}
			err = sim.WriteStatsDumps(w, dumps)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "stttrace: stats dump: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for i, r := range rs {
		fmt.Printf("replayed %d accesses into %s\n", len(rec.Records), cfgs[i].Name)
		fmt.Print(experiments.RunResultString(r))
	}
}

// printSuite renders the per-benchmark parameter table.
func printSuite() {
	fmt.Printf("%-14s %-7s %5s %5s %5s %5s %5s %9s %7s %5s %4s %6s\n",
		"benchmark", "region", "mem%", "wr%", "lcl%", "cst%", "tex%",
		"footprint", "wws", "regs", "tpb", "grids")
	for _, s := range workloads.All() {
		fmt.Printf("%-14s %-7d %4.0f%% %4.0f%% %4.0f%% %4.0f%% %4.0f%% %8dK %6dK %5d %4d %6d\n",
			s.Name, s.Region, s.MemFrac*100, s.WriteFrac*100, s.LocalFrac*100,
			s.ConstFrac*100, s.TexFrac*100,
			s.FootprintBytes>>10, s.WWSBytes>>10,
			s.RegsPerThread, s.ThreadsPerBlock, s.Grids)
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
