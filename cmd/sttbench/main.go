// Command sttbench times the evaluation benchmark suite (the same
// workloads bench_test.go runs) and records the results as JSON, so
// each PR leaves a perf trajectory next to the code. Pass a previous
// output (or any {"name": ns_op} map) as -before to get per-benchmark
// and whole-suite speedups.
//
// Usage:
//
//	sttbench                              # measure, write BENCH_engine.json
//	sttbench -before old.json -o out.json # diff against a prior run
//	sttbench -iters 10 -count 3           # best-of-3 at 10 iterations each
//	sttbench -cpuprofile cpu.pprof        # profile the timed runs
//	sttbench -check BENCH.json -maxregress 1.2  # CI gate (add -o out.json to keep the measurements)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/experiments"
	"sttllc/internal/ingest"
	"sttllc/internal/metrics"
	"sttllc/internal/sim"
	"sttllc/internal/sttram"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
	"sttllc/internal/workloads/gen"
)

// benchParams mirrors bench_test.go: reduced scale, short warps.
func benchParams(benchmarks ...string) experiments.Params {
	if len(benchmarks) == 0 {
		benchmarks = []string{"hotspot", "lud", "nw"}
	}
	return experiments.Params{Scale: 0.05, WarpsPerSM: 6, Benchmarks: benchmarks}
}

// suite is the benchmark list, one entry per bench_test.go benchmark,
// each fn being one iteration of the corresponding loop body.
func suite() []struct {
	Name string
	Fn   func()
} {
	return []struct {
		Name string
		Fn   func()
	}{
		{"Table1DeviceModel", func() { sttram.Table1(256); sttram.FormatTable1(256) }},
		{"Table2Configs", func() { config.Table2(); config.FormatTable2() }},
		{"Fig3WriteCOV", func() { experiments.Fig3(benchParams("bfs", "stencil")) }},
		{"Fig4ThresholdSweep", func() { experiments.Fig4(benchParams("bfs"), nil) }},
		{"Fig5Associativity", func() { experiments.Fig5(benchParams("bfs"), nil) }},
		{"Fig6RewriteIntervals", func() { experiments.Fig6(benchParams("bfs")) }},
		{"Fig8aSpeedup", func() { experiments.Fig8(benchParams()) }},
		{"Fig8bDynamicPower", func() { experiments.Fig8(benchParams("stencil")) }},
		{"Fig8cTotalPower", func() { experiments.Fig8(benchParams("mum")) }},
		{"AblationVariants", func() { experiments.Ablation(benchParams("bfs"), nil) }},
		{"PowerBreakdown", func() { experiments.PowerBreakdown(benchParams("bfs"), "C1") }},
		{"RetentionSweep", func() { experiments.RetentionSweep(benchParams("bfs"), nil) }},
		{"LRSizeSweep", func() { experiments.LRSizeSweep(benchParams("bfs")) }},
		{"ReliabilityAnalysis", func() { experiments.Reliability(benchParams("bfs")) }},
		{"SimulatorThroughput", func() {
			spec, _ := workloads.ByName("bfs")
			spec = spec.Scale(0.05)
			spec.WarpsPerSM = 6
			sim.New(config.C1(), spec, sim.Options{}).Run()
		}},
		// Same run with a live metrics registry: the delta between this
		// row and SimulatorThroughput is the observability layer's cost,
		// which CI gates alongside everything else.
		{"SimulatorThroughputMetricsOn", func() {
			spec, _ := workloads.ByName("bfs")
			spec = spec.Scale(0.05)
			spec.WarpsPerSM = 6
			cfg := config.C1()
			sim.New(cfg, spec, sim.Options{Metrics: metrics.NewRegistry(true)}).Run()
		}},
		// The sweep trio: the same eight-configuration bank sweep run
		// three ways. Run is the execution-driven cost every sweep used
		// to pay. RecordReplay is a cold trace-driven sweep (the
		// recording run included). ReplayMany is the steady state the
		// record-once/replay-many machinery actually operates in — the
		// recording exists (sttserve's RecordingCache shares it across
		// jobs; sttexp's Fig. 4/5/6 share it across experiments), so an
		// 8-config sweep costs K bank replays. The Run/ReplayMany
		// ratio is the speedup published in BENCH_replay.json (>= 4x).
		{"SweepEightConfigsRun", func() {
			spec := sweepSpec()
			for _, cfg := range sweepEight() {
				sim.New(cfg, spec, sim.Options{}).Run()
			}
		}},
		{"SweepRecordReplayCold", func() {
			_, rec := sim.Record(config.BaselineSRAM(), sweepSpec(), sim.Options{})
			sim.ReplayMany(rec, sweepEight())
		}},
		{"SweepReplayMany", func() {
			sim.ReplayMany(sweepRecording(), sweepEight())
		}},
		// Two-tier stack: not in committed baselines yet, so the -check
		// gate skips it automatically (only baseline-matched rows gate).
		{"SimulatorThroughputL3", func() {
			spec, _ := workloads.ByName("bfs")
			spec = spec.Scale(0.05)
			spec.WarpsPerSM = 6
			cfg, _ := config.ByName("C2-L3")
			sim.New(cfg, spec, sim.Options{}).Run()
		}},
		// C4 with the reconfiguration controller live: tracks the epoch
		// events' cost. Not in committed baselines, so ungated; the gated
		// SimulatorThroughput row is what pins the disabled path, which
		// constructs no controller and schedules no epoch events.
		{"SimulatorThroughputAdaptive", func() {
			spec, _ := workloads.ByName("bfs")
			spec = spec.Scale(0.05)
			spec.WarpsPerSM = 6
			sim.New(config.C4(), spec, sim.Options{}).Run()
		}},
		{"WearLeveling", func() { experiments.WearLeveling(benchParams("bfs")) }},
		// Ingestion rows (BENCH_ingest.json): the per-upload cost of the
		// external-trace path and the per-request cost of drawing a
		// generated family — both mirror bench_test.go exactly.
		{"TraceImportNDJSON", func() {
			rec, err := ingest.Import(bytes.NewReader(ingestBlob()), ingest.Options{})
			if err != nil {
				fatal(err)
			}
			if len(rec.Records) != ingestRecords {
				fatal(fmt.Errorf("imported %d records, want %d", len(rec.Records), ingestRecords))
			}
		}},
		{"WorkloadGenFamily", func() {
			apps, err := genFamily().Apps()
			if err != nil {
				fatal(err)
			}
			if len(apps) != 32 {
				fatal(fmt.Errorf("drew %d members, want 32", len(apps)))
			}
		}},
	}
}

// ingestRecords sizes the NDJSON import row; ingestBlob synthesizes the
// stream once (the blob is identical across iterations, like a repeated
// upload of the same file).
const ingestRecords = 10000

var ingestBlob = sync.OnceValue(func() []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"format\":\"sttllc-trace/v1\",\"workload\":\"bench\",\"line_bytes\":256,\"sms\":15,\"end_cycle\":%d}\n", ingestRecords*2)
	for i := 0; i < ingestRecords; i++ {
		op := "R"
		if i%3 == 0 {
			op = "W"
		}
		fmt.Fprintf(&buf, "{\"cycle\":%d,\"addr\":%d,\"op\":%q,\"sm\":%d}\n",
			i*2, (i*2933)%(1<<20)*256, op, i%15)
	}
	return buf.Bytes()
})

// genFamily is the 32-member parametric family the generator row draws:
// every distribution kind exercised (uniform, log-uniform, fixed).
func genFamily() gen.FamilySpec {
	instr, warps := 200.0, 4.0
	return gen.FamilySpec{
		AppSpec: gen.AppSpec{
			Name:         "bench",
			Seed:         42,
			Kernels:      gen.Dist{Min: 1, Max: 4},
			MemFrac:      gen.Dist{Min: 0.1, Max: 0.5},
			WriteFrac:    gen.Dist{Min: 0, Max: 0.6},
			FootprintKB:  gen.Dist{Min: 256, Max: 4096, Log: true},
			InstrPerWarp: gen.Dist{Fixed: &instr},
			WarpsPerSM:   gen.Dist{Fixed: &warps},
		},
		Count: 32,
	}
}

// sweepSpec is the sweep rows' workload: bfs at a scale large enough
// that per-sweep fixed costs (bank construction) don't drown the
// per-access costs the rows are meant to compare.
func sweepSpec() workloads.Spec {
	spec, _ := workloads.ByName("bfs")
	spec = spec.Scale(0.1)
	spec.WarpsPerSM = 6
	return spec
}

// sweepRecording is the shared reference stream the steady-state
// replay row fans out — recorded once (measure()'s untimed warmup call
// triggers it), exactly as the RecordingCache shares one recording
// across a worker pool's jobs.
var sweepRecording = sync.OnceValue(func() *trace.Recording {
	_, rec := sim.Record(config.BaselineSRAM(), sweepSpec(), sim.Options{})
	return rec
})

// sweepEight is the K=8 sweep the replay benchmarks fan out over: the
// five paper configurations, the two stacked-L3 hierarchies, and one
// C1 write-threshold variant (the Fig. 4 kind of knob).
func sweepEight() []config.GPUConfig {
	th7 := config.C1()
	th7.Name = "C1-TH7"
	th7.L2.WriteThreshold = 7
	c1l3, _ := config.ByName("C1-L3")
	c2l3, _ := config.ByName("C2-L3")
	return []config.GPUConfig{
		config.BaselineSRAM(), config.BaselineSTT(),
		config.C1(), config.C2(), config.C3(),
		c1l3, c2l3, th7,
	}
}

// sample is one timed run's averages.
type sample struct {
	nsOp     int64
	bytesOp  int64
	allocsOp int64
}

// measure times iters iterations of fn, count times, and returns the
// best (lowest ns/op) run — best-of-N rejects scheduler noise the way a
// human reads repeated `go test -bench` output. B/op and allocs/op come
// from runtime.MemStats deltas over the winning run, the same counters
// testing.B reports.
func measure(fn func(), iters, count int) sample {
	fn() // warm caches and the allocator outside the timed region
	var best sample
	var ms0, ms1 runtime.MemStats
	for c := 0; c < count; c++ {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		ns := time.Since(start).Nanoseconds() / int64(iters)
		runtime.ReadMemStats(&ms1)
		if best.nsOp == 0 || ns < best.nsOp {
			best = sample{
				nsOp:     ns,
				bytesOp:  int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(iters),
				allocsOp: int64(ms1.Mallocs-ms0.Mallocs) / int64(iters),
			}
		}
	}
	return best
}

// Entry is one benchmark's record in the output file.
type Entry struct {
	Name       string  `json:"name"`
	BeforeNsOp int64   `json:"before_ns_op,omitempty"`
	AfterNsOp  int64   `json:"after_ns_op"`
	Speedup    float64 `json:"speedup,omitempty"`
	BytesOp    int64   `json:"bytes_op,omitempty"`
	AllocsOp   int64   `json:"allocs_op,omitempty"`
}

// Report is the BENCH JSON schema.
type Report struct {
	Note       string  `json:"note,omitempty"`
	Iterations int     `json:"iterations"`
	Count      int     `json:"count"`
	Benchmarks []Entry `json:"benchmarks"`
	// Suite sums every benchmark's ns/op (the micro rows contribute
	// negligibly next to the simulator-driven ones).
	SuiteBeforeNs int64   `json:"suite_before_ns,omitempty"`
	SuiteAfterNs  int64   `json:"suite_after_ns"`
	SuiteSpeedup  float64 `json:"suite_speedup,omitempty"`
}

// loadBefore reads a baseline: either a prior Report (after_ns_op is
// used) or a flat {"name": ns_op} map.
func loadBefore(path string) (map[string]int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err == nil && len(rep.Benchmarks) > 0 {
		out := make(map[string]int64, len(rep.Benchmarks))
		for _, e := range rep.Benchmarks {
			out[e.Name] = e.AfterNsOp
		}
		return out, nil
	}
	var flat map[string]int64
	if err := json.Unmarshal(raw, &flat); err != nil {
		return nil, fmt.Errorf("%s: neither a sttbench report nor a name->ns map: %w", path, err)
	}
	return flat, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sttbench:", err)
	os.Exit(1)
}

func main() {
	var (
		out        = flag.String("o", "BENCH_dataopt.json", "output path")
		before     = flag.String("before", "", "baseline JSON to diff against (prior sttbench output or {name: ns_op})")
		iters      = flag.Int("iters", 10, "iterations per timed run")
		count      = flag.Int("count", 3, "timed runs per benchmark (best is kept)")
		note       = flag.String("note", "", "free-form provenance note stored in the report")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the timed runs to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile (after the runs) to this file")
		check      = flag.String("check", "", "regression gate: compare against this baseline and exit non-zero on regression; writes -o only when -o is given explicitly")
		maxregress = flag.Float64("maxregress", 1.20, "with -check, the max allowed suite slowdown (after/before ratio)")
	)
	flag.Parse()
	outSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "o" {
			outSet = true
		}
	})

	baseline := *before
	if *check != "" {
		baseline = *check
	}
	var base map[string]int64
	if baseline != "" {
		var err error
		if base, err = loadBefore(baseline); err != nil {
			fatal(err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	rep := Report{Note: *note, Iterations: *iters, Count: *count}
	for _, b := range suite() {
		s := measure(b.Fn, *iters, *count)
		e := Entry{Name: b.Name, AfterNsOp: s.nsOp, BytesOp: s.bytesOp, AllocsOp: s.allocsOp}
		if bn, ok := base[b.Name]; ok && bn > 0 {
			e.BeforeNsOp = bn
			e.Speedup = float64(bn) / float64(s.nsOp)
			rep.SuiteBeforeNs += bn
		}
		rep.SuiteAfterNs += s.nsOp
		rep.Benchmarks = append(rep.Benchmarks, e)
		fmt.Fprintf(os.Stderr, "%-22s %12d ns/op %12d B/op %9d allocs/op", b.Name, s.nsOp, s.bytesOp, s.allocsOp)
		if e.Speedup > 0 {
			fmt.Fprintf(os.Stderr, "   %.2fx vs baseline", e.Speedup)
		}
		fmt.Fprintln(os.Stderr)
	}
	if rep.SuiteBeforeNs > 0 {
		rep.SuiteSpeedup = float64(rep.SuiteBeforeNs) / float64(rep.SuiteAfterNs)
		fmt.Fprintf(os.Stderr, "suite: %.2fx (%d -> %d ns)\n",
			rep.SuiteSpeedup, rep.SuiteBeforeNs, rep.SuiteAfterNs)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // materialize the final allocation statistics
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
		f.Close()
	}

	writeReport := func() {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		raw = append(raw, '\n')
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote", *out)
	}

	if *check != "" {
		// CI gate: the suite may not slow down past the allowed ratio
		// relative to the committed baseline. Only benchmarks present in
		// the baseline participate (new benchmarks have no reference).
		// Record the measurements first (when -o was given) so the
		// artifact survives a failed gate.
		if outSet {
			writeReport()
		}
		if rep.SuiteBeforeNs == 0 {
			fatal(fmt.Errorf("-check baseline %s shares no benchmarks with this suite", *check))
		}
		var matchedNs int64
		for _, e := range rep.Benchmarks {
			if e.BeforeNsOp > 0 {
				matchedNs += e.AfterNsOp
			}
		}
		ratio := float64(matchedNs) / float64(rep.SuiteBeforeNs)
		if ratio > *maxregress {
			fatal(fmt.Errorf("suite regressed %.2fx vs %s (limit %.2fx)", ratio, *check, *maxregress))
		}
		fmt.Fprintf(os.Stderr, "check ok: %.2fx of baseline (limit %.2fx)\n", ratio, *maxregress)
		return
	}

	writeReport()
}
