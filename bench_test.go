package sttllc

// One benchmark per table and figure of the paper's evaluation. Each
// bench regenerates its artifact end-to-end (simulator runs included) at
// a reduced scale so `go test -bench=.` finishes in minutes; run the
// cmd/sttexp tool for full-scale numbers.

import (
	"bytes"
	"fmt"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/experiments"
	"sttllc/internal/ingest"
	"sttllc/internal/metrics"
	"sttllc/internal/sim"
	"sttllc/internal/sttram"
	"sttllc/internal/workloads"
	"sttllc/internal/workloads/gen"
)

// benchParams keeps per-iteration work small: three representative
// benchmarks (one per interesting region), short warps.
func benchParams(benchmarks ...string) experiments.Params {
	if len(benchmarks) == 0 {
		benchmarks = []string{"hotspot", "lud", "nw"}
	}
	return experiments.Params{Scale: 0.05, WarpsPerSM: 6, Benchmarks: benchmarks}
}

func BenchmarkTable1DeviceModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sttram.Table1(256)
		if len(rows) != 3 {
			b.Fatal("Table 1 incomplete")
		}
		_ = sttram.FormatTable1(256)
	}
}

func BenchmarkTable2Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := config.Table2()
		if len(rows) != 5 {
			b.Fatal("Table 2 incomplete")
		}
		_ = config.FormatTable2()
	}
}

func BenchmarkFig3WriteCOV(b *testing.B) {
	p := benchParams("bfs", "stencil")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3(p)
		if len(rows) != 2 {
			b.Fatal("Fig 3 incomplete")
		}
	}
}

func BenchmarkFig4ThresholdSweep(b *testing.B) {
	p := benchParams("bfs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4(p, nil)
		if len(rows) != len(experiments.Fig4Thresholds) {
			b.Fatal("Fig 4 incomplete")
		}
	}
}

func BenchmarkFig5Associativity(b *testing.B) {
	p := benchParams("bfs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5(p, nil)
		if len(rows) != len(experiments.Fig5Ways) {
			b.Fatal("Fig 5 incomplete")
		}
	}
}

func BenchmarkFig6RewriteIntervals(b *testing.B) {
	p := benchParams("bfs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6(p)
		if len(rows) != 1 || rows[0].Samples == 0 {
			b.Fatal("Fig 6 incomplete")
		}
	}
}

func BenchmarkFig8aSpeedup(b *testing.B) {
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8(p)
		if res.GmeanSpeedup["C1"] <= 0 {
			b.Fatal("Fig 8a incomplete")
		}
	}
}

func BenchmarkFig8bDynamicPower(b *testing.B) {
	p := benchParams("stencil")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8(p)
		if res.MeanDynPower["baseline-STT"] <= 0 {
			b.Fatal("Fig 8b incomplete")
		}
	}
}

func BenchmarkFig8cTotalPower(b *testing.B) {
	p := benchParams("mum")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8(p)
		if res.MeanTotalPower["C1"] <= 0 {
			b.Fatal("Fig 8c incomplete")
		}
	}
}

func BenchmarkAblationVariants(b *testing.B) {
	p := benchParams("bfs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Ablation(p, nil)
		if len(rows) != len(experiments.AblationVariants) {
			b.Fatal("ablation incomplete")
		}
	}
}

func BenchmarkPowerBreakdown(b *testing.B) {
	p := benchParams("bfs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.PowerBreakdown(p, "C1")
		if len(rows) != 1 {
			b.Fatal("power breakdown incomplete")
		}
	}
}

func BenchmarkRetentionSweep(b *testing.B) {
	p := benchParams("bfs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.RetentionSweep(p, nil)
		if len(rows) != len(experiments.RetentionPoints) {
			b.Fatal("retention sweep incomplete")
		}
	}
}

func BenchmarkLRSizeSweep(b *testing.B) {
	p := benchParams("bfs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.LRSizeSweep(p)
		if len(rows) != 3 {
			b.Fatal("LR size sweep incomplete")
		}
	}
}

func BenchmarkReliabilityAnalysis(b *testing.B) {
	p := benchParams("bfs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Reliability(p)
		if len(rows) != 1 {
			b.Fatal("reliability incomplete")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// warp instructions per wall-clock second) on the C1 configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, _ := workloads.ByName("bfs")
	spec = spec.Scale(0.05)
	spec.WarpsPerSM = 6
	cfg := config.C1()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		r := sim.New(cfg, spec, sim.Options{}).Run()
		instrs += r.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkSimulatorThroughputMetricsOn is the same run with a live
// metrics registry: its difference from BenchmarkSimulatorThroughput
// is what the observability layer costs when it is on.
func BenchmarkSimulatorThroughputMetricsOn(b *testing.B) {
	spec, _ := workloads.ByName("bfs")
	spec = spec.Scale(0.05)
	spec.WarpsPerSM = 6
	cfg := config.C1()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		r := sim.New(cfg, spec, sim.Options{Metrics: metrics.NewRegistry(true)}).Run()
		instrs += r.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkRecord is the same run with the trace sink on, as the
// service's recording cache runs it on a miss: its difference from
// BenchmarkSimulatorThroughput is what capturing the L2 reference
// stream costs.
func BenchmarkRecord(b *testing.B) {
	spec, _ := workloads.ByName("bfs")
	spec = spec.Scale(0.05)
	spec.WarpsPerSM = 6
	cfg := config.C1()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		r, _ := sim.Record(cfg, spec, sim.Options{})
		instrs += r.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkSimulatorReset is BenchmarkSimulatorThroughput on one
// retained simulator: each iteration Resets it instead of building a
// new one, as a service worker does between jobs.
func BenchmarkSimulatorReset(b *testing.B) {
	spec, _ := workloads.ByName("bfs")
	spec = spec.Scale(0.05)
	spec.WarpsPerSM = 6
	cfg := config.C1()
	s := sim.New(cfg, spec, sim.Options{})
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		s.Reset(cfg, spec, sim.Options{})
		instrs += s.Run().Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkSimulatorThroughputL3 is the same measurement on the
// two-tier C2-L3 stack, so the cost of hierarchy chaining is tracked
// next to the single-tier row.
func BenchmarkSimulatorThroughputL3(b *testing.B) {
	spec, _ := workloads.ByName("bfs")
	spec = spec.Scale(0.05)
	spec.WarpsPerSM = 6
	cfg, ok := config.ByName("C2-L3")
	if !ok {
		b.Fatal("C2-L3 configuration missing")
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		r := sim.New(cfg, spec, sim.Options{}).Run()
		instrs += r.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkSimulatorThroughputAdaptive is the same measurement with the
// C4 reconfiguration controller live, so the controller's epoch-event
// cost is tracked next to the static rows. The single-tier row above
// is what shows a disabled controller costs nothing: the disabled path
// constructs no controller and schedules no epoch events.
func BenchmarkSimulatorThroughputAdaptive(b *testing.B) {
	spec, _ := workloads.ByName("bfs")
	spec = spec.Scale(0.05)
	spec.WarpsPerSM = 6
	cfg := config.C4()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		r := sim.New(cfg, spec, sim.Options{}).Run()
		instrs += r.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// benchNDJSON synthesizes an sttllc-trace/v1 NDJSON stream of the given
// length, the external format POST /v1/traces and stttrace -import
// accept. Deterministic so every iteration parses identical bytes.
func benchNDJSON(records int) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"format\":\"sttllc-trace/v1\",\"workload\":\"bench\",\"line_bytes\":256,\"sms\":15,\"end_cycle\":%d}\n", records*2)
	for i := 0; i < records; i++ {
		op := "R"
		if i%3 == 0 {
			op = "W"
		}
		fmt.Fprintf(&buf, "{\"cycle\":%d,\"addr\":%d,\"op\":%q,\"sm\":%d}\n",
			i*2, (i*2933)%(1<<20)*256, op, i%15)
	}
	return buf.Bytes()
}

// BenchmarkTraceImportNDJSON measures ingestion cost per record of the
// external NDJSON trace format: parse, validate, delta-encode, and
// content-hash 10k access records — the full cost of one upload.
func BenchmarkTraceImportNDJSON(b *testing.B) {
	const records = 10000
	blob := benchNDJSON(records)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := ingest.Import(bytes.NewReader(blob), ingest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rec.Records) != records {
			b.Fatalf("imported %d records, want %d", len(rec.Records), records)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(records)*float64(b.N)), "ns/record")
}

// BenchmarkWorkloadGenFamily measures the parametric generator: draw a
// 32-member family (sample every distribution, derive kernels, content-
// hash each member) — the per-request cost of a gen-spec sweep.
func BenchmarkWorkloadGenFamily(b *testing.B) {
	instr, warps := 200.0, 4.0
	family := gen.FamilySpec{
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apps, err := family.Apps()
		if err != nil {
			b.Fatal(err)
		}
		if len(apps) != 32 {
			b.Fatalf("drew %d members, want 32", len(apps))
		}
	}
	b.ReportMetric(32*float64(b.N)/b.Elapsed().Seconds(), "apps/s")
}

func BenchmarkWearLeveling(b *testing.B) {
	p := benchParams("bfs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.WearLeveling(p)
		if len(rows) != 1 {
			b.Fatal("wear leveling incomplete")
		}
	}
}
