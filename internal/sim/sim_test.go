package sim

import (
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/workloads"
)

// tinySpec returns a fast-running benchmark for unit tests.
func tinySpec(t *testing.T, name string) workloads.Spec {
	t.Helper()
	s, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	s = s.Scale(0.05)
	s.WarpsPerSM = 8
	return s
}

func TestRunCompletes(t *testing.T) {
	r := New(config.BaselineSRAM(), tinySpec(t, "hotspot"), Options{MaxCycles: 5_000_000}).Run()
	if r.Cycles <= 0 || r.Cycles >= 5_000_000 {
		t.Fatalf("cycles = %d, want a completed run", r.Cycles)
	}
	if r.Instructions == 0 || r.IPC <= 0 {
		t.Errorf("instructions=%d IPC=%v", r.Instructions, r.IPC)
	}
	if r.Config != "baseline-SRAM" || r.Benchmark != "hotspot" {
		t.Errorf("labels = %q/%q", r.Config, r.Benchmark)
	}
}

func TestAllWorkExecuted(t *testing.T) {
	spec := tinySpec(t, "hotspot")
	cfg := config.BaselineSRAM()
	r := New(cfg, spec, Options{}).Run()
	// Total instructions = SMs * jobs * instructions per warp exactly
	// (the generators are fixed-length).
	want := uint64(cfg.NumSMs) * uint64(spec.WarpsPerSM) * uint64(spec.InstrPerWarp)
	if r.Instructions != want {
		t.Errorf("instructions = %d, want %d", r.Instructions, want)
	}
}

func TestDeterministicRuns(t *testing.T) {
	spec := tinySpec(t, "bfs")
	a := New(config.C1(), spec, Options{}).Run()
	b := New(config.C1(), spec, Options{}).Run()
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.Instructions != b.Instructions {
		t.Errorf("instructions differ")
	}
	if a.DynamicEnergyJ != b.DynamicEnergyJ {
		t.Errorf("energy differs")
	}
	if a.Bank.Writes != b.Bank.Writes || a.Bank.MigrationsToLR != b.Bank.MigrationsToLR {
		t.Errorf("bank stats differ")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	spec := tinySpec(t, "bfs")
	r := New(config.BaselineSRAM(), spec, Options{MaxCycles: 1000}).Run()
	if r.Cycles > 1000 {
		t.Errorf("run exceeded MaxCycles: %d", r.Cycles)
	}
}

func TestL2TrafficFlows(t *testing.T) {
	r := New(config.BaselineSRAM(), tinySpec(t, "bfs"), Options{}).Run()
	if r.Bank.Reads == 0 || r.Bank.Writes == 0 {
		t.Errorf("no L2 traffic: %+v", r.Bank)
	}
	if r.L1.Accesses() == 0 {
		t.Error("no L1 traffic")
	}
	// L2 reads come from L1, constant-cache, and texture-cache read
	// misses; they cannot exceed their sum.
	maxReads := r.L1.ReadMisses + r.Const.ReadMisses + r.Tex.ReadMisses
	if r.Bank.Reads > maxReads {
		t.Errorf("L2 reads (%d) exceed upstream misses (%d)", r.Bank.Reads, maxReads)
	}
}

func TestTwoPartMachineryEngages(t *testing.T) {
	r := New(config.C1(), tinySpec(t, "bfs"), Options{}).Run()
	if r.Bank.LRWriteHits+r.Bank.LRWriteFills == 0 {
		t.Error("LR part never served a write")
	}
	if r.Bank.LRWriteShare() < 0.5 {
		t.Errorf("LR write share = %v, want most writes in LR", r.Bank.LRWriteShare())
	}
	if r.Bank.RewriteIntervals.N == 0 {
		t.Error("no rewrite intervals recorded")
	}
}

func TestPowerAccounting(t *testing.T) {
	r := New(config.C1(), tinySpec(t, "stencil"), Options{}).Run()
	if r.DynamicEnergyJ <= 0 || r.DynamicPowerW <= 0 {
		t.Errorf("dynamic power missing: %+v", r)
	}
	if r.LeakagePowerW <= 0 {
		t.Error("leakage missing")
	}
	if r.TotalPowerW != r.DynamicPowerW+r.LeakagePowerW {
		t.Error("total power != dynamic + leakage")
	}
	if r.Seconds <= 0 {
		t.Error("runtime missing")
	}
}

func TestSRAMLeaksMoreThanSTT(t *testing.T) {
	spec := tinySpec(t, "hotspot")
	sram := New(config.BaselineSRAM(), spec, Options{}).Run()
	c2 := New(config.C2(), spec, Options{}).Run()
	if c2.LeakagePowerW >= sram.LeakagePowerW {
		t.Errorf("C2 leakage (%g) should be far below SRAM (%g)",
			c2.LeakagePowerW, sram.LeakagePowerW)
	}
}

func TestOccupancyRespondsToConfig(t *testing.T) {
	spec := tinySpec(t, "lud") // 63 regs/thread: RF-bound
	base := New(config.BaselineSRAM(), spec, Options{}).Run()
	c2 := New(config.C2(), spec, Options{}).Run()
	if base.ResidentWarps >= c2.ResidentWarps {
		t.Errorf("C2 occupancy (%d) should exceed baseline (%d)",
			c2.ResidentWarps, base.ResidentWarps)
	}
}

func TestCacheBoundGainsFromC1(t *testing.T) {
	// The headline result in miniature: a cache-bound benchmark runs
	// faster under C1 than under the SRAM baseline.
	spec, _ := workloads.ByName("bfs")
	spec = spec.Scale(0.15)
	spec.WarpsPerSM = 16
	sram := New(config.BaselineSRAM(), spec, Options{}).Run()
	c1 := New(config.C1(), spec, Options{}).Run()
	if c1.IPC <= sram.IPC {
		t.Errorf("C1 IPC (%v) should beat SRAM (%v) on bfs", c1.IPC, sram.IPC)
	}
}

func TestWriteVariationOption(t *testing.T) {
	s := New(config.BaselineSRAM(), tinySpec(t, "bfs"), Options{EnableWriteVariation: true})
	s.Run()
	sawWrites := false
	for _, b := range s.Banks() {
		ub, ok := b.(*core.UniformBank)
		if !ok {
			t.Fatalf("SRAM config produced %T", b)
		}
		if ub.Array().WriteVar == nil {
			t.Fatal("write variation not enabled")
		}
		if ub.Array().WriteVar.TotalWrites() > 0 {
			sawWrites = true
		}
	}
	if !sawWrites {
		t.Error("no writes recorded in any bank")
	}
}

func TestMergedHistogramMatchesBankSum(t *testing.T) {
	s := New(config.C1(), tinySpec(t, "bfs"), Options{})
	r := s.Run()
	var n uint64
	for _, b := range s.Banks() {
		n += b.Stats().RewriteIntervals.N
	}
	if r.Bank.RewriteIntervals.N != n {
		t.Errorf("merged histogram N = %d, want %d", r.Bank.RewriteIntervals.N, n)
	}
}

func TestAllConfigsRunAllRegionsBriefly(t *testing.T) {
	if testing.Short() {
		t.Skip("full config sweep")
	}
	for _, bench := range []string{"hotspot", "lud", "kmeans", "bfs"} {
		spec := tinySpec(t, bench)
		for _, cfg := range config.All() {
			r := New(cfg, spec, Options{MaxCycles: 20_000_000}).Run()
			if r.Instructions == 0 {
				t.Errorf("%s/%s executed nothing", cfg.Name, bench)
			}
		}
	}
}

func TestRunAppMultiKernel(t *testing.T) {
	app, ok := workloads.AppByName("iterative-stencil")
	if !ok {
		t.Fatal("unknown app")
	}
	for i := range app.Kernels {
		app.Kernels[i] = app.Kernels[i].Scale(0.05)
		app.Kernels[i].WarpsPerSM = 6
	}
	r := RunApp(config.C1(), app, Options{}).Final
	if len(r.Kernels) != 2 {
		t.Fatalf("kernels = %d", len(r.Kernels))
	}
	k0, k1 := r.Kernels[0], r.Kernels[1]
	if k0.StartCycle != 0 || k1.StartCycle != k0.EndCycle || r.Cycles != k1.EndCycle {
		t.Errorf("kernel boundaries wrong: %+v %+v, %d cycles", k0, k1, r.Cycles)
	}
	if r.Instructions != k0.Instructions+k1.Instructions || r.SM.Instructions != r.Instructions {
		t.Errorf("instruction totals wrong: %d and %d, kernels ran %d and %d",
			r.Instructions, r.SM.Instructions, k0.Instructions, k1.Instructions)
	}
	if r.IPC != float64(r.Instructions)/float64(r.Cycles) {
		t.Errorf("IPC %v is not the application's", r.IPC)
	}
	// The second launch of the same kernel finds its data resident:
	// hit rate must be clearly higher than the cold first launch.
	if k1.L2HitRate <= k0.L2HitRate {
		t.Errorf("warm kernel hit rate (%v) should exceed cold (%v)", k1.L2HitRate, k0.L2HitRate)
	}
}

func TestRunAppProducerConsumerReuse(t *testing.T) {
	app, ok := workloads.AppByName("srad-pipeline")
	if !ok {
		t.Fatal("unknown app")
	}
	for i := range app.Kernels {
		app.Kernels[i] = app.Kernels[i].Scale(0.1)
		app.Kernels[i].WarpsPerSM = 8
	}
	// The consumer's reads cover the producer's output region; under
	// C1 (everything fits) the consumer should start warm, whereas the
	// cold consumer run alone would miss. Compare consumer hit rate in
	// the pipeline against a standalone cold run.
	consumer := RunApp(config.C1(), app, Options{}).Final.Kernels[1]
	cold := New(config.C1(), app.Kernels[1], Options{}).Run()
	if consumer.L2HitRate <= cold.Bank.HitRate() {
		t.Errorf("pipelined consumer hit rate (%v) should exceed cold standalone (%v)",
			consumer.L2HitRate, cold.Bank.HitRate())
	}
}

func TestRunAppEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty app did not panic")
		}
	}()
	RunApp(config.C1(), workloads.App{Name: "empty"}, Options{})
}

func TestAppsWellFormed(t *testing.T) {
	apps := workloads.Apps()
	if len(apps) < 3 {
		t.Fatalf("apps = %d, want >= 3", len(apps))
	}
	for _, a := range apps {
		if len(a.Kernels) < 2 {
			t.Errorf("%s: single-kernel app", a.Name)
		}
		for _, k := range a.Kernels {
			if err := k.Validate(); err != nil {
				t.Errorf("%s/%s: %v", a.Name, k.Name, err)
			}
		}
	}
	if _, ok := workloads.AppByName("nope"); ok {
		t.Error("unknown app resolved")
	}
}

func TestWarmupExcludesColdStart(t *testing.T) {
	spec := tinySpec(t, "hotspot")
	cold := New(config.C1(), spec, Options{}).Run()
	warm := New(config.C1(), spec, Options{WarmupInstructions: cold.Instructions / 2}).Run()
	// Warm-window counters cover only the measured half.
	if warm.Instructions >= cold.Instructions {
		t.Errorf("warm instructions (%d) should be below total (%d)", warm.Instructions, cold.Instructions)
	}
	// With the cache warmed, the measured hit rate must improve.
	if warm.Bank.HitRate() <= cold.Bank.HitRate() {
		t.Errorf("warm hit rate (%v) should exceed cold (%v)",
			warm.Bank.HitRate(), cold.Bank.HitRate())
	}
	if warm.IPC <= 0 || warm.Cycles <= 0 {
		t.Errorf("warm metrics missing: %+v", warm)
	}
}

func TestWarmupBeyondWorkload(t *testing.T) {
	spec := tinySpec(t, "hotspot")
	r := New(config.C1(), spec, Options{WarmupInstructions: 1 << 40}).Run()
	// Warmup consumed everything: nothing measured, but no panic/hang.
	if r.Instructions != 0 {
		t.Errorf("expected empty measurement window, got %d instructions", r.Instructions)
	}
}

func TestInfrastructureAccessors(t *testing.T) {
	s := New(config.BaselineSRAM(), tinySpec(t, "hotspot"), Options{})
	s.Run()
	if len(s.mcs) != config.BaseBanks {
		t.Errorf("MCs = %d", len(s.mcs))
	}
	var dramAcc uint64
	for _, mc := range s.mcs {
		dramAcc += mc.Stats.Accesses()
	}
	if dramAcc == 0 {
		t.Error("no DRAM activity visible through the memory controllers")
	}
	if s.reqNet.Stats.Transfers == 0 {
		t.Error("no request-network activity")
	}
	if s.replyNet.Stats.Transfers != s.reqNet.Stats.Transfers {
		t.Errorf("request/reply transfer mismatch: %d vs %d",
			s.reqNet.Stats.Transfers, s.replyNet.Stats.Transfers)
	}
}

func TestAllAppsRunOnAllConfigs(t *testing.T) {
	for _, app := range workloads.Apps() {
		for i := range app.Kernels {
			app.Kernels[i] = app.Kernels[i].Scale(0.03)
			app.Kernels[i].WarpsPerSM = 4
		}
		for _, cfg := range config.All() {
			r := RunApp(cfg, app, Options{MaxCycles: 10_000_000}).Final
			if r.Instructions == 0 {
				t.Errorf("%s on %s executed nothing", app.Name, cfg.Name)
			}
			if len(r.Kernels) != len(app.Kernels) {
				t.Errorf("%s on %s: %d kernel results", app.Name, cfg.Name, len(r.Kernels))
			}
		}
	}
}
