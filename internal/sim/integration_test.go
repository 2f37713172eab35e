package sim

// Integration tests: cross-module behavioural assertions mirroring the
// paper's qualitative claims, run at reduced scale. These are the
// regression net under the EXPERIMENTS.md numbers.

import (
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/gpu"
	"sttllc/internal/workloads"
)

// runPair runs one benchmark on two configurations at a given scale.
func runPair(t *testing.T, bench string, scale float64, a, b string) (ra, rb Result) {
	t.Helper()
	spec, ok := workloads.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	spec = spec.Scale(scale)
	spec.WarpsPerSM = 16
	ca, _ := config.ByName(a)
	cb, _ := config.ByName(b)
	return New(ca, spec, Options{}).Run(), New(cb, spec, Options{}).Run()
}

func TestInsensitiveBenchmarkUnmovedByC1(t *testing.T) {
	// Region 1: hotspot fits every L2; C1 must neither help nor hurt.
	base, c1 := runPair(t, "hotspot", 0.2, "baseline-SRAM", "C1")
	ratio := c1.IPC / base.IPC
	if ratio < 0.95 || ratio > 1.10 {
		t.Errorf("hotspot C1/SRAM = %v, want ~1.0", ratio)
	}
}

func TestCacheFriendlyBenchmarkGainsFromC1(t *testing.T) {
	// Region 4: nw fits C1's 1536KB but not the 384KB baseline.
	base, c1 := runPair(t, "nw", 0.2, "baseline-SRAM", "C1")
	if c1.IPC <= base.IPC*1.01 {
		t.Errorf("nw C1 (%v) should clearly beat SRAM (%v)", c1.IPC, base.IPC)
	}
	if c1.Bank.HitRate() <= base.Bank.HitRate() {
		t.Errorf("C1 hit rate (%v) should exceed baseline (%v)",
			c1.Bank.HitRate(), base.Bank.HitRate())
	}
}

func TestArchivalBaselineDegradesWriteHeavyFittingKernel(t *testing.T) {
	// The naive STT-RAM baseline pays 42ns write pulses; a write-heavy
	// kernel with good baseline hit rates gets no capacity benefit to
	// compensate (the paper's performance-degradation cases). Run at
	// the suite's full warp occupancy — low occupancy hides write
	// stalls behind load latency and masks the effect.
	spec, _ := workloads.ByName("nw")
	spec = spec.Scale(0.4)
	base := New(config.BaselineSRAM(), spec, Options{}).Run()
	stt := New(config.BaselineSTT(), spec, Options{}).Run()
	if stt.IPC >= base.IPC {
		t.Errorf("archival STT (%v) should degrade nw vs SRAM (%v)", stt.IPC, base.IPC)
	}
	// But the proposed C1 must not degrade it.
	c1 := New(config.C1(), spec, Options{}).Run()
	if c1.IPC < base.IPC*0.99 {
		t.Errorf("C1 (%v) must not degrade nw vs SRAM (%v)", c1.IPC, base.IPC)
	}
}

func TestRegisterBoundKernelGainsOnlyWithBlockFit(t *testing.T) {
	// lud's register bonus fits one more thread block under C2: warps
	// rise 12 -> 18. tpacf's 512-thread blocks cannot fit another: no
	// change (the paper's "could not benefit" case).
	lud, _ := workloads.ByName("lud")
	tpacf, _ := workloads.ByName("tpacf")
	base := config.BaselineSRAM()
	c2 := config.C2()
	if a, b := gpu.ResidentWarps(base.SM, lud.RegsPerThread, lud.ThreadsPerBlock),
		gpu.ResidentWarps(c2.SM, lud.RegsPerThread, lud.ThreadsPerBlock); b <= a {
		t.Errorf("lud occupancy should rise under C2: %d -> %d", a, b)
	}
	if a, b := gpu.ResidentWarps(base.SM, tpacf.RegsPerThread, tpacf.ThreadsPerBlock),
		gpu.ResidentWarps(c2.SM, tpacf.RegsPerThread, tpacf.ThreadsPerBlock); b != a {
		t.Errorf("tpacf occupancy should not change under C2: %d -> %d", a, b)
	}
}

func TestLeakageOrderingAcrossConfigs(t *testing.T) {
	// Static power: SRAM >> C1 > C3 > C2; the STT baseline sits near C1
	// (same capacity, no LR/RC overheads).
	leak := map[string]float64{}
	for _, g := range config.All() {
		var w float64
		for i := 0; i < g.NumBanks; i++ {
			w += g.NewBank(g.NewDRAM()).LeakageWatts()
		}
		leak[g.Name] = w
	}
	if !(leak["baseline-SRAM"] > 4*leak["C1"]) {
		t.Errorf("SRAM leakage (%v) should dwarf C1's (%v)", leak["baseline-SRAM"], leak["C1"])
	}
	if !(leak["C1"] > leak["C3"] && leak["C3"] > leak["C2"]) {
		t.Errorf("leakage ordering C1 > C3 > C2 violated: %v", leak)
	}
}

func TestTrafficConservation(t *testing.T) {
	// Every L2 read stems from an L1 read miss; every L2 write from a
	// global store or a dirty local eviction. Totals must reconcile.
	spec, _ := workloads.ByName("bfs")
	spec = spec.Scale(0.1)
	spec.WarpsPerSM = 8
	r := New(config.BaselineSRAM(), spec, Options{}).Run()
	maxReads := r.L1.ReadMisses + r.Const.ReadMisses + r.Tex.ReadMisses
	if r.Bank.Reads > maxReads {
		t.Errorf("L2 reads (%d) exceed L1+const+tex read misses (%d)", r.Bank.Reads, maxReads)
	}
	maxWrites := r.SM.Stores + r.L1.DirtyEvict
	if r.Bank.Writes > maxWrites {
		t.Errorf("L2 writes (%d) exceed stores+dirty evictions (%d)", r.Bank.Writes, maxWrites)
	}
	// DRAM fills can never exceed L2 read misses.
	l2ReadMisses := r.Bank.Reads - r.Bank.ReadHits
	if r.Bank.DRAMFills > l2ReadMisses {
		t.Errorf("DRAM fills (%d) exceed L2 read misses (%d)", r.Bank.DRAMFills, l2ReadMisses)
	}
}

func TestDynamicPowerOrdering(t *testing.T) {
	// The archival baseline must burn the most dynamic power among the
	// STT configurations on a write-heavy kernel.
	spec, _ := workloads.ByName("stencil")
	spec = spec.Scale(0.15)
	spec.WarpsPerSM = 16
	stt := New(config.BaselineSTT(), spec, Options{}).Run()
	c1 := New(config.C1(), spec, Options{}).Run()
	if stt.DynamicPowerW <= c1.DynamicPowerW {
		t.Errorf("archival dynamic power (%v) should exceed C1's (%v)",
			stt.DynamicPowerW, c1.DynamicPowerW)
	}
}

func TestTwoPartTotalPowerBelowSRAM(t *testing.T) {
	// The headline power claim, on a moderate kernel.
	base, c1 := runPair(t, "mum", 0.15, "baseline-SRAM", "C1")
	if c1.TotalPowerW >= base.TotalPowerW {
		t.Errorf("C1 total power (%v) should undercut SRAM (%v)",
			c1.TotalPowerW, base.TotalPowerW)
	}
}

func TestRefreshesHappenOnLongRuns(t *testing.T) {
	// A full-length kernel run exceeds the 1ms LR retention (700k
	// cycles), so the refresh machinery must have engaged or blocks
	// must have been legitimately rewritten/evicted — and nothing may
	// be lost: refreshes plus expiry drops account for every line that
	// reached its retention boundary.
	spec, _ := workloads.ByName("tpacf") // long-running, low write rate
	spec.WarpsPerSM = 24
	r := New(config.C1(), spec, Options{}).Run()
	if r.Cycles < 700_000 {
		t.Skipf("run too short to exercise retention: %d cycles", r.Cycles)
	}
	if r.Bank.Refreshes == 0 && r.Bank.LRExpiryDrops == 0 && r.Bank.HRExpiries == 0 {
		t.Error("no retention activity on a run longer than the LR retention")
	}
}

func TestSpeedupsScaleStable(t *testing.T) {
	// The qualitative C1-vs-SRAM verdict must not flip between two
	// nearby workload scales (guards against warmup artifacts).
	for _, scale := range []float64{0.15, 0.3} {
		base, c1 := runPair(t, "cfd", scale, "baseline-SRAM", "C1")
		if c1.IPC <= base.IPC {
			t.Errorf("scale %v: C1 (%v) should beat SRAM (%v) on cfd", scale, c1.IPC, base.IPC)
		}
	}
}
