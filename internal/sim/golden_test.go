package sim

import (
	"math"
	"reflect"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/gpu"
	"sttllc/internal/power"
	"sttllc/internal/workloads"
)

// This file is the golden-result gate for the event-driven engine: the
// seed implementation's cycle-stepping loops (warmup + runLoop, exactly
// as they shipped) are kept below as a reference, and every simulator
// behavior — all workloads, all configurations, warmup, MaxCycles, both
// schedulers, multi-kernel apps — must produce a bit-identical Result
// on the engine.

// seedRunLoop is the seed's per-cycle stepping loop, verbatim.
func seedRunLoop(s *Simulator, start int64) int64 {
	now := start
	for {
		if s.opts.MaxCycles > 0 && now >= s.opts.MaxCycles {
			break
		}
		issued := false
		done := true
		for _, sm := range s.sms {
			if sm.Done() {
				continue
			}
			done = false
			if sm.Step(now) {
				issued = true
			}
		}
		if done {
			break
		}
		if issued {
			now++
			continue
		}
		// Nothing could issue: skip to the next event.
		next := int64(math.MaxInt64)
		for _, sm := range s.sms {
			if sm.Done() {
				continue
			}
			if w := sm.NextWake(now); w < next {
				next = w
			}
		}
		if next == int64(math.MaxInt64) {
			break
		}
		now = next
	}
	return now
}

// seedWarmup is the seed's warmup stepping loop, verbatim.
func seedWarmup(s *Simulator) int64 {
	now := int64(0)
	for {
		var instr uint64
		done := true
		for _, sm := range s.sms {
			instr += sm.Stats().Instructions
			if !sm.Done() {
				done = false
			}
		}
		if instr >= s.opts.WarmupInstructions || done {
			break
		}
		issued := false
		for _, sm := range s.sms {
			if !sm.Done() && sm.Step(now) {
				issued = true
			}
		}
		if issued {
			now++
			continue
		}
		next := int64(math.MaxInt64)
		for _, sm := range s.sms {
			if sm.Done() {
				continue
			}
			if w := sm.NextWake(now); w < next {
				next = w
			}
		}
		if next == int64(math.MaxInt64) {
			break
		}
		now = next
	}
	for _, sm := range s.sms {
		sm.ResetStats()
	}
	for _, b := range s.banks {
		b.ResetStats()
		b.RebaseRewriteClock(now)
	}
	return now
}

// seedRun reproduces the seed's Run entry point on the reference loops.
func seedRun(s *Simulator) Result {
	start := int64(0)
	if s.opts.WarmupInstructions > 0 {
		start = seedWarmup(s)
	}
	end := seedRunLoop(s, start)
	r := s.finalize(end)
	if start > 0 {
		r.Cycles = end - start
		if r.Cycles > 0 {
			r.IPC = float64(r.Instructions) / float64(r.Cycles)
		}
		r.Seconds = float64(r.Cycles) / s.cfg.ClockHz
		r.Power = power.FromBanks(s.banks, r.Seconds)
		r.DynamicPowerW = r.Power.DynamicW()
		r.TotalPowerW = r.Power.TotalW()
	}
	return r
}

// goldenSpec scales a benchmark down enough to sweep the whole suite.
func goldenSpec(t *testing.T, name string) workloads.Spec {
	t.Helper()
	s, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	s = s.Scale(0.02)
	s.WarpsPerSM = 6
	return s
}

func assertGolden(t *testing.T, label string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: engine Result diverges from seed loop\n got: %+v\nwant: %+v", label, got, want)
	}
}

// TestGoldenAllWorkloadsAllConfigs is the tentpole acceptance gate:
// every seed workload under each paper configuration (C1/C2/C3) must
// yield a Result — cycles, IPC, every stats counter, the full power
// breakdown — identical to the seed cycle-stepping implementation.
func TestGoldenAllWorkloadsAllConfigs(t *testing.T) {
	cfgs := []config.GPUConfig{config.C1(), config.C2(), config.C3()}
	for _, spec := range workloads.All() {
		spec = spec.Scale(0.02)
		spec.WarpsPerSM = 6
		for _, cfg := range cfgs {
			got := New(cfg, spec, Options{}).Run()
			want := seedRun(New(cfg, spec, Options{}))
			assertGolden(t, spec.Name+"/"+cfg.Name, got, want)
		}
	}
}

// TestGoldenBaselines covers the two uniform-bank comparison points.
func TestGoldenBaselines(t *testing.T) {
	for _, cfg := range []config.GPUConfig{config.BaselineSRAM(), config.BaselineSTT()} {
		for _, name := range []string{"bfs", "hotspot", "stencil"} {
			spec := goldenSpec(t, name)
			got := New(cfg, spec, Options{}).Run()
			want := seedRun(New(cfg, spec, Options{}))
			assertGolden(t, name+"/"+cfg.Name, got, want)
		}
	}
}

// TestGoldenWarmup checks the warmup boundary: statistics reset at the
// same cycle, measured-window metrics identical.
func TestGoldenWarmup(t *testing.T) {
	spec := goldenSpec(t, "hotspot")
	total := New(config.C1(), spec, Options{}).Run().Instructions
	for _, budget := range []uint64{1, total / 3, total / 2, total, 1 << 40} {
		opts := Options{WarmupInstructions: budget}
		got := New(config.C1(), spec, opts).Run()
		want := seedRun(New(config.C1(), spec, opts))
		assertGolden(t, "warmup", got, want)
	}
}

// TestGoldenMaxCycles checks the truncation path, including the seed's
// exact end-cycle value when the cutoff lands mid-jump.
func TestGoldenMaxCycles(t *testing.T) {
	spec := goldenSpec(t, "bfs")
	full := New(config.C2(), spec, Options{}).Run().Cycles
	for _, limit := range []int64{1, full / 2, full - 1, full + 1} {
		opts := Options{MaxCycles: limit}
		got := New(config.C2(), spec, opts).Run()
		want := seedRun(New(config.C2(), spec, opts))
		assertGolden(t, "maxcycles", got, want)
	}
}

// TestGoldenGTO checks the greedy-then-oldest scheduler path.
func TestGoldenGTO(t *testing.T) {
	for _, name := range []string{"bfs", "lud"} {
		spec := goldenSpec(t, name)
		cfg := config.C1()
		cfg.SM.Scheduler = gpu.GTO
		got := New(cfg, spec, Options{}).Run()
		want := seedRun(New(cfg, spec, Options{}))
		assertGolden(t, name+"/GTO", got, want)
	}
}

// TestGoldenApps checks multi-kernel applications: each kernel launch
// re-enters the drive loop on a shared memory system at a non-zero
// start cycle.
func TestGoldenApps(t *testing.T) {
	for _, app := range workloads.Apps() {
		for i := range app.Kernels {
			app.Kernels[i] = app.Kernels[i].Scale(0.02)
			app.Kernels[i].WarpsPerSM = 6
		}
		got := RunApp(config.C1(), app, Options{})
		want := seedRunApp(config.C1(), app, Options{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine AppResult diverges from seed loop\n got: %+v\nwant: %+v",
				app.Name, got, want)
		}
	}
}

// seedRunApp reproduces the seed's RunApp on the reference loop.
func seedRunApp(cfg config.GPUConfig, app workloads.App, opts Options) AppResult {
	s := New(cfg, app.Kernels[0], opts)
	ar := AppResult{App: app.Name, Config: cfg.Name}
	now := int64(0)
	for ki, spec := range app.Kernels {
		if ki > 0 {
			s.buildSMs(spec)
		}
		accBefore, hitBefore := s.bankTotals()
		end := seedRunLoop(s, now)
		var instr uint64
		for _, sm := range s.sms {
			instr += sm.Stats().Instructions
		}
		accAfter, hitAfter := s.bankTotals()
		kr := KernelResult{
			Benchmark:    spec.Name,
			StartCycle:   now,
			EndCycle:     end,
			Instructions: instr,
		}
		if end > now {
			kr.IPC = float64(instr) / float64(end-now)
		}
		if da := accAfter - accBefore; da > 0 {
			kr.L2HitRate = float64(hitAfter-hitBefore) / float64(da)
		}
		ar.Kernels = append(ar.Kernels, kr)
		ar.Instructions += instr
		now = end
	}
	ar.Cycles = now
	if now > 0 {
		ar.IPC = float64(ar.Instructions) / float64(now)
	}
	ar.Final = s.finalize(now)
	ar.Final.Benchmark = app.Name
	ar.Final.Instructions = ar.Instructions
	ar.Final.IPC = ar.IPC
	return ar
}

// TestWarmupDoesNotPerturbTrajectory is the warmup/runLoop duplication
// regression test: warming up must only move the statistics boundary,
// never change the simulated timeline — warmup cycles plus measured
// cycles must equal the un-warmed run's total, exactly.
func TestWarmupDoesNotPerturbTrajectory(t *testing.T) {
	spec := goldenSpec(t, "hotspot")
	cold := New(config.C1(), spec, Options{})
	_, coldEnd := cold.drive(0, 0)

	warmSim := New(config.C1(), spec, Options{WarmupInstructions: 500})
	boundary, warmEnd := warmSim.drive(0, 500)
	if warmEnd != coldEnd {
		t.Errorf("warmup changed the trajectory: end %d vs un-warmed %d", warmEnd, coldEnd)
	}
	if boundary <= 0 || boundary >= warmEnd {
		t.Fatalf("warmup boundary %d outside run (end %d)", boundary, warmEnd)
	}

	r := New(config.C1(), spec, Options{WarmupInstructions: 500}).Run()
	if r.Cycles != warmEnd-boundary {
		t.Errorf("measured window = %d cycles, want end-boundary = %d", r.Cycles, warmEnd-boundary)
	}
}
