package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/power"
	"sttllc/internal/trace"
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

// seedWarmup is the seed's warmup stepping loop, verbatim but for its
// start cycle and budget, which an application's later kernels carry
// over: it steps from start until the loaded kernel has issued budget
// instructions or retired, and returns that cycle and the kernel's
// instruction count there.
func seedWarmup(s *Simulator, start int64, budget uint64) (int64, uint64) {
	now := start
	for {
		var instr uint64
		done := true
		for _, sm := range s.sms {
			instr += sm.Stats().Instructions
			if !sm.Done() {
				done = false
			}
		}
		if instr >= budget || done {
			return now, instr
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
			return now, instr
		}
		now = next
	}
}

// seedWarmupReset is the seed's statistics reset at the warmup boundary,
// plus the retired kernels' SM statistics an application carries.
func seedWarmupReset(s *Simulator, now int64) {
	for _, sm := range s.sms {
		sm.ResetStats()
	}
	for _, b := range s.banks {
		b.ResetStats()
		b.RebaseRewriteClock(now)
	}
	s.retired = Result{}
}

// seedRun reproduces the seed's Run entry point on the reference loops,
// extended to s's whole application: kernels launch back-to-back, each
// one runs seedWarmup while warmup budget is left — a kernel that
// retires inside it hands the rest to the next one, the last resets at
// its end — and seedRunLoop after that.
func seedRun(s *Simulator) Result {
	budget := s.opts.WarmupInstructions
	var rows []KernelResult
	start, now := int64(0), int64(0)
	for ki, spec := range s.app.Kernels {
		if ki > 0 {
			s.addSMStats(&s.retired)
			s.buildSMs(spec)
		}
		from := now
		accBefore, hitBefore := s.bankTotals()
		if budget > 0 {
			var instr uint64
			now, instr = seedWarmup(s, now, budget)
			if instr < budget && ki < len(s.app.Kernels)-1 {
				budget -= instr
			} else {
				seedWarmupReset(s, now)
				for i := range rows {
					rows[i] = KernelResult{Benchmark: rows[i].Benchmark, StartCycle: rows[i].EndCycle, EndCycle: rows[i].EndCycle}
				}
				budget, start, from, accBefore, hitBefore = 0, now, now, 0, 0
			}
		}
		end := seedRunLoop(s, now)
		kr := KernelResult{Benchmark: spec.Name, StartCycle: from, EndCycle: end}
		for _, sm := range s.sms {
			kr.Instructions += sm.Stats().Instructions
		}
		if end > from {
			kr.IPC = float64(kr.Instructions) / float64(end-from)
		}
		accAfter, hitAfter := s.bankTotals()
		if da := accAfter - accBefore; da > 0 {
			kr.L2HitRate = float64(hitAfter-hitBefore) / float64(da)
		}
		rows = append(rows, kr)
		now = end
	}
	r := s.finalize(0, now)
	if len(rows) > 1 {
		r.Kernels = rows
	}
	if start > 0 {
		r.Cycles = now - start
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

// appSim builds a simulator for app.
func appSim(cfg config.GPUConfig, app workloads.App, opts Options) *Simulator {
	s := new(Simulator)
	s.Reset(cfg, app, opts)
	return s
}

// goldenApp scales an application's kernels like goldenSpec.
func goldenApp(app workloads.App) workloads.App {
	for i := range app.Kernels {
		app.Kernels[i] = app.Kernels[i].Scale(0.02)
		app.Kernels[i].WarpsPerSM = 6
	}
	return app
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
// exact end-cycle value when the cutoff lands mid-jump, and an
// application cut inside its first kernel: the limit is absolute, so
// the later kernels run for zero cycles.
func TestGoldenMaxCycles(t *testing.T) {
	spec := goldenSpec(t, "bfs")
	full := New(config.C2(), spec, Options{}).Run().Cycles
	for _, limit := range []int64{1, full / 2, full - 1, full + 1} {
		opts := Options{MaxCycles: limit}
		got := New(config.C2(), spec, opts).Run()
		want := seedRun(New(config.C2(), spec, opts))
		assertGolden(t, "maxcycles", got, want)
	}

	app, _ := workloads.AppByName("srad-pipeline")
	app = goldenApp(app)
	first := RunApp(config.C2(), app, Options{}).Final.Kernels[0]
	opts := Options{MaxCycles: first.EndCycle / 2}
	got := RunApp(config.C2(), app, opts).Final
	assertGolden(t, "maxcycles/app", got, seedRun(appSim(config.C2(), app, opts)))
	if got.Cycles != opts.MaxCycles {
		t.Errorf("app cut at %d cycles, want the limit %d", got.Cycles, opts.MaxCycles)
	}
	if k := got.Kernels[1]; k.StartCycle != k.EndCycle || k.Instructions != 0 {
		t.Errorf("kernel launched past the limit ran: %+v", k)
	}
}

// TestGoldenManySMs checks a GPU of more than 64 SMs, whose due masks
// and wakes span several words, cold and warmed.
func TestGoldenManySMs(t *testing.T) {
	cfg := manySMs(config.C1())
	for _, name := range []string{"bfs", "hotspot"} {
		spec := goldenSpec(t, name)
		got := New(cfg, spec, Options{}).Run()
		assertGolden(t, name+"/70sms", got, seedRun(New(cfg, spec, Options{})))
		opts := Options{WarmupInstructions: got.Instructions / 3}
		warm := New(cfg, spec, opts).Run()
		assertGolden(t, name+"/70sms/warmup", warm, seedRun(New(cfg, spec, opts)))
	}
}

// TestGoldenApps checks multi-kernel applications: each kernel launch
// re-enters the drive loop on a shared memory system at a non-zero
// start cycle. Warmup budgets that end inside the first kernel, at its
// last instruction, inside the second kernel, and past the application
// each move the statistics boundary exactly as the reference does.
func TestGoldenApps(t *testing.T) {
	for _, app := range workloads.Apps() {
		app = goldenApp(app)
		cold := RunApp(config.C1(), app, Options{}).Final
		assertGolden(t, app.Name, cold, seedRun(appSim(config.C1(), app, Options{})))
		k0, k1 := cold.Kernels[0].Instructions, cold.Kernels[1].Instructions
		for _, budget := range []uint64{k0 / 2, k0, k0 + k1/2, 1 << 40} {
			opts := Options{WarmupInstructions: budget}
			got := RunApp(config.C1(), app, opts).Final
			assertGolden(t, fmt.Sprintf("%s/warmup=%d", app.Name, budget), got, seedRun(appSim(config.C1(), app, opts)))
		}
	}
}

// TestWarmupSettlesPendingScans puts the warmup boundary just after the
// first retention-counter boundary, where banks not accessed since still
// owe that scan. The boundary settles it in the warmup window: the
// measured retention-counter energy of each bank is the full run's less
// that of a run cut at the boundary. The runs are bare: an observer's
// retention-cadence tick would settle the scan before the boundary does.
func TestWarmupSettlesPendingScans(t *testing.T) {
	saved := defaultInvariantCheck
	defaultInvariantCheck = nil
	defer func() { defaultInvariantCheck = saved }()
	cfg := config.C1()
	spec, _ := workloads.ByName("lud")
	probe := New(cfg, spec, Options{})
	p := probe.flat[0].TickPeriod()
	budget := New(cfg, spec, Options{MaxCycles: p + 2}).Run().Instructions

	warm := New(cfg, spec, Options{WarmupInstructions: budget})
	warm.Run()
	boundary := warm.boundary
	if boundary <= p || boundary%p == 0 {
		t.Fatalf("boundary %d: want it just past the scan at %d", boundary, p)
	}
	cold := New(cfg, spec, Options{})
	cold.Run()
	cut := New(cfg, spec, Options{MaxCycles: boundary})
	if c := cut.Run().Cycles; c != boundary {
		t.Fatalf("cut run ended at %d, want the boundary %d", c, boundary)
	}
	for bi := range warm.flat {
		got := warm.flat[bi].Energy().RCCounters
		want := cold.flat[bi].Energy().RCCounters - cut.flat[bi].Energy().RCCounters
		if math.Abs(got-want) > 1e-9*cold.flat[bi].Energy().RCCounters {
			t.Errorf("bank %d: measured retention-counter energy %g, want %g", bi, got, want)
		}
	}
}

// TestWarmupDoesNotPerturbTrajectory is the warmup/runLoop duplication
// regression test: warming up must only move the statistics boundary,
// never change the simulated timeline — warmup cycles plus measured
// cycles must equal the un-warmed run's total, exactly, for a benchmark
// and for an application whose boundary falls in its second kernel.
func TestWarmupDoesNotPerturbTrajectory(t *testing.T) {
	app, _ := workloads.AppByName("srad-pipeline")
	app = goldenApp(app)
	cold := RunApp(config.C1(), app, Options{}).Final
	runs := []struct {
		app    workloads.App
		budget uint64
	}{
		{workloads.Single(goldenSpec(t, "hotspot")), 500},
		{app, cold.Kernels[0].Instructions + cold.Kernels[1].Instructions/2},
	}
	for _, run := range runs {
		// The recordings carry the timeline: launch, boundary and end
		// cycles.
		coldRec, warmRec := new(trace.Recording), new(trace.Recording)
		RunApp(config.C1(), run.app, Options{Recording: coldRec})
		warm := RunApp(config.C1(), run.app, Options{WarmupInstructions: run.budget, Recording: warmRec}).Final
		coldEnd, warmEnd := coldRec.EndCycle, warmRec.EndCycle
		if warmEnd != coldEnd {
			t.Errorf("%s: warmup changed the trajectory: end %d vs un-warmed %d", run.app.Name, warmEnd, coldEnd)
		}
		boundary := warmRec.WarmupCycle
		if launch := coldRec.Phases[len(coldRec.Phases)-1].Cycle; boundary <= launch || boundary >= warmEnd {
			t.Fatalf("%s: warmup boundary %d outside the last kernel [%d, %d)", run.app.Name, boundary, launch, warmEnd)
		}
		if warm.Cycles != warmEnd-boundary {
			t.Errorf("%s: measured window = %d cycles, want end-boundary = %d", run.app.Name, warm.Cycles, warmEnd-boundary)
		}
		if warm.Kernels == nil {
			continue
		}
		if last := warm.Kernels[len(warm.Kernels)-1]; last.StartCycle != boundary || warm.Instructions != last.Instructions {
			t.Errorf("%s: measured %d instructions from %d, want the last kernel's post-boundary %+v", run.app.Name, warm.Instructions, boundary, last)
		}
	}
}

// TestGoldenRetentionScans runs bare (unobserved, unwarmed) C1 and C2
// runs long enough to cross at least one retention-counter boundary, so
// the lazy mid-run scans — which a bank catches up on at its next access
// — are checked against the seed reference; the scaled-down goldens
// above all end before the first TickPeriod. The warmed variant is left
// out on purpose: the seed reference resets at the warmup boundary
// without the Tick(now-1) that warmupResetBank settles pending scans
// with, so the two disagree there by design (TestWarmupSettlesPendingScans
// covers that boundary instead).
func TestGoldenRetentionScans(t *testing.T) {
	saved := defaultInvariantCheck
	defaultInvariantCheck = nil // an observer tick would do the scans itself
	defer func() { defaultInvariantCheck = saved }()
	for _, cfg := range []config.GPUConfig{config.C1(), config.C2()} {
		for _, name := range []string{"lud", "histo"} {
			spec, _ := workloads.ByName(name)
			spec = spec.Scale(0.75)
			s := New(cfg, spec, Options{})
			p := s.flat[0].TickPeriod()
			got := s.Run()
			if p <= 0 || got.Cycles <= p {
				t.Fatalf("%s/%s: %d cycles do not cross the retention tick period %d", name, cfg.Name, got.Cycles, p)
			}
			assertGolden(t, name+"/"+cfg.Name+"/scans", got, seedRun(New(cfg, spec, Options{})))
		}
	}
}
