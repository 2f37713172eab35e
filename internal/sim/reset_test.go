package sim

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/metrics"
	"sttllc/internal/workloads"
	"sttllc/internal/workloads/gen"
)

// resetJob is one run in a Reset sequence: a configuration, a bench or
// application workload, and the options that change the run's shape.
type resetJob struct {
	name string
	cfg  config.GPUConfig
	spec workloads.Spec
	app  *workloads.App
	opts Options
	// cancelAfter, when positive, cancels the run at its
	// cancelAfter-th cancellation poll: mid-run, and at the same cycle
	// on every simulator.
	cancelAfter int
}

// pollCountdown is a cancellable context whose Err turns non-nil at
// its n-th call. The drive loop reads Err only at its periodic poll, so
// the cancellation lands at a deterministic cycle.
type pollCountdown struct {
	context.Context
	n int
}

func (c *pollCountdown) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// run runs j on s (already built for it by New or Reset) and returns
// the run's dump bytes.
func (j resetJob) run(t *testing.T, s *Simulator, reg *metrics.Registry) []byte {
	t.Helper()
	ctx := context.Background()
	if j.cancelAfter > 0 {
		base, cancel := context.WithCancel(ctx)
		defer cancel()
		ctx = &pollCountdown{Context: base, n: j.cancelAfter}
	}
	var r Result
	var err error
	if j.app != nil {
		var ar AppResult
		ar, err = s.RunAppContext(ctx, *j.app)
		r = ar.Final
	} else {
		r, err = s.RunContext(ctx)
	}
	if (j.cancelAfter > 0) != errors.Is(err, context.Canceled) {
		t.Fatalf("%s: err = %v with cancelAfter %d", j.name, err, j.cancelAfter)
	}
	d := DumpStats(r, reg)
	b, err := d.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// first is the spec a job's simulator is built for.
func (j resetJob) first() workloads.Spec {
	if j.app != nil {
		return j.app.Kernels[0]
	}
	return j.spec
}

func resetJobs(t *testing.T) []resetJob {
	spec := exportSpec(t)
	var jobs []resetJob
	for _, cfg := range config.Extended() {
		jobs = append(jobs, resetJob{name: "bench/" + cfg.Name, cfg: cfg, spec: spec})
	}
	c4 := adaptiveGoldenCfg() // epochs fire and transition inside the run
	jobs = append(jobs,
		resetJob{name: "c4-epochs", cfg: c4, spec: spec},
		resetJob{name: "l3-override", cfg: config.WithL3(config.C3(), 6*256<<10, 16, config.CellWriteTuned), spec: spec},
		resetJob{name: "dram-override", cfg: func() config.GPUConfig {
			g := config.C1()
			g.DRAM = config.DRAMSpec{Banks: 4, RowBytes: 4096, RowMissLatency: 300}
			return g
		}(), spec: spec},
		resetJob{name: "warmup", cfg: config.C2(), spec: spec, opts: Options{WarmupInstructions: 4000}},
		resetJob{name: "maxcycles", cfg: config.C1(), spec: spec, opts: Options{MaxCycles: 1500}},
		resetJob{name: "write-variation", cfg: config.BaselineSTT(), spec: spec, opts: Options{EnableWriteVariation: true}},
		resetJob{name: "cancelled", cfg: c4, spec: spec.Scale(20), cancelAfter: 2},
	)

	app := workloads.Apps()[0]
	for i := range app.Kernels {
		app.Kernels[i] = app.Kernels[i].Scale(0.05)
		app.Kernels[i].WarpsPerSM = 4
	}
	jobs = append(jobs, resetJob{name: "app", cfg: config.C3(), app: &app})

	instr, warps := 300.0, 4.0
	genApp, err := gen.AppSpec{
		Name: "reset", Seed: 7,
		InstrPerWarp: gen.Dist{Fixed: &instr}, WarpsPerSM: gen.Dist{Fixed: &warps},
	}.App()
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, resetJob{name: "gen", cfg: config.C1L3(), app: &genApp})
	return jobs
}

// A reused simulator must be indistinguishable from a fresh one: every
// job of a shuffled sequence, run on one simulator after Reset, dumps
// exactly the bytes New's simulator dumps for it — whatever ran before,
// a cancelled run or a C4 run that reconfigured its banks included.
func TestResetMatchesNew(t *testing.T) {
	jobs := resetJobs(t)
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		opts := j.opts
		opts.Metrics = metrics.NewRegistry(true)
		want[i] = j.run(t, New(j.cfg, j.first(), opts), opts.Metrics)
	}
	// Three shuffles of every job twice over, then every job twice in a
	// row, so each memory system is also reused by a run of its own
	// configuration (that is when Reset keeps the tier chains).
	var orders [][]int
	for seed := int64(1); seed <= 3; seed++ {
		order := rand.New(rand.NewSource(seed)).Perm(2 * len(jobs))
		for k := range order {
			order[k] %= len(jobs)
		}
		orders = append(orders, order)
	}
	var twice []int
	for i := range jobs {
		twice = append(twice, i, i)
	}
	orders = append(orders, twice)
	for seed, order := range orders {
		var s *Simulator
		for step, i := range order {
			j := jobs[i]
			opts := j.opts
			opts.Metrics = metrics.NewRegistry(step%4 != 3) // every fourth run bare
			if s == nil {
				s = New(j.cfg, j.first(), opts)
			} else {
				s.Reset(j.cfg, j.first(), opts)
			}
			got := j.run(t, s, opts.Metrics)
			if !opts.Metrics.Enabled() {
				// A bare run dumps no counters; its fresh twin must agree.
				o := j.opts
				o.Metrics = metrics.NewRegistry(false)
				want := j.run(t, New(j.cfg, j.first(), o), o.Metrics)
				if !bytes.Equal(got, want) {
					t.Errorf("seed %d step %d %s (bare): Reset run diverges from New", seed, step, j.name)
				}
				continue
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("seed %d step %d %s: Reset run diverges from New\n got %.300s\nwant %.300s",
					seed, step, j.name, got, want[i])
			}
		}
	}
}

// A result handed out before a Reset must not share memory with the
// simulator: running job B on the reset simulator leaves job A's Result
// and its dump bytes exactly as they were.
func TestResetDoesNotAliasResults(t *testing.T) {
	spec := exportSpec(t)
	regA := metrics.NewRegistry(true)
	s := New(config.C2L3(), spec, Options{Metrics: regA})
	a := s.Run()
	d := DumpStats(a, regA)
	dumpA, err := d.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	keep := deepCopy(a)
	keepDump := bytes.Clone(dumpA)
	if a.Tiers == nil || a.Bank.RewriteIntervals == nil {
		t.Fatal("job A has no tier roll-up or rewrite histogram: the test covers nothing")
	}

	regB := metrics.NewRegistry(true)
	s.Reset(config.C2L3(), spec.Scale(2), Options{Metrics: regB})
	if b := s.Run(); reflect.DeepEqual(b, a) {
		t.Fatal("job B reproduced job A: the test covers nothing")
	}
	if !reflect.DeepEqual(a, keep) {
		t.Error("job A's Result changed when the simulator ran job B")
	}
	if !bytes.Equal(dumpA, keepDump) {
		t.Error("job A's dump bytes changed when the simulator ran job B")
	}
}

// deepCopy returns a copy of r that shares no memory with it: its
// pointer and slice fields are the histogram and the tier roll-up.
func deepCopy(r Result) Result {
	c := r
	h := *r.Bank.RewriteIntervals
	h.Edges = append([]float64(nil), h.Edges...)
	h.Counts = append([]uint64(nil), h.Counts...)
	c.Bank.RewriteIntervals = &h
	c.Tiers = append([]TierResult(nil), r.Tiers...)
	return c
}

// Registering against a disabled registry — every run that asks for no
// stats — allocates nothing.
func TestDisabledRegistrationAllocFree(t *testing.T) {
	s := New(config.C4(), exportSpec(t), Options{})
	if avg := testing.AllocsPerRun(20, s.registerMetrics); avg != 0 {
		t.Errorf("registration on a disabled registry allocates %v per run, want 0", avg)
	}
}

// maxResetAllocs bounds one Reset+Run of BenchmarkSimulatorReset's
// workload on a retained simulator.
const maxResetAllocs = 700

func TestResetAllocBudget(t *testing.T) {
	spec := throughputSpec()
	cfg := config.C1()
	s := New(cfg, spec, Options{})
	s.Run()
	avg := testing.AllocsPerRun(5, func() {
		s.Reset(cfg, spec, Options{})
		s.Run()
	})
	if avg > maxResetAllocs {
		t.Errorf("Reset+Run allocates %v per run, want <= %d", avg, maxResetAllocs)
	}
	t.Logf("Reset+Run: %v allocs", avg)
}

// throughputSpec is the root package's SimulatorThroughput workload.
func throughputSpec() workloads.Spec {
	spec, ok := workloads.ByName("bfs")
	if !ok {
		panic("bfs missing from suite")
	}
	spec = spec.Scale(0.05)
	spec.WarpsPerSM = 6
	return spec
}
