// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness runs the simulator over the benchmark
// suite with the relevant parameter sweep, returns typed rows, and can
// render itself as a text table whose rows/series match what the paper
// plots. EXPERIMENTS.md records the measured values next to the paper's.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/sim"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

// Params tunes how heavy the experiment runs are. The zero value means
// "paper scale": the full suite at full per-warp instruction counts.
type Params struct {
	// Scale multiplies per-warp instruction counts (0 = 1.0).
	Scale float64
	// WarpsPerSM overrides the per-benchmark warp job count (0 = spec).
	WarpsPerSM int
	// Benchmarks restricts the suite (nil = all).
	Benchmarks []string
	// MaxCycles bounds each run (0 = none).
	MaxCycles int64
	// Parallel bounds the sweep's concurrent tasks — single runs for a
	// pure configuration grid, whole benchmarks otherwise (0 = number
	// of CPUs). Every task deposits into its own index-addressed slot,
	// so results are deterministic regardless of the setting.
	Parallel int
	// InvariantCheck, when non-nil, audits bank state during every run
	// of the sweep (see sim.Options.InvariantCheck). The checker must
	// be safe for concurrent use across banks and runs when Parallel
	// allows more than one evaluation at a time — stateless checkers
	// like refmodel.CheckBank are.
	InvariantCheck func(bank int, b core.Bank, now int64) error
	// Context, when non-nil, bounds every run of the sweep: once it is
	// cancelled, in-flight simulations stop at their next periodic
	// cancellation check and queued tasks are skipped entirely. Rows
	// for interrupted or skipped runs are partial or zero — callers
	// that honor Context should tell their users the sweep was cut
	// short (sttexp does).
	Context context.Context
	// ReplaySweeps switches per-benchmark configuration sweeps (Fig. 4's
	// threshold sweep, Fig. 5's associativity sweep) to record-once/
	// replay-many mode: each benchmark simulates in full once under the
	// sweep's base configuration, and every variant is evaluated by
	// replaying the recorded L2 stream into fresh banks (sim.ReplayMany).
	// The base configuration's measurement comes from the recording run
	// itself and is exact; variant measurements are trace-driven
	// approximations — the stream was shaped by the base configuration's
	// timing (see DESIGN.md §13). Off by default, so existing sweeps stay
	// execution-driven and byte-identical to earlier releases.
	ReplaySweeps bool
	// ReplayTrace, when non-nil, replaces live simulation entirely for
	// the sweeps that support it (Fig. 4, 5, and 6): every configuration
	// — base included — is evaluated by replaying this pre-recorded
	// stream, and the sweep covers the recording's single workload
	// instead of the benchmark suite. This is what `sttexp -replay
	// <file>` feeds.
	ReplayTrace *trace.Recording
}

func (p Params) ctx() context.Context {
	if p.Context == nil {
		return context.Background()
	}
	return p.Context
}

func (p Params) scale() float64 {
	if p.Scale <= 0 {
		return 1
	}
	return p.Scale
}

// specs resolves the benchmark list with scaling applied.
func (p Params) specs() []workloads.Spec {
	var out []workloads.Spec
	if p.Benchmarks == nil {
		out = workloads.All()
	} else {
		for _, name := range p.Benchmarks {
			s, ok := workloads.ByName(name)
			if !ok {
				panic(fmt.Sprintf("experiments: unknown benchmark %q", name))
			}
			out = append(out, s)
		}
	}
	for i := range out {
		out[i] = out[i].Scale(p.scale())
		if p.WarpsPerSM > 0 {
			out[i].WarpsPerSM = p.WarpsPerSM
		}
	}
	return out
}

func (p Params) opts() sim.Options {
	return sim.Options{MaxCycles: p.MaxCycles, InvariantCheck: p.InvariantCheck}
}

// run executes one configuration for one spec. A cancelled Params
// context yields a partial result (disclosed by the sweep's caller).
func run(cfg config.GPUConfig, spec workloads.Spec, p Params) sim.Result {
	r, _ := sim.New(cfg, spec, p.opts()).RunContext(p.ctx())
	return r
}

// replayLabel names the rows a pre-recorded stream produces.
func replayLabel(rec *trace.Recording) string {
	if rec.Workload != "" {
		return rec.Workload
	}
	return "trace"
}

// sweepBankVariants evaluates one benchmark under K configuration
// variants and returns one Result per variant, in order. In
// execution-driven mode (the default) every variant simulates in full.
// With p.ReplaySweeps the benchmark's L2 stream is recorded once under
// cfgs[base] and fanned out to the other variants in a single replay
// pass; the base entry is the recording run's own (exact) result, so
// sweeps that normalize against the base keep an execution-driven
// reference. A cancelled context yields partial results either way.
func sweepBankVariants(spec workloads.Spec, cfgs []config.GPUConfig, base int, p Params) []sim.Result {
	if !p.ReplaySweeps {
		out := make([]sim.Result, len(cfgs))
		for i, cfg := range cfgs {
			out[i] = run(cfg, spec, p)
		}
		return out
	}
	opts := p.opts()
	opts.Recording = new(trace.Recording)
	live, err := sim.New(cfgs[base], spec, opts).RunContext(p.ctx())
	if err != nil {
		// Cut short: a partial recording must not masquerade as the
		// full stream, so variants stay zero and only the base row
		// carries the partial run.
		out := make([]sim.Result, len(cfgs))
		out[base] = live
		return out
	}
	out := sim.ReplayMany(opts.Recording, cfgs)
	out[base] = live
	return out
}

// runPanic is a panic captured from one task of a sweep: which
// benchmark — and, for a run-granular sweep, which configuration — blew
// up, the original panic value, and the goroutine stack at the panic
// site. It is what forEachTask re-panics with, so callers recovering a
// sweep failure can tell exactly which run died.
type runPanic struct {
	Index int    // task index: the benchmark's, or the run's in the grid
	Spec  string // benchmark
	// Config is the run's configuration name, empty for a per-benchmark
	// task. A variant grid's configurations keep their base's name (the
	// ablation's are all "C1"), so Index tells those apart.
	Config string
	Value  any
	Stack  []byte
}

func (rp *runPanic) Error() string {
	if rp.Config != "" {
		return fmt.Sprintf("experiments: benchmark %q on %s (run %d) panicked: %v\n%s",
			rp.Spec, rp.Config, rp.Index, rp.Value, rp.Stack)
	}
	return fmt.Sprintf("experiments: benchmark %q (index %d) panicked: %v\n%s",
		rp.Spec, rp.Index, rp.Value, rp.Stack)
}

// sweep is the state of one forEachTask call, kept in one allocation: the
// benchmarks and configurations it covers, the task, and the workers'
// shared bookkeeping.
type sweep struct {
	specs   []workloads.Spec
	cfgs    []config.GPUConfig // nil: one task per benchmark
	task    func(si, ci int)
	n       int // tasks
	next    atomic.Int64
	stopped atomic.Bool
	wg      sync.WaitGroup
	mu      sync.Mutex
	first   *runPanic // lowest-index capture
}

// forEachTask is the sweeps' one fan-out. With cfgs nil it has one task per
// benchmark, task(si, 0); otherwise one per (benchmark, configuration)
// run, task(si, ci), numbered benchmark-major: run si,ci is task
// si*len(cfgs)+ci. A pool of p.Parallel workers (0 = GOMAXPROCS, clamped
// to the task count) takes the tasks in ascending order. Callers deposit
// results into index-addressed slots, so the output never depends on the
// worker count or on completion order. With one worker the tasks run one
// at a time in order on the same code path.
//
// A panicking task does not tear the process down: it is captured with
// its stack, its benchmark and, for a run, its configuration; tasks not
// yet started are shed, in-flight siblings run to completion (their
// deposits stay intact), and once every worker has stopped the
// lowest-index capture is re-raised as a *runPanic — the panic a serial
// sweep would have hit first. Cancelling p.Context sheds queued tasks the
// same way, without a panic; their slots keep their zero values.
func forEachTask(p Params, specs []workloads.Spec, cfgs []config.GPUConfig, task func(si, ci int)) {
	s := &sweep{specs: specs, cfgs: cfgs, task: task, n: len(specs)}
	if cfgs != nil {
		s.n *= len(cfgs)
	}
	workers := p.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > s.n {
		workers = s.n
	}
	if ctx := p.Context; ctx != nil {
		if ctx.Err() != nil {
			// Already cancelled: shed everything synchronously —
			// AfterFunc alone would race the first tasks.
			s.abort()
		}
		stop := context.AfterFunc(ctx, s.abort)
		defer stop()
	}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.work()
	}
	s.wg.Wait()
	if s.first != nil {
		panic(s.first)
	}
}

// abort sheds the tasks not yet started. Safe from any goroutine.
func (s *sweep) abort() { s.stopped.Store(true) }

func (s *sweep) work() {
	defer s.wg.Done()
	for !s.stopped.Load() {
		i := int(s.next.Add(1) - 1)
		if i >= s.n {
			return
		}
		s.run(i)
	}
}

// run runs task i, capturing a panic instead of letting it unwind.
func (s *sweep) run(i int) {
	si, ci := i, 0
	if s.cfgs != nil {
		si, ci = i/len(s.cfgs), i%len(s.cfgs)
	}
	defer func() {
		if v := recover(); v != nil {
			rp := &runPanic{Index: i, Spec: s.specs[si].Name, Value: v, Stack: debug.Stack()}
			if s.cfgs != nil {
				rp.Config = s.cfgs[ci].Name
			}
			s.mu.Lock()
			if s.first == nil || i < s.first.Index {
				s.first = rp
			}
			s.mu.Unlock()
			// A dead run poisons the sweep's results; don't burn
			// cycles finishing the rest of the queue.
			s.abort()
		}
	}()
	s.task(si, ci)
}

// forEachSpec evaluates fn once per benchmark, one benchmark per task of
// forEachTask. It serves the sweeps whose per-benchmark body is more
// than independent runs — it reads a simulator's internals, or records
// one run and replays it into the others; pure configuration grids use
// runGrid, whose tasks are single runs. fn receives the spec's index so
// callers can deposit results deterministically into index-addressed
// slots, and must not share mutable state across indices. Panics and a
// cancelled p.Context behave as forEachTask documents.
func forEachSpec(p Params, fn func(i int, spec workloads.Spec)) {
	specs := p.specs()
	forEachTask(p, specs, nil, func(si, _ int) { fn(si, specs[si]) })
}

// runGrid runs every benchmark on every configuration of a pure grid — a
// sweep whose per-benchmark body is only independent runs plus
// arithmetic on their results — one run per task of forEachTask, so a
// slow benchmark's runs spread over the workers instead of queueing
// behind each other on one. The results are benchmark-major: the run of
// benchmark si on cfgs[ci] is at si*len(cfgs)+ci. Runs a cancelled sweep
// skipped are zero Results.
func runGrid(p Params, cfgs []config.GPUConfig) []sim.Result {
	specs := p.specs()
	rs := make([]sim.Result, len(specs)*len(cfgs))
	forEachTask(p, specs, cfgs, func(si, ci int) {
		rs[si*len(cfgs)+ci] = run(cfgs[ci], specs[si], p)
	})
	return rs
}

// header renders a fixed-width table header line plus separator.
func header(cols ...string) string {
	var b strings.Builder
	for i, c := range cols {
		if i == 0 {
			fmt.Fprintf(&b, "%-14s", c)
		} else {
			fmt.Fprintf(&b, " %12s", c)
		}
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 14+13*(len(cols)-1)))
	b.WriteByte('\n')
	return b.String()
}
