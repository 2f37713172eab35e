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
	"sort"
	"strings"
	"sync"

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
	// Parallel bounds concurrent benchmark evaluations (0 = number of
	// CPUs). Each benchmark's runs stay sequential internally, so
	// results are deterministic regardless of the setting.
	Parallel int
	// InvariantCheck, when non-nil, audits bank state during every run
	// of the sweep (see sim.Options.InvariantCheck). The checker must
	// be safe for concurrent use across banks and runs when Parallel
	// allows more than one evaluation at a time — stateless checkers
	// like refmodel.CheckBank are.
	InvariantCheck func(bank int, b core.Bank, now int64) error
	// Context, when non-nil, bounds every run of the sweep: once it is
	// cancelled, in-flight simulations stop at their next periodic
	// cancellation check and queued specs are skipped entirely. Rows
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
	live, rec, err := sim.RecordContext(p.ctx(), cfgs[base], spec, p.opts())
	if err != nil {
		// Cut short: a partial recording must not masquerade as the
		// full stream, so variants stay zero and only the base row
		// carries the partial run.
		out := make([]sim.Result, len(cfgs))
		out[base] = live
		return out
	}
	out := sim.ReplayMany(rec, cfgs)
	out[base] = live
	return out
}

// runPanic is a panic captured from one benchmark evaluation: which
// spec blew up, the original panic value, and the goroutine stack at
// the panic site. It is what forEachSpec re-panics with, so callers
// recovering a sweep failure can tell exactly which run died.
type runPanic struct {
	Index int
	Spec  string
	Value any
	Stack []byte
}

func (rp *runPanic) Error() string {
	return fmt.Sprintf("experiments: benchmark %q (index %d) panicked: %v\n%s",
		rp.Spec, rp.Index, rp.Value, rp.Stack)
}

// group is a hand-rolled errgroup: a bounded worker pool that runs
// submitted tasks, collects any panics instead of letting one torn-down
// goroutine crash the process before sibling runs finish, and — once a
// task has panicked or the sweep's context is cancelled — skips every
// task that has not started yet. In-flight siblings still run to
// completion, so their deposited results are intact; only queued work
// is shed. (The real errgroup module is an external dependency; this is
// the subset the sweeps need.)
type group struct {
	sem      chan struct{}
	wg       sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once
	mu       sync.Mutex
	panics   []*runPanic
}

func newGroup(workers int) *group {
	if workers < 1 {
		workers = 1
	}
	return &group{sem: make(chan struct{}, workers), stop: make(chan struct{})}
}

// abort sheds the not-yet-started remainder of the sweep. Idempotent
// and safe to call from any goroutine.
func (g *group) abort() {
	g.stopOnce.Do(func() { close(g.stop) })
}

// Go runs task on a worker slot, blocking the submitter while every
// slot is busy. With one slot, tasks therefore run one at a time in
// submission order — the serial path is the same code path. A task
// whose slot frees up after the group aborted is dropped unrun.
func (g *group) Go(index int, spec string, task func()) {
	g.sem <- struct{}{}
	g.wg.Add(1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				g.mu.Lock()
				g.panics = append(g.panics, &runPanic{
					Index: index, Spec: spec, Value: v, Stack: debug.Stack(),
				})
				g.mu.Unlock()
				// A dead run poisons the sweep's results; don't burn
				// cycles finishing the rest of the queue.
				g.abort()
			}
			<-g.sem
			g.wg.Done()
		}()
		select {
		case <-g.stop:
			// Aborted while queued: skip.
		default:
			task()
		}
	}()
}

// Wait blocks until every submitted task has finished, then — if any
// panicked — re-panics with the lowest-index capture, matching the
// panic a serial sweep would have surfaced first. Sibling runs always
// complete before the re-raise, so their deposited results are intact.
func (g *group) Wait() {
	g.wg.Wait()
	if len(g.panics) == 0 {
		return
	}
	sort.Slice(g.panics, func(i, j int) bool { return g.panics[i].Index < g.panics[j].Index })
	panic(g.panics[0])
}

// forEachSpec evaluates fn once per benchmark, fanning benchmarks out
// across a bounded worker pool. fn receives the spec's index so callers
// can deposit results deterministically into index-addressed slots —
// result ordering never depends on completion order, which is why
// Parallel=1 and Parallel=N render byte-identical report tables. The
// per-benchmark work inside fn must not share mutable state across
// indices. A panicking fn aborts the sweep: in-flight sibling runs
// complete (their deposited results stay intact), specs that have not
// started yet are skipped, then the lowest-index panic is re-raised as
// a *runPanic. Cancelling p.Context sheds queued specs the same way,
// without a panic.
func forEachSpec(p Params, fn func(i int, spec workloads.Spec)) {
	specs := p.specs()
	workers := p.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	g := newGroup(workers)
	if ctx := p.Context; ctx != nil {
		if ctx.Err() != nil {
			// Already cancelled: shed everything synchronously —
			// AfterFunc alone would race the first submissions.
			g.abort()
		}
		stop := context.AfterFunc(ctx, g.abort)
		defer stop()
	}
	for i, spec := range specs {
		i, spec := i, spec
		g.Go(i, spec.Name, func() { fn(i, spec) })
	}
	g.Wait()
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
