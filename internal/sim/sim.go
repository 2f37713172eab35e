// Package sim wires the substrates into the full simulated GPU of the
// evaluation — SMs, per-SM L1 caches, request/reply butterfly networks,
// address-interleaved L2 banks, per-bank memory controllers — and runs an
// application to completion, reporting IPC and the L2 power breakdown
// exactly as the paper's figures need them. A benchmark is the
// application of one kernel (workloads.Single); its kernels launch
// back-to-back on one memory system, so one kernel's L2 contents are
// visible to the next.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"sttllc/internal/cache"
	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/dram"
	"sttllc/internal/engine"
	"sttllc/internal/gpu"
	"sttllc/internal/interconnect"
	"sttllc/internal/metrics"
	"sttllc/internal/power"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

// Options tunes a simulation run.
type Options struct {
	// EnableWriteVariation attaches per-set write counters to uniform
	// banks for the Fig. 3 characterization.
	EnableWriteVariation bool
	// MaxCycles stops the run at this cycle (0 = no limit). The limit is
	// absolute: it counts from the application's start across kernel
	// boundaries, so once it is reached every kernel still to launch runs
	// for zero cycles and reports an empty row. It is not enforced while
	// the run is still warming up.
	MaxCycles int64
	// Recording, when non-nil, captures the run's L2 reference stream —
	// the record-once half of the record-once/replay-many sweep idiom.
	// RunContext replaces its contents: the workload's name and content
	// hash (workloads.App.Hash: a benchmark's is its spec's, so caches can
	// share it across jobs), the configuration name, one phase per kernel
	// launch, the warmup boundary and the end cycle, while Access appends
	// every L2-bound record. Recording does not perturb the run. A
	// cancelled run keeps the records made so far; such a partial
	// recording must not enter a shared cache.
	Recording *trace.Recording
	// WarmupInstructions, when positive, runs that many instructions
	// first and then resets every statistic once (keeping cache contents
	// and timing state), so the reported numbers exclude cold-start
	// effects. The budget counts from the application's start across
	// kernel boundaries; the reset happens at the cycle it is spent, or at
	// the end of the run if the application retires first (an empty
	// measured window). Warmup moves only the statistics boundary: the
	// timeline, end cycle included, is the unwarmed run's.
	WarmupInstructions uint64
	// Metrics, when non-nil, is the registry the simulator publishes its
	// counters into (see DumpStats). Each simulation — each New or
	// Reset — needs its own empty registry: metric names are global
	// within one. When nil, the simulator uses a private disabled
	// registry: the instrumented paths still run, but record nothing
	// and cost no allocations.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives the run's timeline — kernel phases,
	// bank refresh/expiry windows, swap-buffer overflow drains, DRAM
	// writeback progress — as Chrome-trace events in simulated time.
	Tracer *metrics.Tracer
	// InvariantCheck, when non-nil, audits each tier's live state at
	// every retention-counter boundary (the tier is caught up to that
	// cycle first) and after the end-of-run drain. A returned error
	// panics: a violated invariant means simulator state is already
	// corrupt and any further results would be garbage. When nil, the
	// package-level default installed by the test harness applies (nil
	// outside tests — production runs pay nothing).
	InvariantCheck func(bank int, b core.Bank, now int64) error
	// skipSMs builds the memory system only (newReplaySimulator sets
	// it): replays drive Access directly, so SMs would sit idle.
	skipSMs bool
}

// defaultInvariantCheck is the fallback used when Options.InvariantCheck
// is nil. The sim test harness points it at internal/refmodel's checker
// so every existing golden and integration test audits bank state for
// free; it stays nil in production builds.
var defaultInvariantCheck func(bank int, b core.Bank, now int64) error

// Simulator holds one configured GPU running one application.
type Simulator struct {
	cfg  config.GPUConfig
	app  workloads.App
	opts Options

	sms      []*gpu.SM
	banks    []core.Bank // top tier of each bank's chain (what the NoC talks to)
	tiers    [][]core.Tier
	flat     []core.Bank // every tier of every chain, bank-major
	hier     config.HierarchySpec
	mcs      []*dram.Controller
	reqNet   *interconnect.Network
	replyNet *interconnect.Network

	lineMask  uint64
	lineShift uint // log2(LineBytes); line sizes are powers of two
	router    bankRouter
	resident  int
	check     func(bank int, b core.Bank, now int64) error

	// Cancellation state (see RunContext). ctx is nil for plain Run
	// calls — the drive loop then schedules no poll event and pays
	// nothing. cancelled latches once a poll observes ctx.Err() != nil;
	// it is never reset, so a multi-kernel application stops launching
	// kernels after the first cancelled drive.
	ctx       context.Context
	cancelled bool

	// Warmup state of the run (see drive): warmLeft is the instruction
	// budget not yet spent, boundary the cycle the statistics reset at
	// (0 until then), and retired the SM-side statistics of the kernels
	// that retired since the boundary, which finalize adds to the loaded
	// kernel's.
	warmLeft uint64
	boundary int64
	retired  Result

	// Observability (see observe.go). reg is never nil after Reset; mReq
	// and mLat are live handles even when it is disabled.
	reg    *metrics.Registry
	tracer *metrics.Tracer
	// adapt is the C4 online reconfiguration controller (see
	// adaptive.go); nil unless cfg.Adaptive.Enabled, so static
	// configurations schedule no epoch events and run unchanged.
	adapt *adaptiveController
	mReq  metrics.Counter
	mLat  *metrics.Histogram
	// The engine.events_* totals — parked SM wakes and timer events —
	// accumulated across drive calls (a run drives once per kernel).
	engSched uint64
	engFired uint64

	// Reuse state (see Reset): the shapes the memory system and the NoC
	// were built for, the timer engine and SM wake array of drive, and the
	// private disabled registry used when Options.Metrics is nil.
	mem    memShape
	noc    nocShape
	timers *engine.Engine
	wakeAt []int64
	bare   *metrics.Registry
}

// memShape is everything the banks' tier chains and DRAM controllers
// are built from. Reset keeps the chains, resetting each tier in place,
// while it is unchanged.
type memShape struct {
	clockHz        float64
	banks          int
	lineBytes      int
	l2             config.L2Spec
	l3             config.L3Spec
	dram           config.DRAMSpec
	writeVariation bool
}

// nocShape is what the two NoC halves are built from.
type nocShape struct {
	sms, banks int
	stage      int64
}

// New builds a simulator for a benchmark on the configuration: Reset of
// an empty Simulator for workloads.Single(spec).
func New(cfg config.GPUConfig, spec workloads.Spec, opts Options) *Simulator {
	// The benchmark's kernel lives in the simulator's own allocation.
	n := &struct {
		s      Simulator
		kernel [1]workloads.Spec
	}{kernel: [1]workloads.Spec{spec}}
	n.s.Reset(cfg, workloads.SingleIn(&n.kernel), opts)
	return &n.s
}

// Reset rebuilds s for a new run of app on cfg, with app's first kernel
// loaded. Resetting an empty Simulator builds everything; otherwise
// components whose shape already fits are reset in place instead of
// reallocated — the SMs with their caches, the NoC halves, the timer
// engine, and the banks' tier chains with their DRAM controllers when
// the memory system is unchanged — with the same results and dump bytes
// either way. Results of earlier runs stay valid; a registry from an
// earlier run reads the simulator live and must not be snapshotted
// after a Reset. An application without kernels panics.
func (s *Simulator) Reset(cfg config.GPUConfig, app workloads.App, opts Options) {
	if len(app.Kernels) == 0 {
		panic("sim: application has no kernels")
	}
	hier, err := cfg.Hierarchy()
	if err != nil {
		panic(err)
	}
	old := *s
	*s = Simulator{
		cfg:       cfg,
		app:       app,
		opts:      opts,
		hier:      hier,
		lineMask:  uint64(cfg.LineBytes - 1),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		router:    newBankRouter(cfg.NumBanks),
		check:     opts.InvariantCheck,
		sms:       old.sms[:0],
		timers:    old.timers,
		wakeAt:    old.wakeAt,
		bare:      old.bare,
	}
	if s.check == nil {
		s.check = defaultInvariantCheck
	}

	s.mem = memShape{cfg.ClockHz, cfg.NumBanks, cfg.LineBytes, cfg.L2, cfg.L3, cfg.DRAM, opts.EnableWriteVariation}
	if old.tiers != nil && old.mem == s.mem {
		s.banks, s.tiers, s.flat, s.mcs = old.banks, old.tiers, old.flat, old.mcs
		for _, t := range s.flat {
			t.Reset() // a chain's bottom tier also resets its DRAM controller
		}
	} else {
		s.buildMemory()
	}

	s.noc = nocShape{cfg.NumSMs, cfg.NumBanks, cfg.NoCStageCycles}
	if old.reqNet != nil && old.noc == s.noc {
		s.reqNet, s.replyNet = old.reqNet, old.replyNet
		s.reqNet.Reset()
		s.replyNet.Reset()
	} else {
		s.reqNet = interconnect.New(cfg.NumSMs, cfg.NumBanks, cfg.NoCStageCycles)
		s.replyNet = interconnect.New(cfg.NumBanks, cfg.NumSMs, cfg.NoCStageCycles)
	}

	spec := app.Kernels[0]
	if !opts.skipSMs {
		s.buildSMs(spec)
	} else {
		// Replay simulators never execute an SM: the stream is driven
		// straight into Access. Constructing 15 SMs (with their L1,
		// constant, and texture caches) only to leave them idle is the
		// dominant cost of building a replayer, so skip them. Every
		// observable is unchanged: idle SMs contribute the same zero
		// statistics an empty SM set does, and ResidentWarps is computed
		// here exactly as buildSMs would.
		s.resident = gpu.ResidentWarps(s.cfg.SM, spec.RegsPerThread, spec.ThreadsPerBlock)
	}

	if s.reg = opts.Metrics; s.reg == nil {
		if s.bare == nil {
			s.bare = metrics.NewRegistry(false)
		}
		s.reg = s.bare
	}
	if s.tracer = opts.Tracer; s.tracer != nil {
		s.nameTracks()
	}
	s.registerMetrics()
	if cfg.Adaptive.Enabled && !opts.skipSMs {
		// Replays run no controller (see replaymany.go).
		s.adapt = newAdaptiveController(s)
	}
}

// buildMemory constructs every bank's tier chain on its own DRAM
// controller.
func (s *Simulator) buildMemory() {
	n := s.cfg.NumBanks
	s.banks = make([]core.Bank, n)
	s.mcs = make([]*dram.Controller, n)
	s.tiers = make([][]core.Tier, n)
	s.flat = make([]core.Bank, 0, n*len(s.hier))
	for i := range s.banks {
		s.mcs[i] = s.cfg.NewDRAM()
		chain, err := s.cfg.NewTiers(s.mcs[i])
		if err != nil {
			panic(err)
		}
		s.tiers[i] = chain
		s.banks[i] = chain[0]
		for _, t := range chain {
			s.flat = append(s.flat, t)
			if s.opts.EnableWriteVariation {
				if wv, ok := t.(core.WriteVariationEnabler); ok {
					wv.EnableWriteVariation()
				}
			}
		}
	}
}

// buildSMs loads fresh SMs for a kernel launch, resetting the ones a
// previous launch or run left behind; the memory system (banks, NoC,
// DRAM) keeps its state, which is what lets multi-kernel applications
// observe inter-kernel L2 reuse.
func (s *Simulator) buildSMs(spec workloads.Spec) {
	s.resident = gpu.ResidentWarps(s.cfg.SM, spec.RegsPerThread, spec.ThreadsPerBlock)
	model := spec.Model()
	n := s.cfg.NumSMs
	if cap(s.sms) < n {
		grown := make([]*gpu.SM, n)
		copy(grown, s.sms[:cap(s.sms)])
		s.sms = grown
	}
	s.sms = s.sms[:n]
	for i, sm := range s.sms {
		if sm == nil {
			s.sms[i] = gpu.NewSM(i, s.cfg.SM, model, s, s.resident, i*spec.WarpsPerSM, spec.WarpsPerSM)
		} else {
			sm.Reset(s.cfg.SM, model, s, s.resident, i*spec.WarpsPerSM, spec.WarpsPerSM)
		}
	}
}

// Access implements gpu.MemSystem: route the request through the request
// network to its bank, serve it there (including DRAM on miss), and
// return the reply delivery time at the SM. Banks are interleaved by
// line; each bank sees a bank-local line address (line / numBanks) so
// its set index uses the full set range — interleaving by raw address
// would alias bank-selection bits into the index and waste sets.
func (s *Simulator) Access(now int64, smID int, addr uint64, write bool) int64 {
	if rec := s.opts.Recording; rec != nil {
		rec.Records = append(rec.Records, trace.Record{
			Cycle: now, Addr: addr, SM: uint8(smID), Write: write,
		})
	}
	line := addr >> s.lineShift
	bank, q := s.router.route(line)
	local := q << s.lineShift
	arrive := s.reqNet.Deliver(now, bank)
	done, _ := s.banks[bank].Access(arrive, local, write)
	reply := s.replyNet.DeliverUncontended(done, smID)
	// Observability: one slab increment and one bucket scan; against a
	// disabled registry both degenerate to sink increments.
	s.mReq.Inc()
	s.mLat.Observe(reply - now)
	return reply
}

// Banks exposes the L2 banks for characterization experiments.
func (s *Simulator) Banks() []core.Bank { return s.banks }

// Result is the outcome of one run. Its statistics cover the whole
// application's measured window: every kernel after the warmup boundary.
type Result struct {
	Config    string
	Benchmark string // the application's name; a benchmark's own name

	// Kernels has one row per kernel launch, in launch order, for an
	// application of more than one kernel. It is nil for one kernel —
	// a benchmark — whose row is the Result itself, and for replays.
	Kernels []KernelResult

	Cycles        int64
	Instructions  uint64
	IPC           float64
	ResidentWarps int

	L1    cache.Stats
	Const cache.Stats    // per-SM constant caches merged
	Tex   cache.Stats    // per-SM texture caches merged
	Bank  core.BankStats // all banks merged
	SM    gpu.SMStats    // all SMs merged

	// L2 power (the paper's Fig. 8b/8c metrics).
	DynamicEnergyJ float64
	DynamicPowerW  float64
	LeakagePowerW  float64
	TotalPowerW    float64
	Seconds        float64

	// Power is the per-component breakdown behind the totals.
	Power power.Breakdown

	// Tiers is the per-level roll-up of a multi-tier hierarchy (L2, any
	// stacked tiers, then DRAM). Nil for the paper's two-level configs,
	// so single-tier results are unchanged.
	Tiers []TierResult
}

// TierResult aggregates one hierarchy level across all banks.
type TierResult struct {
	Level string // "l2", "l3", ..., "dram"
	Kind  string // tier kind ("two-part", "stt-l3", ...; "dram" for the bottom row)

	Reads  uint64
	Writes uint64
	// HitRate is the tier's service rate: cache hit rate for cache
	// tiers, row-buffer hit rate for the DRAM row.
	HitRate float64

	DynamicEnergyJ float64
	LeakageW       float64
}

// Run executes the application to completion and returns the result.
func (s *Simulator) Run() Result {
	r, _ := s.RunContext(context.Background())
	return r
}

// RunContext executes the application like Run, but stops early — at
// the next periodic cancellation check, which rides the timer engine so
// the per-event hot path is untouched — when ctx is cancelled or its
// deadline passes. The in-flight kernel stops there and no further
// kernel launches. On cancellation it returns the statistics
// accumulated so far (a partial but internally consistent Result, with
// a row for every kernel that launched, and an empty measured window if
// the warmup had not ended) together with ctx's error; a
// completed run returns a nil error even if ctx was cancelled just
// after the last cycle.
func (s *Simulator) RunContext(ctx context.Context) (Result, error) {
	s.ctx = ctx
	app := s.app
	rec := s.opts.Recording
	if rec != nil {
		*rec = trace.Recording{Workload: app.Name, WorkloadHash: app.Hash(), Config: s.cfg.Name}
	}
	s.warmLeft = s.opts.WarmupInstructions
	var rows []KernelResult
	if len(app.Kernels) > 1 {
		rows = make([]KernelResult, 0, len(app.Kernels))
	}
	now := int64(0)
	for ki, spec := range app.Kernels {
		if ki > 0 {
			s.addSMStats(&s.retired)
			s.buildSMs(spec)
		}
		if rec != nil {
			rec.Phases = append(rec.Phases, trace.Phase{Name: spec.Name, Index: len(rec.Records), Cycle: now})
		}
		from := now
		accBefore, hitBefore := s.bankTotals()
		warming := s.warmLeft > 0
		end := s.drive(now, ki == len(app.Kernels)-1)
		if warming && s.warmLeft == 0 {
			// The warmup boundary fell in this kernel: the rows measure
			// the window after it, so the kernels before it measured
			// nothing and this one counts from the boundary.
			for i := range rows {
				rows[i] = KernelResult{Benchmark: rows[i].Benchmark, StartCycle: rows[i].EndCycle, EndCycle: rows[i].EndCycle}
			}
			from, accBefore, hitBefore = s.boundary, 0, 0
		}
		if s.tracer != nil {
			s.tracer.Complete(kernelTID, spec.Name, now, end, map[string]any{"kernel": ki})
		}
		if rows != nil {
			rows = append(rows, s.kernelRow(spec.Name, from, end, accBefore, hitBefore))
		}
		now = end
		if s.cancelled {
			break
		}
	}
	if rec != nil {
		rec.EndCycle = now
	}
	if s.tracer != nil && s.boundary > 0 {
		s.tracer.Instant(kernelTID, "warmup-reset", s.boundary, nil)
	}
	r := s.finalize(s.boundary, now)
	r.Kernels = rows
	if s.cancelled {
		return r, ctx.Err()
	}
	return r, nil
}

// peekOr returns the engine's earliest event time, or MaxInt64 when it
// is empty — the drive loop's cheap "is a timer due" guard.
func peekOr(e *engine.Engine) int64 {
	if at, ok := e.Peek(); ok {
		return at
	}
	return math.MaxInt64
}

// advanceOr fires everything due through now and returns the next
// pending fire time, or MaxInt64 when the engine is drained.
func advanceOr(e *engine.Engine, now int64) int64 {
	if next, ok := e.Advance(now); ok {
		return next
	}
	return math.MaxInt64
}

// smActor is the drive loop's bookkeeping for one SM, which lets it skip
// the SM entirely while it sleeps: lastSeq remembers the last
// visited-cycle index at which the SM stepped, so the store-stall
// statistic a per-cycle loop would have accumulated during the skipped
// cycles can be settled in one call when it wakes. The SM's one
// outstanding wake, if any, is its entry of Simulator.wakeAt.
type smActor struct {
	sm      *gpu.SM
	lastSeq int64
	// selfAccounted marks that the SM ran ahead on its own (RunAhead)
	// through every visited cycle up to its wake: its statistics for that
	// span are already exact, so the gap settlement must be skipped once.
	selfAccounted bool
}

// drive advances the loaded kernel from start until every SM retires
// (or, past the warmup boundary, the absolute cycle MaxCycles is
// reached) and returns the final cycle.
//
// The loop visits only the cycles at which some SM is due. A bitmask
// holds the SMs due at the visited cycle: an SM that issued sets its bit
// for the next cycle, and an SM that sleeps longer parks its wake cycle
// in s.wakeAt (math.MaxInt64 when it has none). The visited cycle after
// a cycle with no issue is the earliest parked wake, so idle SMs cost
// nothing. Same-cycle SMs step in SM order, the order of the bitmask
// walk. The timer engine carries everything else — the C4 epoch, the
// cancellation poll, and the observer ticks of invariant audits and
// tracer bank windows — and never perturbs the SM-visible cycle sequence
// (jump targets, MaxCycles end values). Bank retention needs no events:
// each bank catches its retention counters up on access, and every
// reader of bank state (observers, the C4 controller, the warmup reset,
// finalize) catches it up to its own cycle first.
//
// engine.events_scheduled and engine.events_fired count the parked
// wakes as they counted SM wake events when an event queue held them: a
// wake parked at the cycle already pending is not a new one, a moved
// wake counts once, and every wake that comes due counts once.
//
// A positive s.warmLeft makes the warmup boundary an event on the same
// timeline — once the budget is spent, statistics reset in place and
// the run continues — rather than a separate stepping loop. A kernel
// that retires inside the budget leaves the rest of it in s.warmLeft
// for the next kernel; the last kernel (last) resets at its end.
func (s *Simulator) drive(start int64, last bool) (end int64) {
	if s.cancellable() && s.ctx.Err() != nil {
		// Cancelled before the first cycle: nothing ran, nothing to
		// settle, and a warmup still running ends with the run.
		s.cancelled = true
		if s.warmLeft > 0 {
			s.warmupReset(start)
		}
		return start
	}
	timers := s.timerEngine(start)
	// obsSched/obsFired count the observer ticks' events so they can be
	// subtracted from the engine totals below, like the cancellation
	// poll's: a bank catches up on its next access anyway, so audited,
	// traced, and bare runs publish identical counters.
	var obsSched, obsFired uint64
	if s.check != nil || s.tracer != nil {
		for bi, b := range s.flat {
			p := b.TickPeriod()
			if p <= 0 {
				continue
			}
			// Observers sample at the retention-counter cadence: catch
			// the tier up, audit it, then emit the window's activity
			// from the stats delta. Observation never feeds back into
			// simulation state.
			var bt *bankTrace
			if s.tracer != nil {
				bt = s.newBankTrace(bi, b)
			}
			var observe engine.Func
			observe = func(at int64) {
				obsFired++
				b.Tick(at)
				s.auditBank(bi, b, at)
				if bt != nil {
					bt.emit(at)
				}
				obsSched++
				timers.Schedule(at+p, observe)
			}
			obsSched++
			timers.Schedule(start+p, observe)
		}
	}
	if s.adapt != nil {
		// The C4 epoch event rides the timer timeline: one self-rearming
		// event per epoch, so the per-cycle and per-access hot paths
		// never see the controller.
		ep := s.adapt.spec.EpochCycles
		var epoch engine.Func
		epoch = func(at int64) {
			s.adapt.epoch(at)
			timers.Schedule(at+ep, epoch)
		}
		timers.Schedule(start+ep, epoch)
	}
	// pollSched/pollFired count the cancellation poll's own events so
	// they can be subtracted from the engine totals below: the poll is
	// scaffolding, and a cancellable run that completes must publish
	// counters byte-identical to a plain Run of the same workload.
	var pollSched, pollFired uint64
	if s.cancellable() {
		// Cancellation poll: one self-rearming event on the timer
		// timeline, at the banks' retention-tick cadence, so the check is
		// a periodic channel-free ctx.Err() read — never a per-event (let
		// alone per-cycle) cost. Once it trips it stops re-arming and the
		// visit loop below breaks at its next timer advance.
		p := s.cancelPollPeriod()
		var poll engine.Func
		poll = func(at int64) {
			pollFired++
			if s.ctx.Err() != nil {
				s.cancelled = true
				return
			}
			pollSched++
			timers.Schedule(at+p, poll)
		}
		pollSched++
		timers.Schedule(start+p, poll)
	}
	nextTick := peekOr(timers)

	actors := make([]smActor, len(s.sms))
	wakeAt := s.wakeArray()
	// Due bitmasks, one bit per actor: woken holds bits OR'd in by wakes
	// coming due at the visited cycle, dueNext the bits armed for the
	// immediately following cycle. Their union drives the actor walk.
	words := (len(s.sms) + 63) / 64
	woken := make([]uint64, words)
	dueNext := make([]uint64, words)
	live := 0
	for i, sm := range s.sms {
		actors[i] = smActor{sm: sm, lastSeq: -1}
		if !sm.Done() {
			dueNext[i>>6] |= 1 << uint(i&63)
			live++
		}
	}
	// sched and fired count the wakes parked and come due.
	var sched, fired uint64

	now := start
	warmupBudget := s.warmLeft
	warming := warmupBudget > 0
	// nextEvent is the earliest parked wake: visited cycles below it skip
	// the firing pass entirely. It stays exact. The firing pass
	// recomputes it, and every park only lowers it: an SM parks only
	// after its own wake fired (its slot holds MaxInt64) or when it was
	// stepped from dueNext (it had no parked wake).
	nextEvent := int64(math.MaxInt64)
	var seq int64 // index of the visited cycle being run
	var issuedTotal uint64
	// runLimit bounds SM run-ahead: never past MaxCycles (the reference
	// stops stepping there).
	runLimit := int64(math.MaxInt64)
	if s.opts.MaxCycles > 0 {
		runLimit = s.opts.MaxCycles
	}
	// visitedThrough is the highest cycle through which a running-ahead
	// SM has issued: the reference loop visits every cycle up to it, so
	// cycles the event loop skips below this mark still count toward the
	// visited-cycle index (seq) that store-stall settlement relies on.
	visitedThrough := start
	for {
		if warming && issuedTotal >= warmupBudget {
			// The warmup boundary. Unsettled stall debt predates the
			// boundary and dies with the stats.
			s.warmupReset(now)
			for i := range actors {
				actors[i].lastSeq = seq - 1
			}
			warming = false
		}
		if !warming && s.opts.MaxCycles > 0 && now >= s.opts.MaxCycles {
			break
		}
		if live == 0 {
			break
		}
		if now >= nextTick {
			nextTick = advanceOr(timers, now)
			if s.cancelled {
				break
			}
		}
		if now >= nextEvent {
			// Due wakes OR their actor's bit into woken and park at
			// MaxInt64; the rest bound nextEvent. Branch-free: whether a
			// slot is due is data, not control flow, so the scan never
			// mispredicts. due is 1 exactly when at <= now (now - at
			// cannot overflow: both are non-negative).
			nextEvent = math.MaxInt64
			for i, at := range wakeAt {
				due := uint64(now-at)>>63 ^ 1
				woken[i>>6] |= due << uint(i&63)
				fired += due
				at |= int64(-due >> 1) // MaxInt64 when due, else 0
				wakeAt[i] = at
				nextEvent = min(nextEvent, at)
			}
		}
		anyNext := false
		for wi := 0; wi < words; wi++ {
			m := dueNext[wi] | woken[wi]
			dueNext[wi], woken[wi] = 0, 0
			for ; m != 0; m &= m - 1 {
				i := wi<<6 + bits.TrailingZeros64(m)
				a := &actors[i]
				if a.selfAccounted {
					// The SM ran ahead through every visited cycle before
					// now on its own; its stall accounting is settled.
					a.selfAccounted = false
					a.lastSeq = seq
				} else {
					if gap := seq - a.lastSeq - 1; gap > 0 {
						a.sm.AccrueStoreStalls(gap)
					}
					a.lastSeq = seq
				}
				if a.sm.Step(now) {
					// Issued: the loop will visit now+1 and the per-cycle
					// reference steps every live SM there, so re-arm for
					// now+1 directly — the NextWake scan is only needed (and
					// only run by the reference) when an issue attempt
					// fails. An SM cannot retire on a successful issue.
					issuedTotal++
					if !warming && runLimit > now+1 {
						// Let the SM commit pure-ALU cycles by itself; it
						// rejoins the shared timeline at the first cycle
						// that needs ordering against other actors.
						if stop := a.sm.RunAhead(now+1, runLimit); stop > now+1 {
							a.selfAccounted = true
							if wakeAt[i] != stop {
								wakeAt[i] = stop
								sched++
							}
							if stop < nextEvent {
								nextEvent = stop
							}
							if stop > visitedThrough {
								visitedThrough = stop
							}
							continue
						}
					}
					dueNext[wi] |= 1 << uint(i&63)
					anyNext = true
					continue
				}
				if a.sm.Done() {
					live--
					continue
				}
				if w := a.sm.NextWake(now); w == now+1 {
					dueNext[wi] |= 1 << uint(i&63)
					anyNext = true
				} else {
					if wakeAt[i] != w {
						wakeAt[i] = w
						sched++
					}
					if w < nextEvent {
						nextEvent = w
					}
				}
			}
		}
		seq++
		if anyNext {
			// An issuing cycle is always followed by an issue attempt at
			// the very next cycle; a next-cycle wake visits it too.
			now++
			continue
		}
		next := nextEvent
		if next == math.MaxInt64 {
			break
		}
		if visitedThrough > now {
			// Cycles skipped under the run-ahead mark were visited by
			// the reference (the running-ahead SM issued at each one);
			// count them so gap settlements stay exact.
			skipped := visitedThrough
			if next-1 < skipped {
				skipped = next - 1
			}
			if skipped > now {
				seq += skipped - now
			}
		}
		now = next
	}
	switch {
	case warming && (last || s.cancelled):
		// The application retired, or its run was cancelled, inside the
		// warmup budget: the boundary is the end of the run and the
		// measured window is empty.
		s.warmupReset(now)
		for i := range actors {
			actors[i].lastSeq = seq - 1
		}
	case warming:
		// Every issue while warming is followed by a boundary check, so
		// the kernel spent less than the budget.
		s.warmLeft -= issuedTotal
	}
	for _, a := range actors {
		if a.selfAccounted {
			// Settled by RunAhead through its due cycle, which is at or
			// past the end of the run.
			continue
		}
		if gap := seq - a.lastSeq - 1; gap > 0 {
			a.sm.AccrueStoreStalls(gap)
		}
	}
	s.engSched += sched + timers.ScheduledTotal() - pollSched - obsSched
	s.engFired += fired + timers.FiredTotal() - pollFired - obsFired
	return now
}

// timerEngine returns the timer engine, reset to start.
func (s *Simulator) timerEngine(start int64) *engine.Engine {
	if s.timers == nil {
		s.timers = engine.New(start)
	} else {
		s.timers.Reset(start)
	}
	return s.timers
}

// wakeArray returns s.wakeAt sized for the loaded SMs, with no wake
// parked.
func (s *Simulator) wakeArray() []int64 {
	n := len(s.sms)
	if cap(s.wakeAt) < n {
		s.wakeAt = make([]int64, n)
	}
	s.wakeAt = s.wakeAt[:n]
	for i := range s.wakeAt {
		s.wakeAt[i] = math.MaxInt64
	}
	return s.wakeAt
}

// warmupReset applies the warmup boundary at cycle now: retention scans
// due strictly before the boundary land in the warmup window, then every
// statistic resets in place while cache contents and timing state are
// kept.
func (s *Simulator) warmupReset(now int64) {
	s.warmLeft, s.boundary, s.retired = 0, now, Result{}
	for _, sm := range s.sms {
		sm.ResetStats()
	}
	for b := range s.tiers {
		s.warmupResetBank(b, now)
	}
	if s.adapt != nil {
		s.adapt.rebase()
	}
	if rec := s.opts.Recording; rec != nil {
		rec.WarmupIndex = len(rec.Records)
		rec.WarmupCycle = now
	}
}

// warmupResetBank applies the warmup boundary to bank b's tier chain
// alone. Banks share no state, so a replay resets each bank where its
// own stream crosses the boundary.
func (s *Simulator) warmupResetBank(b int, now int64) {
	for _, t := range s.tiers[b] {
		t.Tick(now - 1)
		t.ResetStats()
		t.RebaseRewriteClock(now)
	}
}

// cancellable reports whether this run carries a context that can
// actually be cancelled. context.Background and TODO have a nil Done
// channel; runs under them schedule no poll event at all, so Run and
// RunContext(context.Background()) execute the identical event sequence.
func (s *Simulator) cancellable() bool {
	return s.ctx != nil && s.ctx.Done() != nil
}

// defaultCancelPollCycles paces the cancellation poll when no bank has
// periodic bookkeeping (SRAM baselines): at 700MHz this is a check
// roughly every 94µs of simulated time.
const defaultCancelPollCycles = 65536

// cancelPollPeriod is the cancellation-check cadence: the fastest bank
// retention tick, or defaultCancelPollCycles when no bank ticks.
func (s *Simulator) cancelPollPeriod() int64 {
	p := int64(0)
	for _, b := range s.flat {
		if tp := b.TickPeriod(); tp > 0 && (p == 0 || tp < p) {
			p = tp
		}
	}
	if p == 0 {
		p = defaultCancelPollCycles
	}
	return p
}

// auditBank runs the configured invariant check against one bank,
// turning a violation into a panic at the cycle it was detected.
func (s *Simulator) auditBank(bi int, b core.Bank, now int64) {
	if s.check == nil {
		return
	}
	if err := s.check(bi, b, now); err != nil {
		panic(fmt.Sprintf("sim: bank %d invariant violated at cycle %d: %v", bi, now, err))
	}
}

// finalize drains the memory system at cycle end and reports the run.
// The rate metrics — cycles, IPC, the power window — cover the measured
// window [start, end]: the whole run, or a warmed-up run's part after
// its boundary. Replays of warmed recordings go through the same code,
// which is what keeps their dumps byte-identical to the recording run's.
func (s *Simulator) finalize(start, end int64) Result {
	p := &s.retired
	r := Result{
		Config:        s.cfg.Name,
		Benchmark:     s.app.Name,
		Cycles:        end - start,
		Instructions:  p.Instructions,
		ResidentWarps: s.resident,
		L1:            p.L1,
		Const:         p.Const,
		Tex:           p.Tex,
		SM:            p.SM,
	}
	r.Bank.RewriteIntervals = core.NewRewriteHistogram()
	s.addSMStats(&r)
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	r.Seconds = float64(r.Cycles) / s.cfg.ClockHz

	// Drain each chain top-down so an upper tier's final writebacks land
	// in the tier below before that one drains in turn.
	fi := 0
	for _, chain := range s.tiers {
		for _, t := range chain {
			t.Tick(end)
			t.Drain(end)
			s.auditBank(fi, t, end)
			fi++
		}
		mergeBankStats(&r.Bank, chain[0].Stats())
	}
	if len(s.hier) > 1 {
		r.Tiers = s.tierResults()
	}
	r.Power = power.FromBanks(s.flat, r.Seconds)
	r.DynamicEnergyJ = r.Power.DynamicEnergyJ()
	r.DynamicPowerW = r.Power.DynamicW()
	r.LeakagePowerW = r.Power.LeakageW
	r.TotalPowerW = r.Power.TotalW()
	return r
}

// addSMStats adds the loaded kernel's SM-side statistics to r.
func (s *Simulator) addSMStats(r *Result) {
	for _, sm := range s.sms {
		st := sm.Stats()
		r.Instructions += st.Instructions
		r.SM.Instructions += st.Instructions
		r.SM.ALU += st.ALU
		r.SM.Loads += st.Loads
		r.SM.Stores += st.Stores
		r.SM.ConstLoads += st.ConstLoads
		r.SM.TexLoads += st.TexLoads
		r.SM.L1WriteEvict += st.L1WriteEvict
		r.SM.StoreStalls += st.StoreStalls
		mergeCacheStats(&r.L1, sm.L1Stats())
		mergeCacheStats(&r.Const, sm.ConstStats())
		mergeCacheStats(&r.Tex, sm.TexStats())
	}
}

// tierResults rolls each hierarchy level up across the banks, appending
// a DRAM row so a dump shows where every access in the stack landed.
func (s *Simulator) tierResults() []TierResult {
	out := make([]TierResult, 0, len(s.hier)+1)
	for ti, t := range s.hier {
		tr := TierResult{Level: fmt.Sprintf("l%d", ti+2), Kind: string(t.Kind)}
		var hits uint64
		for _, chain := range s.tiers {
			st := chain[ti].Stats()
			tr.Reads += st.Reads
			tr.Writes += st.Writes
			hits += st.ReadHits + st.WriteHits
			tr.DynamicEnergyJ += chain[ti].Energy().Total()
			tr.LeakageW += chain[ti].LeakageWatts()
		}
		if total := tr.Reads + tr.Writes; total > 0 {
			tr.HitRate = float64(hits) / float64(total)
		}
		out = append(out, tr)
	}
	dr := TierResult{Level: "dram", Kind: "dram"}
	var rowHits, rowMisses uint64
	for _, mc := range s.mcs {
		dr.Reads += mc.Stats.Reads
		dr.Writes += mc.Stats.Writes
		rowHits += mc.Stats.RowHits
		rowMisses += mc.Stats.RowMisses
	}
	if total := rowHits + rowMisses; total > 0 {
		dr.HitRate = float64(rowHits) / float64(total)
	}
	return append(out, dr)
}

func mergeCacheStats(dst *cache.Stats, src cache.Stats) {
	dst.ReadHits += src.ReadHits
	dst.ReadMisses += src.ReadMisses
	dst.WriteHits += src.WriteHits
	dst.WriteMisses += src.WriteMisses
	dst.Fills += src.Fills
	dst.Evictions += src.Evictions
	dst.DirtyEvict += src.DirtyEvict
	dst.Invalidates += src.Invalidates
}

func mergeBankStats(dst, src *core.BankStats) {
	dst.Reads += src.Reads
	dst.Writes += src.Writes
	dst.ReadHits += src.ReadHits
	dst.WriteHits += src.WriteHits
	dst.LRReadHits += src.LRReadHits
	dst.LRWriteHits += src.LRWriteHits
	dst.LRWriteFills += src.LRWriteFills
	dst.HRReadHits += src.HRReadHits
	dst.HRWriteHits += src.HRWriteHits
	dst.HRWriteKept += src.HRWriteKept
	dst.HRWriteFills += src.HRWriteFills
	dst.MigrationsToLR += src.MigrationsToLR
	dst.EvictionsToHR += src.EvictionsToHR
	dst.Refreshes += src.Refreshes
	dst.LRExpiryDrops += src.LRExpiryDrops
	dst.HRExpiries += src.HRExpiries
	dst.OverflowWritebacks += src.OverflowWritebacks
	dst.DRAMFills += src.DRAMFills
	dst.DRAMWritebacks += src.DRAMWritebacks
	dst.ReconfigThreshold += src.ReconfigThreshold
	dst.ReconfigLRResize += src.ReconfigLRResize
	dst.ReconfigRetention += src.ReconfigRetention
	dst.ReconfigDemotions += src.ReconfigDemotions
	if src.RewriteIntervals != nil {
		for i, c := range src.RewriteIntervals.Counts {
			dst.RewriteIntervals.Counts[i] += c
		}
		dst.RewriteIntervals.Overflow += src.RewriteIntervals.Overflow
		dst.RewriteIntervals.N += src.RewriteIntervals.N
	}
}

// newReplaySimulator builds a Simulator whose memory system is live but
// whose SM side is a stub: replays drive Access directly from a record
// stream, so the workload spec only has to be valid, not meaningful.
func newReplaySimulator(cfg config.GPUConfig, name string) *Simulator {
	return New(cfg, workloads.Spec{
		Name: name, FootprintBytes: uint64(cfg.LineBytes), WWSBytes: uint64(cfg.LineBytes),
		RegsPerThread: 1, ThreadsPerBlock: 32, WarpsPerSM: 1, InstrPerWarp: 1, Grids: 1,
	}, Options{skipSMs: true})
}

// KernelResult summarizes one kernel launch within an application run.
// Its counts cover the kernel's part of the measured window: a warmed-up
// run's rows start at the warmup boundary, so a kernel that retired
// before it reports an empty window at its end cycle.
type KernelResult struct {
	Benchmark    string
	StartCycle   int64
	EndCycle     int64
	Instructions uint64
	IPC          float64
	// L2HitRate covers only this kernel's bank accesses.
	L2HitRate float64
}

// kernelRow is the row of the kernel just driven over [from, end), given
// the bank totals at from.
func (s *Simulator) kernelRow(name string, from, end int64, accBefore, hitBefore uint64) KernelResult {
	kr := KernelResult{Benchmark: name, StartCycle: from, EndCycle: end}
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
	return kr
}

// bankTotals snapshots the cumulative hit/access counters of the banks.
func (s *Simulator) bankTotals() (accesses, hits uint64) {
	for _, b := range s.banks {
		st := b.Stats()
		accesses += st.Reads + st.Writes
		hits += st.ReadHits + st.WriteHits
	}
	return accesses, hits
}

// AppResult is RunApp's outcome: the application's Result.
type AppResult struct {
	Final Result
}

// RunApp runs an application on a new simulator.
func RunApp(cfg config.GPUConfig, app workloads.App, opts Options) AppResult {
	s := new(Simulator)
	s.Reset(cfg, app, opts)
	return AppResult{Final: s.Run()}
}

// Record runs one benchmark on one configuration with Options.Recording
// set, returning the live Result alongside the Recording. The Result is
// exactly what New(cfg, spec, opts).Run() would have produced.
func Record(cfg config.GPUConfig, spec workloads.Spec, opts Options) (Result, *trace.Recording) {
	opts.Recording = new(trace.Recording)
	return New(cfg, spec, opts).Run(), opts.Recording
}
