// Package gpu models the compute side of the simulated GPU: streaming
// multiprocessors (SMs) that interleave warps to hide memory latency, the
// register-file occupancy limit that decides how many warps can be
// resident, and the per-SM L1 data cache with the GPU write policies of
// the paper's Fig. 1-b (write-evict for global data on hit, no-allocate
// on miss; write-back for local data).
//
// An SM issues at most one warp instruction per cycle from its pool of
// ready warps (loose round-robin). Loads block the issuing warp until the
// memory system answers; stores are fire-and-forget but consume one of a
// bounded pool of store credits, so sustained write streams eventually
// stall the SM — which is how slow L2 writes (the archival STT-RAM
// baseline) translate into lost IPC.
package gpu

import (
	"math"
	"math/bits"

	"sttllc/internal/cache"
)

// ThreadsPerWarp is the SIMT width (32 across all NVIDIA generations the
// paper discusses).
const ThreadsPerWarp = 32

// InstrKind classifies a warp instruction.
type InstrKind int

const (
	InstrALU InstrKind = iota
	InstrLoad
	InstrStore
)

// Space classifies a memory instruction's address space, mirroring the
// GPU memory hierarchy of the paper's Fig. 1-a: global and local data go
// through the L1 data cache; constant and texture data have dedicated
// per-SM read-only caches — all backed by the shared L2.
type Space uint8

const (
	SpaceGlobal Space = iota
	SpaceLocal
	SpaceConst
	SpaceTex
)

// String returns the space name.
func (sp Space) String() string {
	switch sp {
	case SpaceLocal:
		return "local"
	case SpaceConst:
		return "const"
	case SpaceTex:
		return "tex"
	default:
		return "global"
	}
}

// Instr is one warp-level instruction. Memory instructions carry the
// (already coalesced) line address and the address space it belongs to.
type Instr struct {
	Kind  InstrKind
	Addr  uint64
	Space Space
}

// Local reports whether the instruction touches thread-local data.
func (in Instr) Local() bool { return in.Space == SpaceLocal }

// WarpStream produces the instruction stream of one warp. Next returns
// the next instruction and false when the warp has retired.
type WarpStream interface {
	Next() (Instr, bool)
}

// KernelModel supplies per-warp instruction streams; warp indices are
// global across the GPU so streams can partition the address space.
type KernelModel interface {
	NewWarp(warpIndex int) WarpStream
}

// MemSystem is the SM's view of everything behind the L1: interconnect,
// L2 banks, DRAM. Access returns the cycle at which the request completes
// (data returned for loads, write acknowledged for stores). Calls are
// made in non-decreasing now order.
type MemSystem interface {
	Access(now int64, smID int, addr uint64, write bool) (done int64)
}

// Scheduler selects the warp-issue policy.
type Scheduler int

const (
	// RoundRobin issues from ready warps in loose round-robin order
	// (the interleaving the paper's GPU model assumes).
	RoundRobin Scheduler = iota
	// GTO (greedy-then-oldest) keeps issuing from the last warp until
	// it stalls, then falls back to the oldest ready warp — the
	// scheduler shown by Rogers et al. [MICRO'12, cited by the paper]
	// to improve intra-warp locality.
	GTO
)

// String returns the scheduler name.
func (s Scheduler) String() string {
	if s == GTO {
		return "GTO"
	}
	return "RoundRobin"
}

// SMConfig sizes one streaming multiprocessor.
type SMConfig struct {
	// MaxWarps is the scheduler's resident-warp limit (48 on Fermi).
	MaxWarps int
	// Registers is the per-SM register file capacity in 32-bit
	// registers; together with the kernel's RegsPerThread it bounds
	// occupancy.
	Registers int
	// L1 geometry (Table 2: 16KB, 4-way, 128B lines).
	L1Bytes     int
	L1Ways      int
	L1LineBytes int
	// L1HitLatency is the load-to-use latency of an L1 hit in cycles.
	L1HitLatency int64
	// Constant cache geometry (Table 2: 8KB, 128B lines).
	ConstBytes     int
	ConstWays      int
	ConstLineBytes int
	// Texture cache geometry (Table 2: 12KB, 64B lines).
	TexBytes     int
	TexWays      int
	TexLineBytes int
	// StoreCredits bounds outstanding stores per SM.
	StoreCredits int
	// Scheduler selects the warp-issue policy (default RoundRobin).
	Scheduler Scheduler
}

// DefaultSMConfig returns the GTX480-like SM of Table 2.
func DefaultSMConfig() SMConfig {
	return SMConfig{
		MaxWarps:       48,
		Registers:      32768,
		L1Bytes:        16 << 10,
		L1Ways:         4,
		L1LineBytes:    128,
		L1HitLatency:   20,
		ConstBytes:     8 << 10,
		ConstWays:      2,
		ConstLineBytes: 128,
		TexBytes:       12 << 10,
		TexWays:        3,
		TexLineBytes:   64,
		StoreCredits:   16,
	}
}

// ResidentWarps returns the warp occupancy for a kernel needing
// regsPerThread registers per thread and launching thread blocks of
// threadsPerBlock threads. Thread blocks are allocated to an SM as a
// unit, so occupancy is block-granular: a register-file bonus only helps
// when it fits one more whole block — the effect behind the paper's
// observation that some kernels gain nothing from C2's larger register
// file. The result is capped by the scheduler's warp limit and never
// below one block (a kernel that fits at all runs).
func ResidentWarps(cfg SMConfig, regsPerThread, threadsPerBlock int) int {
	if threadsPerBlock < ThreadsPerWarp {
		threadsPerBlock = ThreadsPerWarp
	}
	warpsPerBlock := threadsPerBlock / ThreadsPerWarp
	maxBlocks := cfg.MaxWarps / warpsPerBlock
	if regsPerThread > 0 {
		byRF := cfg.Registers / (regsPerThread * threadsPerBlock)
		if byRF < maxBlocks {
			maxBlocks = byRF
		}
	}
	if maxBlocks < 1 {
		maxBlocks = 1
	}
	n := maxBlocks * warpsPerBlock
	if n > cfg.MaxWarps {
		n = cfg.MaxWarps
	}
	if n < 1 {
		n = 1
	}
	return n
}

// warpCtx is one resident warp slot.
type warpCtx struct {
	stream  WarpStream
	wake    int64
	retired bool
	// pending holds a store that could not issue for lack of credits.
	pending  Instr
	hasPend  bool
	jobIndex int
}

// SMStats counts per-SM activity.
type SMStats struct {
	Instructions uint64
	ALU          uint64
	Loads        uint64
	Stores       uint64
	ConstLoads   uint64
	TexLoads     uint64
	L1WriteEvict uint64 // global store hits that evicted the L1 copy
	StoreStalls  uint64 // cycles a warp could not issue for lack of store credits
}

// SM is one streaming multiprocessor executing a window of warp jobs.
type SM struct {
	ID  int
	cfg SMConfig

	mem    MemSystem
	model  KernelModel
	l1     *cache.Cache
	ccache *cache.Cache // constant cache (read-only)
	tcache *cache.Cache // texture cache (read-only)

	warps      []warpCtx
	rr         int
	lastIssued int
	nextJob    int
	lastJob    int // exclusive

	credits   int
	creditRet []int64 // outstanding store completion times
	creditMin int64   // earliest entry in creditRet (MaxInt64 when empty)

	// Round-robin issue bookkeeping: every non-retired slot is either in
	// the ready mask (wake has passed) or in the sleep heap (wake in the
	// future), exactly once. Warp state mutates only inside Step, so the
	// mask cannot go stale between calls. Disabled (useMask=false) when
	// the slot count exceeds 64 or the scheduler is GTO.
	ready    uint64
	soon     uint64    // slots waking at maskTime+1 (merged on the next Step)
	maskTime int64     // cycle of the last stepMask call
	sleep    []sleeper // min-heap ordered by wake
	useMask  bool

	stats SMStats
}

// sleeper is a sleep-heap entry: a warp slot and the cycle it wakes.
type sleeper struct {
	wake int64
	slot int32
}

// NewSM builds an SM running jobs [firstJob, firstJob+numJobs) of the
// kernel with the given resident-warp count.
func NewSM(id int, cfg SMConfig, model KernelModel, mem MemSystem, resident, firstJob, numJobs int) *SM {
	s := &SM{ID: id}
	s.Reset(cfg, model, mem, resident, firstJob, numJobs)
	return s
}

// Reset reloads the SM with a new window of warp jobs, leaving it
// exactly as NewSM builds it: warp slots, credits, scheduler state and
// statistics start fresh and the caches are empty. Caches and slices
// whose geometry still fits are reused rather than reallocated.
func (s *SM) Reset(cfg SMConfig, model KernelModel, mem MemSystem, resident, firstJob, numJobs int) {
	if resident < 1 {
		resident = 1
	}
	if resident > numJobs {
		resident = numJobs
	}
	warps := s.warps[:0]
	if cap(warps) < resident {
		warps = make([]warpCtx, 0, resident)
	}
	warps = warps[:resident]
	clear(warps)
	*s = SM{
		ID:     s.ID,
		cfg:    cfg,
		mem:    mem,
		model:  model,
		l1:     smCache(s.l1, cfg.L1Bytes, cfg.L1Ways, cfg.L1LineBytes),
		ccache: smCache(s.ccache, cfg.ConstBytes, cfg.ConstWays, cfg.ConstLineBytes),
		tcache: smCache(s.tcache, cfg.TexBytes, cfg.TexWays, cfg.TexLineBytes),

		warps:      warps,
		lastIssued: -1,
		nextJob:    firstJob,
		lastJob:    firstJob + numJobs,
		credits:    cfg.StoreCredits,
		creditRet:  s.creditRet[:0],
		creditMin:  math.MaxInt64,
		sleep:      s.sleep[:0],
	}
	for i := range s.warps {
		s.activate(i)
	}
	s.useMask = len(s.warps) <= 64 && cfg.Scheduler == RoundRobin
	if s.useMask {
		s.maskTime = -1
		for i := range s.warps {
			if !s.warps[i].retired {
				s.ready |= 1 << uint(i)
			}
		}
	}
}

// smCache returns c emptied when it already has the geometry, or a new
// cache with it. Nothing SM-side reads per-line write counters,
// retention stamps, or wear — that bookkeeping belongs to the L2 banks —
// so SM caches skip its cost entirely.
func smCache(c *cache.Cache, bytes, ways, lineBytes int) *cache.Cache {
	if c != nil && c.CapacityBytes == bytes && c.Ways == ways && c.LineBytes == lineBytes {
		c.Reset()
		return c
	}
	c = cache.New(bytes, ways, lineBytes)
	c.DisableMetadata()
	return c
}

// activate loads the next warp job into slot i, or marks it retired.
func (s *SM) activate(i int) {
	if s.nextJob >= s.lastJob {
		s.warps[i].retired = true
		return
	}
	s.warps[i] = warpCtx{stream: s.model.NewWarp(s.nextJob), jobIndex: s.nextJob}
	s.nextJob++
}

// reclaimCredits returns store credits whose writes completed by now.
// The cached minimum makes the common nothing-due case one compare.
func (s *SM) reclaimCredits(now int64) {
	if s.creditMin > now {
		return
	}
	live := s.creditRet[:0]
	min := int64(math.MaxInt64)
	for _, t := range s.creditRet {
		if t > now {
			live = append(live, t)
			if t < min {
				min = t
			}
		} else {
			s.credits++
		}
	}
	s.creditRet = live
	s.creditMin = min
}

// Step lets the SM issue at most one warp instruction at cycle now and
// reports whether anything issued.
func (s *SM) Step(now int64) bool {
	s.reclaimCredits(now)
	if s.cfg.Scheduler == GTO {
		return s.stepGTO(now)
	}
	if s.useMask {
		return s.stepMask(now)
	}
	n := len(s.warps)
	i := s.rr
	for k := 0; k < n; k++ {
		// Hoisted not-ready rejection: skip sleeping and retired warps
		// without the tryIssue call (identical to its first check).
		if w := &s.warps[i]; !w.retired && w.wake <= now && s.tryIssue(now, i) {
			s.rr = i + 1
			if s.rr == n {
				s.rr = 0
			}
			return true
		}
		i++
		if i == n {
			i = 0
		}
	}
	return false
}

// stepMask is the round-robin scan over the ready mask. It visits exactly
// the slots the linear scan would call tryIssue on, in the same order:
// ready bits >= rr ascending, then ready bits < rr ascending. Snapshot
// masks are safe because tryIssue only mutates the slot it is given.
func (s *SM) stepMask(now int64) bool {
	if now != s.maskTime {
		// Time moved on: everything parked for "one cycle later" is now
		// due (wake was maskTime+1 <= now), as are expired sleepers.
		s.ready |= s.soon
		s.soon = 0
		s.maskTime = now
		for len(s.sleep) > 0 && s.sleep[0].wake <= now {
			s.ready |= 1 << uint(s.popSleep())
		}
	}
	start := uint(s.rr)
	m := s.ready &^ (1<<start - 1)
	for pass := 0; ; pass++ {
		for m != 0 {
			i := bits.TrailingZeros64(m)
			m &= m - 1
			if s.tryIssue(now, i) {
				if w := &s.warps[i]; w.wake > now {
					s.ready &^= 1 << uint(i)
					if w.wake == now+1 {
						s.soon |= 1 << uint(i)
					} else {
						s.pushSleep(w.wake, int32(i))
					}
				}
				s.rr = i + 1
				if s.rr == len(s.warps) {
					s.rr = 0
				}
				return true
			}
			// Failed issue: a retired slot leaves the circuit; a
			// credit-stalled or freshly activated slot stays ready.
			if s.warps[i].retired {
				s.ready &^= 1 << uint(i)
			}
		}
		if pass == 1 {
			return false
		}
		m = s.ready & (1<<start - 1)
	}
}

// RunAhead advances the SM alone through cycles [from, limit), committing
// only cycles that provably match the reference scan and touch no shared
// state: the round-robin-first ready warp issues an ALU instruction with
// no preceding side effect. It returns the first cycle it could not
// commit — the caller must run the SM normally at that cycle.
//
// The probe either commits a whole cycle or leaves it untouched. A fetched
// memory instruction is stashed in the warp's pending slot (turning the
// destructive fetch into a peek — tryIssue consumes pending first), an
// exhausted stream is left for the real step to re-fetch and activate
// (Next is idempotent past exhaustion), and a warp that already holds a
// pending instruction stops the batch before any store-stall accounting
// could be owed. Credit reclaim is deferred: no committed cycle reads or
// writes credits, and every real step reclaims before deciding anything.
func (s *SM) RunAhead(from, limit int64) int64 {
	if !s.useMask {
		return from
	}
	t := from
	for t < limit {
		if t != s.maskTime {
			s.ready |= s.soon
			s.soon = 0
			s.maskTime = t
			for len(s.sleep) > 0 && s.sleep[0].wake <= t {
				s.ready |= 1 << uint(s.popSleep())
			}
		}
		start := uint(s.rr)
		m := s.ready &^ (1<<start - 1)
		if m == 0 {
			m = s.ready & (1<<start - 1)
			if m == 0 {
				return t
			}
		}
		slot := bits.TrailingZeros64(m)
		w := &s.warps[slot]
		if w.hasPend {
			return t
		}
		instr, ok := w.stream.Next()
		if !ok {
			return t
		}
		if instr.Kind != InstrALU {
			w.pending, w.hasPend = instr, true
			return t
		}
		// Commit: the tryIssue/execute ALU path, inlined.
		s.stats.Instructions++
		s.stats.ALU++
		w.wake = t + 1
		s.lastIssued = slot
		s.ready &^= 1 << uint(slot)
		s.soon |= 1 << uint(slot)
		s.rr = slot + 1
		if s.rr == len(s.warps) {
			s.rr = 0
		}
		t++
	}
	return t
}

// pushSleep inserts a slot into the sleep heap.
func (s *SM) pushSleep(wake int64, slot int32) {
	s.sleep = append(s.sleep, sleeper{wake, slot})
	i := len(s.sleep) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.sleep[p].wake <= s.sleep[i].wake {
			break
		}
		s.sleep[p], s.sleep[i] = s.sleep[i], s.sleep[p]
		i = p
	}
}

// popSleep removes and returns the slot with the earliest wake.
func (s *SM) popSleep() int32 {
	slot := s.sleep[0].slot
	last := len(s.sleep) - 1
	s.sleep[0] = s.sleep[last]
	s.sleep = s.sleep[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		c := l
		if r := l + 1; r < last && s.sleep[r].wake < s.sleep[l].wake {
			c = r
		}
		if s.sleep[i].wake <= s.sleep[c].wake {
			break
		}
		s.sleep[i], s.sleep[c] = s.sleep[c], s.sleep[i]
		i = c
	}
	return slot
}

// stepGTO implements greedy-then-oldest issue: stay with the last-issued
// warp while it is ready; otherwise pick the ready warp running the
// oldest job.
func (s *SM) stepGTO(now int64) bool {
	var visited uint64
	if s.lastIssued >= 0 {
		if w := &s.warps[s.lastIssued]; !w.retired && w.wake <= now && s.tryIssue(now, s.lastIssued) {
			return true
		}
		visited |= 1 << uint(s.lastIssued)
	}
	for {
		best, bestJob := -1, int(^uint(0)>>1)
		for i := range s.warps {
			if visited&(1<<uint(i)) != 0 {
				continue
			}
			w := &s.warps[i]
			if w.retired || w.wake > now {
				continue
			}
			if w.jobIndex < bestJob {
				best, bestJob = i, w.jobIndex
			}
		}
		if best < 0 {
			return false
		}
		visited |= 1 << uint(best)
		if s.tryIssue(now, best) {
			return true
		}
	}
}

// tryIssue attempts to issue one instruction from warp slot i. The
// caller has already established the slot is awake and not retired; it
// returns false when the slot still cannot issue this cycle (stream
// exhausted, or stalled on store credits).
func (s *SM) tryIssue(now int64, i int) bool {
	w := &s.warps[i]
	instr, ok := w.pending, w.hasPend
	if !ok {
		instr, ok = w.stream.Next()
		if !ok {
			s.activate(i)
			// The fresh warp (if any) may issue on a later cycle;
			// don't double-issue this cycle.
			return false
		}
	}
	if instr.Kind == InstrStore && s.credits == 0 {
		// Stalled on store bandwidth; remember the instruction and
		// let another warp try.
		w.pending, w.hasPend = instr, true
		s.stats.StoreStalls++
		return false
	}
	w.hasPend = false
	s.execute(now, w, instr)
	s.lastIssued = i
	return true
}

// execute performs one instruction for warp w at cycle now.
func (s *SM) execute(now int64, w *warpCtx, in Instr) {
	s.stats.Instructions++
	switch in.Kind {
	case InstrALU:
		s.stats.ALU++
		w.wake = now + 1
	case InstrLoad:
		s.stats.Loads++
		switch in.Space {
		case SpaceConst:
			s.stats.ConstLoads++
			w.wake = s.readOnlyLoad(now, s.ccache, in.Addr)
			return
		case SpaceTex:
			s.stats.TexLoads++
			w.wake = s.readOnlyLoad(now, s.tcache, in.Addr)
			return
		}
		if s.l1.Access(in.Addr, false, now) {
			w.wake = now + s.cfg.L1HitLatency
			return
		}
		done := s.mem.Access(now, s.ID, in.Addr, false)
		s.fillL1(now, in.Addr)
		w.wake = done
	case InstrStore:
		s.stats.Stores++
		done := s.storeToMem(now, in)
		s.credits--
		s.creditRet = append(s.creditRet, done)
		if done < s.creditMin {
			s.creditMin = done
		}
		w.wake = now + 1 // stores do not block the warp
	}
}

// storeToMem applies the Fig. 1-b write policy and returns the cycle the
// L2-bound write (if any) completes. Local stores that hit in L1 complete
// immediately.
func (s *SM) storeToMem(now int64, in Instr) int64 {
	if in.Local() {
		// Local data: write-back, write-allocate in L1.
		if set, way, hit := s.l1.Probe(in.Addr); hit {
			s.l1.AccessAt(set, way, true, now)
			return now + 1
		}
		s.l1.Stats.WriteMisses++
		if ev, evicted := s.l1.Fill(in.Addr, true, now); evicted && ev.Dirty {
			return s.mem.Access(now, s.ID, ev.Addr, true)
		}
		return now + 1
	}
	// Global data: write-evict on hit, write-no-allocate on miss, and
	// the store itself goes through to L2 either way.
	if _, found := s.l1.Invalidate(in.Addr); found {
		s.stats.L1WriteEvict++
	}
	return s.mem.Access(now, s.ID, in.Addr, true)
}

// readOnlyLoad serves a constant or texture fetch from its dedicated
// read-only cache, going to the L2 on a miss. Read-only caches never
// hold dirty data, so fills simply drop the victim.
func (s *SM) readOnlyLoad(now int64, c *cache.Cache, addr uint64) int64 {
	if c.Access(addr, false, now) {
		return now + s.cfg.L1HitLatency
	}
	done := s.mem.Access(now, s.ID, addr, false)
	c.Fill(addr, false, now)
	return done
}

// fillL1 installs a loaded line, writing back any dirty local victim.
func (s *SM) fillL1(now int64, addr uint64) {
	if ev, evicted := s.l1.Fill(addr, false, now); evicted && ev.Dirty {
		s.mem.Access(now, s.ID, ev.Addr, true)
	}
}

// NextWake returns the earliest cycle after now at which the SM could
// make progress, or math.MaxInt64 when it is finished.
func (s *SM) NextWake(now int64) int64 {
	min := int64(math.MaxInt64)
	anyStalled := false
	for i := range s.warps {
		w := &s.warps[i]
		if w.retired {
			continue
		}
		if w.hasPend && s.credits == 0 {
			// A credit-stalled store can only proceed when an
			// outstanding store completes; its own wake time is
			// irrelevant.
			anyStalled = true
			continue
		}
		if w.wake < min {
			min = w.wake
		}
	}
	if anyStalled {
		for _, t := range s.creditRet {
			if t < min {
				min = t
			}
		}
	}
	if min <= now && min != int64(math.MaxInt64) {
		return now + 1
	}
	return min
}

// AccrueStoreStalls settles the store-stall statistic for cycles the
// simulation loop visited while this SM slept. A per-cycle loop reaches
// a credit-blocked SM every visited cycle and charges one stall per
// pending store warp per attempt; an event-driven loop skips those
// no-op attempts entirely and charges the identical amount here when
// the SM next steps. Warp and credit state are frozen while an SM
// sleeps (nothing mutates them outside Step), so today's pending-warp
// count is exact for every skipped cycle.
func (s *SM) AccrueStoreStalls(cycles int64) {
	if cycles <= 0 || s.credits != 0 {
		return
	}
	blocked := uint64(0)
	for i := range s.warps {
		w := &s.warps[i]
		if !w.retired && w.hasPend {
			blocked++
		}
	}
	s.stats.StoreStalls += blocked * uint64(cycles)
}

// Done reports whether every warp job has retired.
func (s *SM) Done() bool {
	for i := range s.warps {
		if !s.warps[i].retired {
			return false
		}
	}
	return s.nextJob >= s.lastJob
}

// Stats returns the SM's counters.
func (s *SM) Stats() SMStats { return s.stats }

// ResetStats zeroes the SM's counters and its caches' statistics while
// keeping warp and cache state (the warmup boundary).
func (s *SM) ResetStats() {
	s.stats = SMStats{}
	s.l1.Stats = cache.Stats{}
	s.ccache.Stats = cache.Stats{}
	s.tcache.Stats = cache.Stats{}
}

// L1Stats returns the L1 cache statistics.
func (s *SM) L1Stats() cache.Stats { return s.l1.Stats }

// ConstStats and TexStats return the read-only caches' statistics.
func (s *SM) ConstStats() cache.Stats { return s.ccache.Stats }
func (s *SM) TexStats() cache.Stats   { return s.tcache.Stats }

// ResidentWarpCount returns the number of warp slots.
func (s *SM) ResidentWarpCount() int { return len(s.warps) }
