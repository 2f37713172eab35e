package refmodel

import (
	"fmt"
	"time"

	"sttllc/internal/core"
	"sttllc/internal/sttram"
)

// Bank is the simulation surface a reference organization exposes to
// the differential harness: the same contract as core.Bank, minus the
// instrumentation hooks.
type Bank interface {
	Access(now int64, addr uint64, write bool) (done int64, hit bool)
	Tick(now int64)
	Drain(now int64)
	Stats() *core.BankStats
	Energy() *core.Energy
	RebaseRewriteClock(boundary int64)
}

// ---- Timing and energy arithmetic, transcribed from the spec ----
//
// These constants and formulas restate DESIGN.md §1's timing model
// independently of internal/core; the differential tests are what tie
// the two transcriptions together.

// pipelineCycles is the array cycle time; writes additionally occupy
// their subarray for the part of the write latency exceeding a read.
const pipelineCycles = 2

// bufferInsertCycles is the foreground cost of handing a block to a
// swap buffer.
const bufferInsertCycles = 1

// subArrays is the number of independently occupied subarrays per data
// array.
const subArrays = 4

// rcEnergy is the cost of updating one retention counter: 0.05 pJ.
const rcEnergy = 0.05e-12

// cyclesOf converts a duration to cycles, rounding up, minimum 1.
func cyclesOf(d time.Duration, clockHz float64) int64 {
	c := int64(float64(d) * clockHz / float64(time.Second))
	if float64(c)*float64(time.Second)/clockHz < float64(d) {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}

// usOf converts cycles to microseconds, rounding once.
func usOf(cycles int64, clockHz float64) float64 {
	return float64(cycles) * 1e6 / clockHz
}

// writeOccupancy is the subarray occupancy of one write pulse.
func writeOccupancy(readCy, writeCy int64) int64 {
	occ := pipelineCycles + (writeCy - readCy)
	if occ < pipelineCycles {
		occ = pipelineCycles
	}
	return occ
}

// tagBits is the width of one tag probe (all ways of a set, with 2
// state bits per way).
func tagBits(capacity, ways, lineBytes, addrBits int) int {
	sets := capacity / (ways * lineBytes)
	setBits := int(log2of(sets))
	offBits := int(log2of(lineBytes))
	return (addrBits - setBits - offBits + 2) * ways
}

func tagEnergy(bits int) float64 {
	return sttram.SRAMCell().ReadEnergyPerBit * float64(bits)
}

// ports serializes accesses on each of the four subarrays of one data
// array.
type ports [subArrays]int64

func (p *ports) acquire(addr uint64, lineBytes int, at, occ int64) int64 {
	i := (addr / uint64(lineBytes)) % subArrays
	start := at
	if p[i] > start {
		start = p[i]
	}
	p[i] = start + occ
	return start
}

// refSlot is one swap-buffer entry: the cycle its slot was granted and
// the cycle its background drain completes.
type refSlot struct {
	grant, done int64
}

// refSwapBuffer is the reference swap buffer. Unlike the optimized
// model it keeps every grant explicitly, so it can assert the paper's
// constraint — at most capacity blocks ever hold slots at once —
// directly on itself.
type refSwapBuffer struct {
	capacity int
	slots    []refSlot // grant order == completion order
	nextFree int64     // background port availability of the target array
}

func (b *refSwapBuffer) prune(now int64) {
	live := b.slots[:0]
	for _, s := range b.slots {
		if s.done > now {
			live = append(live, s)
		}
	}
	b.slots = live
}

// tryEnqueue takes a slot only if one is free at cycle now.
func (b *refSwapBuffer) tryEnqueue(now, serviceCycles int64) bool {
	b.prune(now)
	if len(b.slots) >= b.capacity {
		return false
	}
	b.insert(now, serviceCycles)
	return true
}

// enqueue takes a slot with backpressure: when all slots are held, the
// request waits for the oldest entry whose completion frees a slot not
// already promised to an earlier queued request.
func (b *refSwapBuffer) enqueue(now, serviceCycles int64) int64 {
	b.prune(now)
	grant := now
	if occ := len(b.slots); occ >= b.capacity {
		grant = b.slots[occ-b.capacity].done
	}
	b.insert(grant, serviceCycles)
	return grant
}

func (b *refSwapBuffer) insert(grant, serviceCycles int64) {
	// Self-check: at the grant cycle, the entries holding slots are
	// those already granted and not yet drained; there must be room.
	held := 0
	for _, s := range b.slots {
		if s.grant <= grant && s.done > grant {
			held++
		}
	}
	if held >= b.capacity {
		panic(fmt.Sprintf("refmodel: swap buffer over capacity: %d slots held at grant cycle %d (capacity %d)",
			held, grant, b.capacity))
	}
	start := grant
	if b.nextFree > start {
		start = b.nextFree
	}
	done := start + serviceCycles
	b.nextFree = done
	b.slots = append(b.slots, refSlot{grant: grant, done: done})
}

// writeback sends a dirty line to the tier's backing store (DRAM, or
// the next reference tier down a chained stack).
func writeback(mc core.Backing, now int64, addr uint64, s *core.BankStats) {
	mc.Access(now, addr, true)
	s.DRAMWritebacks++
}

// refBacking adapts a reference bank into the backing-store contract,
// mirroring core.AsBacking: reference tiers chain exactly like the
// optimized ones, with the hit flag dropped at the seam.
type refBacking struct{ b Bank }

func (l refBacking) Access(now int64, addr uint64, write bool) int64 {
	done, _ := l.b.Access(now, addr, write)
	return done
}

// AsBacking wraps a reference bank so another reference tier can stack
// on top of it.
func AsBacking(b Bank) core.Backing { return refBacking{b} }

// ---- Reference two-part bank ----

// RefTwoPart is the reference model of the paper's two-part LR/HR bank.
type RefTwoPart struct {
	cfg core.TwoPartConfig
	lr  *refCache
	hr  *refCache
	mc  core.Backing

	lrReadCy, lrWriteCy int64
	hrReadCy, hrWriteCy int64
	lrReadE, lrWriteE   float64
	hrReadE, hrWriteE   float64
	lrTagE, hrTagE      float64
	bufE                float64

	lrRetCy, hrRetCy   int64
	lrTickCy, hrTickCy int64
	lastLRScan         int64
	lastHRScan         int64

	threshold uint8

	// hrCell is the currently installed HR cell (cfg.HRCell until a
	// SetHRRetention transition switches tiers), mirroring the optimized
	// bank's reconfiguration state.
	hrCell sttram.Cell

	hr2lr *refSwapBuffer
	lr2hr *refSwapBuffer

	frontNextFree int64
	lrPorts       ports
	hrPorts       ports
	msh           map[uint64]int64 // block addr -> fill completion cycle

	lrWriteOcc int64
	hrWriteOcc int64

	// rewriteFloor mirrors TwoPartBank.rewriteFloor: first-write
	// timestamps below it contribute no rewrite-interval sample.
	rewriteFloor int64

	stats  core.BankStats
	energy core.Energy
}

// NewTwoPart builds the reference two-part bank for the given
// (normalized or not) configuration.
func NewTwoPart(cfg core.TwoPartConfig, mc core.Backing) *RefTwoPart {
	cfg = cfg.Normalized()
	b := &RefTwoPart{
		cfg:       cfg,
		lr:        newRefCache(cfg.LRBytes, cfg.LRWays, cfg.LineBytes),
		hr:        newRefCache(cfg.HRBytes, cfg.HRWays, cfg.LineBytes),
		mc:        mc,
		lrReadCy:  cyclesOf(cfg.LRCell.ReadLatency, cfg.ClockHz),
		lrWriteCy: cyclesOf(cfg.LRCell.WriteLatency, cfg.ClockHz),
		hrReadCy:  cyclesOf(cfg.HRCell.ReadLatency, cfg.ClockHz),
		hrWriteCy: cyclesOf(cfg.HRCell.WriteLatency, cfg.ClockHz),
		lrReadE:   cfg.LRCell.EnergyPerBlock(cfg.LineBytes, false),
		lrWriteE:  cfg.LRCell.EnergyPerBlock(cfg.LineBytes, true),
		hrReadE:   cfg.HRCell.EnergyPerBlock(cfg.LineBytes, false),
		hrWriteE:  cfg.HRCell.EnergyPerBlock(cfg.LineBytes, true),
		lrTagE:    tagEnergy(tagBits(cfg.LRBytes, cfg.LRWays, cfg.LineBytes, cfg.AddrBits)),
		hrTagE:    tagEnergy(tagBits(cfg.HRBytes, cfg.HRWays, cfg.LineBytes, cfg.AddrBits)),
		bufE:      sttram.SRAMCell().EnergyPerBlock(cfg.LineBytes, true),
		hr2lr:     &refSwapBuffer{capacity: cfg.BufferBlocks},
		lr2hr:     &refSwapBuffer{capacity: cfg.BufferBlocks},
		msh:       map[uint64]int64{},
		threshold: cfg.WriteThreshold,
		hrCell:    cfg.HRCell,
	}
	b.lrWriteOcc = writeOccupancy(b.lrReadCy, b.lrWriteCy)
	b.hrWriteOcc = writeOccupancy(b.hrReadCy, b.hrWriteCy)
	b.lrRetCy = cyclesOf(cfg.LRCell.Retention, cfg.ClockHz)
	b.hrRetCy = cyclesOf(cfg.HRCell.Retention, cfg.ClockHz)
	b.lrTickCy = b.lrRetCy >> uint(cfg.LRCounterBits)
	b.hrTickCy = b.hrRetCy >> uint(cfg.HRCounterBits)
	if b.lrTickCy < 1 {
		b.lrTickCy = 1
	}
	if b.hrTickCy < 1 {
		b.hrTickCy = 1
	}
	b.stats.RewriteIntervals = core.NewRewriteHistogram()
	return b
}

// frontStart serializes request entry (one per cycle).
func (b *RefTwoPart) frontStart(now int64) int64 {
	start := now
	if b.frontNextFree > start {
		start = b.frontNextFree
	}
	b.frontNextFree = start + 1
	return start
}

// probeCost charges tag energy for the given number of sequential tag
// probes (or both arrays at once under ParallelSearch) and returns the
// probe latency.
func (b *RefTwoPart) probeCost(probes int) int64 {
	if b.cfg.ParallelSearch {
		b.energy.TagAccess += b.lrTagE + b.hrTagE
		return b.cfg.TagLatencyCycles
	}
	if probes >= 2 {
		b.energy.TagAccess += b.lrTagE + b.hrTagE
	} else {
		b.energy.TagAccess += b.lrTagE
	}
	return int64(probes) * b.cfg.TagLatencyCycles
}

// Access implements Bank.
func (b *RefTwoPart) Access(now int64, addr uint64, write bool) (int64, bool) {
	b.Tick(now)
	if write {
		b.stats.Writes++
		return b.accessWrite(now, addr)
	}
	b.stats.Reads++
	return b.accessRead(now, addr)
}

func (b *RefTwoPart) accessWrite(now int64, addr uint64) (int64, bool) {
	start := b.frontStart(now)

	// Writes search the LR part first.
	if set, way, hit := b.lr.probe(addr); hit {
		at := start + b.probeCost(1)
		if last := b.lr.lines[set][way].lastWrite; last >= b.rewriteFloor {
			b.stats.RewriteIntervals.Add(usOf(now-last, b.cfg.ClockHz))
		}
		b.lr.accessAt(set, way, true, now)
		b.stats.WriteHits++
		b.stats.LRWriteHits++
		b.energy.DataWrite += b.lrWriteE
		return b.lrPorts.acquire(addr, b.cfg.LineBytes, at, b.lrWriteOcc) + b.lrWriteCy, true
	}

	if set, way, hit := b.hr.probe(addr); hit {
		at := start + b.probeCost(2)
		b.hr.accessAt(set, way, true, now)
		b.stats.WriteHits++
		b.stats.HRWriteHits++
		if !b.cfg.DisableMigration && b.hr.lines[set][way].wrCount >= b.threshold {
			// Migrate HR -> LR through the swap buffer; the store is
			// acknowledged at the buffer handoff.
			slotAt := b.hr2lr.enqueue(now, b.lrWriteOcc)
			if slotAt > at {
				at = slotAt
			}
			b.hrPorts.acquire(addr, b.cfg.LineBytes, at, pipelineCycles)
			done := at + bufferInsertCycles
			ev := b.hr.invalidateWay(set, way)
			b.stats.MigrationsToLR++
			b.energy.Migration += b.hrReadE + b.lrWriteE
			b.energy.Buffer += b.bufE
			b.fillLR(now, ev.addr, true)
			return done, true
		}
		b.stats.HRWriteKept++
		b.energy.DataWrite += b.hrWriteE
		return b.hrPorts.acquire(addr, b.cfg.LineBytes, at, b.hrWriteOcc) + b.hrWriteCy, true
	}

	// Write miss: allocate without fetch.
	at := start + b.probeCost(2)
	if !b.cfg.DisableMigration && 1 >= b.threshold {
		slotAt := b.hr2lr.enqueue(now, b.lrWriteOcc)
		if slotAt > at {
			at = slotAt
		}
		done := at + bufferInsertCycles
		b.stats.LRWriteFills++
		b.energy.DataWrite += b.lrWriteE
		b.energy.Buffer += b.bufE
		b.fillLR(now, b.lr.blockAddr(addr), true)
		return done, false
	}
	b.stats.HRWriteFills++
	b.energy.DataWrite += b.hrWriteE
	done := b.hrPorts.acquire(addr, b.cfg.LineBytes, at, b.hrWriteOcc) + b.hrWriteCy
	if ev, evicted := b.hr.fill(addr, true, now); evicted && ev.dirty {
		b.energy.DataRead += b.hrReadE
		writeback(b.mc, now, ev.addr, &b.stats)
	}
	return done, false
}

func (b *RefTwoPart) accessRead(now int64, addr uint64) (int64, bool) {
	start := b.frontStart(now)

	// Reads search the HR part first.
	if set, way, hit := b.hr.probe(addr); hit {
		at := start + b.probeCost(1)
		b.hr.accessAt(set, way, false, now)
		b.stats.ReadHits++
		b.stats.HRReadHits++
		b.energy.DataRead += b.hrReadE
		return b.hrPorts.acquire(addr, b.cfg.LineBytes, at, pipelineCycles) + b.hrReadCy, true
	}
	if set, way, hit := b.lr.probe(addr); hit {
		at := start + b.probeCost(2)
		b.lr.accessAt(set, way, false, now)
		b.stats.ReadHits++
		b.stats.LRReadHits++
		b.energy.DataRead += b.lrReadE
		return b.lrPorts.acquire(addr, b.cfg.LineBytes, at, pipelineCycles) + b.lrReadCy, true
	}

	// Read miss: fetch from DRAM into HR; merge onto in-flight fills.
	at := start + b.probeCost(2)
	blk := b.hr.blockAddr(addr)
	if fillDone, ok := b.msh[blk]; ok {
		if fillDone > at {
			return fillDone + b.hrReadCy, false
		}
		delete(b.msh, blk) // completed fill: behaves as absent
	}
	dramDone := b.mc.Access(at, addr, false)
	b.msh[blk] = dramDone
	b.stats.DRAMFills++
	b.energy.DataWrite += b.hrWriteE
	if ev, evicted := b.hr.fill(addr, false, now); evicted && ev.dirty {
		b.energy.DataRead += b.hrReadE
		writeback(b.mc, now, ev.addr, &b.stats)
	}
	return dramDone + b.hrReadCy, false
}

// fillLR installs a block into LR, returning any victim to HR.
func (b *RefTwoPart) fillLR(now int64, addr uint64, dirty bool) {
	ev, evicted := b.lr.fill(addr, dirty, now)
	if !evicted {
		return
	}
	b.returnToHR(now, ev)
}

// returnToHR moves an LR victim back into HR through the LR->HR buffer,
// or forces it out to DRAM when the buffer is full.
func (b *RefTwoPart) returnToHR(now int64, ev refEvicted) {
	if !b.lr2hr.tryEnqueue(now, b.hrWriteOcc) {
		if ev.dirty {
			writeback(b.mc, now, ev.addr, &b.stats)
			b.stats.OverflowWritebacks++
		}
		return
	}
	b.stats.EvictionsToHR++
	b.energy.Migration += b.lrReadE + b.hrWriteE
	b.energy.Buffer += b.bufE
	if hrEv, evicted := b.hr.fill(ev.addr, ev.dirty, now); evicted && hrEv.dirty {
		b.energy.DataRead += b.hrReadE
		writeback(b.mc, now, hrEv.addr, &b.stats)
	}
}

// Tick advances retention bookkeeping: due scans run merged in
// boundary-time order, LR before HR on ties.
func (b *RefTwoPart) Tick(now int64) {
	for {
		nextLR := b.lastLRScan + b.lrTickCy
		nextHR := b.lastHRScan + b.hrTickCy
		if nextLR > now && nextHR > now {
			return
		}
		if nextLR <= nextHR {
			b.lastLRScan = nextLR
			b.scanLR(nextLR)
		} else {
			b.lastHRScan = nextHR
			b.scanHR(nextHR)
		}
	}
}

// scanLR is the full-array LR retention scan: a line is due in the last
// counter window before its retention boundary; due lines refresh
// through the LR->HR buffer or, when the buffer is full, are dropped
// (dirty drops are forced to DRAM).
func (b *RefTwoPart) scanLR(now int64) {
	b.energy.RCCounters += rcEnergy * float64(b.lr.validLines())
	var refresh, drop [][2]int
	for set := range b.lr.lines {
		for way := range b.lr.lines[set] {
			l := &b.lr.lines[set][way]
			if !l.valid {
				continue
			}
			if now-l.retStamp >= b.lrRetCy-b.lrTickCy {
				if b.lr2hr.tryEnqueue(now, b.lrWriteOcc) {
					refresh = append(refresh, [2]int{set, way})
				} else {
					drop = append(drop, [2]int{set, way})
				}
			}
		}
	}
	for _, sw := range refresh {
		b.lr.lines[sw[0]][sw[1]].retStamp = now
		b.stats.Refreshes++
		b.energy.Refresh += b.lrReadE + b.lrWriteE
		b.energy.Buffer += b.bufE
	}
	for _, sw := range drop {
		ev := b.lr.invalidateWay(sw[0], sw[1])
		if ev.dirty {
			writeback(b.mc, now, ev.addr, &b.stats)
			b.stats.OverflowWritebacks++
		}
		b.stats.LRExpiryDrops++
	}
}

// scanHR is the full-array HR retention scan: lines past the HR
// retention are invalidated, dirty ones written back.
func (b *RefTwoPart) scanHR(now int64) {
	b.energy.RCCounters += rcEnergy * float64(b.hr.validLines())
	var expired [][2]int
	for set := range b.hr.lines {
		for way := range b.hr.lines[set] {
			l := &b.hr.lines[set][way]
			if !l.valid {
				continue
			}
			if now-l.retStamp >= b.hrRetCy {
				expired = append(expired, [2]int{set, way})
			}
		}
	}
	for _, sw := range expired {
		ev := b.hr.invalidateWay(sw[0], sw[1])
		if ev.dirty {
			writeback(b.mc, now, ev.addr, &b.stats)
		}
		b.stats.HRExpiries++
	}
}

// ---- Online reconfiguration (mirrors internal/core/reconfig.go) ----
//
// Each transition is a line-for-line transcription of the optimized
// bank's: pending scans first, then exactly one structural change, with
// displaced lines demoted through the ordinary paths in (set, way)
// order. The reference has no expiry wheel, so a retention switch needs
// no re-marking — but it must apply the same scan-clock realignment,
// or the two models' scan boundaries (and therefore every later expiry)
// diverge.

// SetWriteThreshold mirrors TwoPartBank.SetWriteThreshold.
func (b *RefTwoPart) SetWriteThreshold(now int64, th uint8) uint8 {
	b.Tick(now)
	if th < b.cfg.WriteThreshold {
		th = b.cfg.WriteThreshold
	}
	if th > 15 {
		th = 15
	}
	if th == b.threshold {
		return th
	}
	b.threshold = th
	b.stats.ReconfigThreshold++
	return th
}

// SetLRActiveWays mirrors TwoPartBank.SetLRActiveWays.
func (b *RefTwoPart) SetLRActiveWays(now int64, n int) int {
	b.Tick(now)
	if n < 1 {
		n = 1
	}
	if n > b.cfg.LRWays {
		n = b.cfg.LRWays
	}
	cur := b.lr.activeWays
	if n == cur {
		return n
	}
	if n < cur {
		for set := 0; set < b.lr.sets; set++ {
			for way := n; way < cur; way++ {
				if !b.lr.lines[set][way].valid {
					continue
				}
				ev := b.lr.invalidateWay(set, way)
				b.returnToHR(now, ev)
				b.stats.ReconfigDemotions++
			}
		}
	}
	b.lr.activeWays = n
	b.stats.ReconfigLRResize++
	return n
}

// SetHRRetention mirrors TwoPartBank.SetHRRetention: run pending scans,
// recompute the HR cell's derived parameters, realign the HR scan clock
// to a multiple of the new counter window, and expire lines already
// over the new retention age.
func (b *RefTwoPart) SetHRRetention(now int64, ret time.Duration) time.Duration {
	b.Tick(now)
	if ret == b.hrCell.Retention {
		return ret
	}
	cell := sttram.NewCell(fmt.Sprintf("HR-%v", ret), ret)
	b.hrCell = cell
	b.hrReadCy = cyclesOf(cell.ReadLatency, b.cfg.ClockHz)
	b.hrWriteCy = cyclesOf(cell.WriteLatency, b.cfg.ClockHz)
	b.hrReadE = cell.EnergyPerBlock(b.cfg.LineBytes, false)
	b.hrWriteE = cell.EnergyPerBlock(b.cfg.LineBytes, true)
	b.hrWriteOcc = writeOccupancy(b.hrReadCy, b.hrWriteCy)
	b.hrRetCy = cyclesOf(cell.Retention, b.cfg.ClockHz)
	b.hrTickCy = b.hrRetCy >> uint(b.cfg.HRCounterBits)
	if b.hrTickCy < 1 {
		b.hrTickCy = 1
	}
	b.lastHRScan = now - now%b.hrTickCy
	var expired [][2]int
	for set := range b.hr.lines {
		for way := range b.hr.lines[set] {
			l := &b.hr.lines[set][way]
			if l.valid && now-l.retStamp >= b.hrRetCy {
				expired = append(expired, [2]int{set, way})
			}
		}
	}
	for _, sw := range expired {
		ev := b.hr.invalidateWay(sw[0], sw[1])
		if ev.dirty {
			writeback(b.mc, now, ev.addr, &b.stats)
		}
		b.stats.HRExpiries++
	}
	b.stats.ReconfigRetention++
	return ret
}

// Drain implements Bank.
func (b *RefTwoPart) Drain(now int64) {
	b.lr.flushDirty(func(addr uint64) { writeback(b.mc, now, addr, &b.stats) })
	b.hr.flushDirty(func(addr uint64) { writeback(b.mc, now, addr, &b.stats) })
}

// RebaseRewriteClock mirrors TwoPartBank.RebaseRewriteClock.
func (b *RefTwoPart) RebaseRewriteClock(boundary int64) { b.rewriteFloor = boundary }

// Stats implements Bank.
func (b *RefTwoPart) Stats() *core.BankStats { return &b.stats }

// Energy implements Bank.
func (b *RefTwoPart) Energy() *core.Energy { return &b.energy }

// ---- Reference uniform bank ----

// RefUniform is the reference model of the conventional
// single-technology bank (the SRAM and archival STT-RAM baselines).
type RefUniform struct {
	cfg core.UniformConfig
	arr *refCache
	mc  core.Backing

	readCy, writeCy int64
	readE, writeE   float64
	tagE            float64

	front int64
	arr2  ports
	msh   map[uint64]int64

	// rewriteFloor mirrors UniformBank.rewriteFloor.
	rewriteFloor int64

	stats  core.BankStats
	energy core.Energy
}

// NewUniform builds the reference uniform bank.
func NewUniform(cfg core.UniformConfig, mc core.Backing) *RefUniform {
	if cfg.TagLatencyCycles <= 0 {
		cfg.TagLatencyCycles = 2
	}
	if cfg.AddrBits == 0 {
		cfg.AddrBits = 32
	}
	b := &RefUniform{
		cfg:     cfg,
		arr:     newRefCache(cfg.CapacityBytes, cfg.Ways, cfg.LineBytes),
		mc:      mc,
		readCy:  cyclesOf(cfg.Cell.ReadLatency, cfg.ClockHz),
		writeCy: cyclesOf(cfg.Cell.WriteLatency, cfg.ClockHz),
		readE:   cfg.Cell.EnergyPerBlock(cfg.LineBytes, false),
		writeE:  cfg.Cell.EnergyPerBlock(cfg.LineBytes, true),
		tagE:    tagEnergy(tagBits(cfg.CapacityBytes, cfg.Ways, cfg.LineBytes, cfg.AddrBits)),
		msh:     map[uint64]int64{},
	}
	b.stats.RewriteIntervals = core.NewRewriteHistogram()
	return b
}

// Access implements Bank.
func (b *RefUniform) Access(now int64, addr uint64, write bool) (int64, bool) {
	if write {
		b.stats.Writes++
	} else {
		b.stats.Reads++
	}
	start := now
	if b.front > start {
		start = b.front
	}
	b.front = start + 1
	at := start + b.cfg.TagLatencyCycles
	b.energy.TagAccess += b.tagE

	set, way, hit := b.arr.probe(addr)
	if hit {
		if write && b.arr.lines[set][way].dirty {
			if last := b.arr.lines[set][way].lastWrite; last >= b.rewriteFloor {
				b.stats.RewriteIntervals.Add(usOf(now-last, b.cfg.ClockHz))
			}
		}
		b.arr.accessAt(set, way, write, now)
		if write {
			b.stats.WriteHits++
			b.energy.DataWrite += b.writeE
			occ := writeOccupancy(b.readCy, b.writeCy)
			return b.arr2.acquire(addr, b.cfg.LineBytes, at, occ) + b.writeCy, true
		}
		b.stats.ReadHits++
		b.energy.DataRead += b.readE
		return b.arr2.acquire(addr, b.cfg.LineBytes, at, pipelineCycles) + b.readCy, true
	}

	if write {
		occ := writeOccupancy(b.readCy, b.writeCy)
		arrAt := b.arr2.acquire(addr, b.cfg.LineBytes, at, occ)
		b.fill(addr, true, now)
		b.energy.DataWrite += b.writeE
		return arrAt + b.writeCy, false
	}
	line := b.arr.blockAddr(addr)
	if fillDone, ok := b.msh[line]; ok {
		if fillDone > at {
			return fillDone + b.readCy, false
		}
		delete(b.msh, line)
	}
	dramDone := b.mc.Access(at, addr, false)
	b.msh[line] = dramDone
	b.stats.DRAMFills++
	b.fill(addr, false, now)
	b.energy.DataWrite += b.writeE
	return dramDone + b.readCy, false
}

func (b *RefUniform) fill(addr uint64, dirty bool, now int64) {
	if ev, evicted := b.arr.fill(addr, dirty, now); evicted && ev.dirty {
		b.energy.DataRead += b.readE
		writeback(b.mc, now, ev.addr, &b.stats)
	}
}

// Tick implements Bank: no retention bookkeeping.
func (b *RefUniform) Tick(int64) {}

// Drain implements Bank.
func (b *RefUniform) Drain(now int64) {
	b.arr.flushDirty(func(addr uint64) { writeback(b.mc, now, addr, &b.stats) })
}

// RebaseRewriteClock mirrors UniformBank.RebaseRewriteClock.
func (b *RefUniform) RebaseRewriteClock(boundary int64) { b.rewriteFloor = boundary }

// Stats implements Bank.
func (b *RefUniform) Stats() *core.BankStats { return &b.stats }

// Energy implements Bank.
func (b *RefUniform) Energy() *core.Energy { return &b.energy }
