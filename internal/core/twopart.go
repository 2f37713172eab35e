package core

import (
	"fmt"
	"math/bits"

	"sttllc/internal/cache"
	"sttllc/internal/dram"
	"sttllc/internal/sttram"
)

// TwoPartConfig describes the proposed LR/HR L2 bank organization.
type TwoPartConfig struct {
	// LR part: small, low-retention, write-friendly (e.g. 2-way).
	LRBytes int
	LRWays  int
	LRCell  sttram.Cell
	// HR part: large, relaxed-retention (e.g. 7-way).
	HRBytes int
	HRWays  int
	HRCell  sttram.Cell

	LineBytes int
	ClockHz   float64

	// TagLatencyCycles is the per-part SRAM tag-probe latency.
	TagLatencyCycles int64
	AddrBits         int

	// WriteThreshold is the saturating write-counter value at which an
	// HR-resident block migrates to LR. The paper settles on 1, which
	// reduces the monitor to the ordinary modified bit.
	WriteThreshold uint8
	// BufferBlocks is the capacity of each swap buffer. The paper
	// settles on buffers "to hold 2 cache lines", keeping the total
	// added SRAM (counters + buffers) under 6KB.
	BufferBlocks int
	// ParallelSearch probes both tag arrays at once: lower latency,
	// higher energy. The paper's design uses sequential search (reads
	// probe HR first, writes probe LR first).
	ParallelSearch bool
	// DisableMigration turns the WWS monitor off (ablation): blocks
	// never move between parts; writes allocate into HR.
	DisableMigration bool
	// LRCounterBits / HRCounterBits size the retention counters.
	// Defaults: 4 (LR, the paper's 16kHz counter) and 2 (HR).
	LRCounterBits int
	HRCounterBits int
	// Replacement selects the victim policy of both parts (default
	// LRU).
	Replacement cache.Policy
}

// Normalized returns the configuration with defaults applied, exactly
// as NewTwoPartBank will interpret it.
func (c TwoPartConfig) Normalized() TwoPartConfig {
	c.applyDefaults()
	return c
}

func (c *TwoPartConfig) applyDefaults() {
	if c.TagLatencyCycles <= 0 {
		c.TagLatencyCycles = 2
	}
	if c.AddrBits == 0 {
		c.AddrBits = 32
	}
	if c.WriteThreshold == 0 {
		c.WriteThreshold = 1
	}
	if c.BufferBlocks == 0 {
		c.BufferBlocks = 2
	}
	if c.LRCounterBits == 0 {
		c.LRCounterBits = 4
	}
	if c.HRCounterBits == 0 {
		c.HRCounterBits = 2
	}
}

// TwoPartBank is the proposed architecture (Fig. 7): two parallel cache
// structures with different retention times, swap buffers between them, a
// write-threshold monitor that captures the write working set in the LR
// part, retention counters with a buffered refresh path, and a cache
// search selector that orders tag probes by access type.
type TwoPartBank struct {
	cfg  TwoPartConfig
	lr   *cache.Cache
	hr   *cache.Cache
	back Backing
	mc   *dram.Controller // devirtualized fast path when back is concrete DRAM

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

	// threshold is the live write threshold: cfg.WriteThreshold unless
	// SetWriteThreshold (reconfig.go) has retuned it.
	threshold uint8

	// Online-reconfiguration state (see reconfig.go): the HR cell
	// currently installed (cfg.HRCell unless SetHRRetention switched
	// tiers) and whether an external controller owns the threshold.
	hrCell           sttram.Cell
	thresholdManaged bool

	// rewriteFloor excludes pre-warmup first-write timestamps from the
	// Fig. 6 rewrite-interval histogram: a line whose previous write
	// predates the floor contributes no sample (its interval straddles
	// the statistics reset and would land in an inflated bucket).
	rewriteFloor int64

	hr2lr *swapBuffer
	lr2hr *swapBuffer

	// Port model: requests enter through a shared front-end (one per
	// cycle); each part's data array then pipelines reads but is
	// occupied by write pulses independently of the other part — the
	// "two parallel structures" of Fig. 7.
	frontNextFree int64
	lrPorts       ports
	hrPorts       ports
	msh           *mshr

	lrWriteOcc int64
	hrWriteOcc int64

	// Scratch buffers for the retention scans, owned by the bank so the
	// steady-state tick path allocates nothing.
	scanRefresh [][2]int
	scanDrop    [][2]int

	stats  BankStats
	energy Energy
}

// NewTwoPartBank builds the proposed bank on top of the given backing
// store — the DRAM channel in the paper's two-level hierarchy, or a
// lower tier (via AsBacking) in a stacked one.
func NewTwoPartBank(cfg TwoPartConfig, back Backing) *TwoPartBank {
	cfg.applyDefaults()
	if cfg.ClockHz <= 0 {
		panic("core: ClockHz must be positive")
	}
	sram := sttram.SRAMCell()
	b := &TwoPartBank{
		cfg:       cfg,
		lr:        cache.New(cfg.LRBytes, cfg.LRWays, cfg.LineBytes),
		hr:        cache.New(cfg.HRBytes, cfg.HRWays, cfg.LineBytes),
		back:      back,
		lrReadCy:  cyclesOf(cfg.LRCell.ReadLatency, cfg.ClockHz),
		lrWriteCy: cyclesOf(cfg.LRCell.WriteLatency, cfg.ClockHz),
		hrReadCy:  cyclesOf(cfg.HRCell.ReadLatency, cfg.ClockHz),
		hrWriteCy: cyclesOf(cfg.HRCell.WriteLatency, cfg.ClockHz),
		lrReadE:   cfg.LRCell.EnergyPerBlock(cfg.LineBytes, false),
		lrWriteE:  cfg.LRCell.EnergyPerBlock(cfg.LineBytes, true),
		hrReadE:   cfg.HRCell.EnergyPerBlock(cfg.LineBytes, false),
		hrWriteE:  cfg.HRCell.EnergyPerBlock(cfg.LineBytes, true),
		lrTagE:    tagEnergy(tagBitsFor(cfg.LRBytes, cfg.LRWays, cfg.LineBytes, cfg.AddrBits)),
		hrTagE:    tagEnergy(tagBitsFor(cfg.HRBytes, cfg.HRWays, cfg.LineBytes, cfg.AddrBits)),
		bufE:      sram.EnergyPerBlock(cfg.LineBytes, true),
		hr2lr:     newSwapBuffer(cfg.BufferBlocks),
		lr2hr:     newSwapBuffer(cfg.BufferBlocks),
		msh:       newMSHR(),
	}
	b.mc, _ = back.(*dram.Controller)
	b.hrCell = cfg.HRCell
	b.lr.Policy = cfg.Replacement
	b.hr.Policy = cfg.Replacement
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
	// Incremental expiry: the wheel's lead is each scan's age threshold,
	// so a line is bucketed at exactly the boundary where the full scan
	// would have found it due.
	b.lr.EnableExpiryWheel(b.lrTickCy, b.lrRetCy-b.lrTickCy)
	b.hr.EnableExpiryWheel(b.hrTickCy, b.hrRetCy)
	b.threshold = cfg.WriteThreshold
	b.stats.RewriteIntervals = NewRewriteHistogram()
	return b
}

// Threshold returns the WWS monitor's current write threshold (equal to
// the configured value unless SetWriteThreshold has retuned it).
func (b *TwoPartBank) Threshold() uint8 { return b.threshold }

// Config returns the bank's configuration with defaults applied, as the
// constructor saw it. External verifiers (internal/refmodel) use it to
// build an equivalent reference bank and to bound retention windows.
func (b *TwoPartBank) Config() TwoPartConfig { return b.cfg }

// RetentionCycles returns the LR and HR retention windows in cycles.
func (b *TwoPartBank) RetentionCycles() (lr, hr int64) { return b.lrRetCy, b.hrRetCy }

// TickCycles returns the LR and HR retention-scan periods in cycles.
func (b *TwoPartBank) TickCycles() (lr, hr int64) { return b.lrTickCy, b.hrTickCy }

// SwapOccupancy returns how many entries each swap buffer still holds at
// cycle now (completed drains are pruned, reservations granted under
// backpressure are counted).
func (b *TwoPartBank) SwapOccupancy(now int64) (hr2lr, lr2hr int) {
	return b.hr2lr.occupancy(now), b.lr2hr.occupancy(now)
}

// CheckSwapBuffers verifies the structural invariants of both swap
// buffers at cycle now; see swapBuffer.check.
func (b *TwoPartBank) CheckSwapBuffers(now int64) error {
	if err := b.hr2lr.check(now); err != nil {
		return fmt.Errorf("hr2lr buffer: %w", err)
	}
	if err := b.lr2hr.check(now); err != nil {
		return fmt.Errorf("lr2hr buffer: %w", err)
	}
	return nil
}

// LRArray and HRArray expose the parts for characterization experiments.
func (b *TwoPartBank) LRArray() *cache.Cache { return b.lr }
func (b *TwoPartBank) HRArray() *cache.Cache { return b.hr }

// Backing implements Tier.
func (b *TwoPartBank) Backing() Backing { return b.back }

// EnableWriteVariation implements WriteVariationEnabler.
func (b *TwoPartBank) EnableWriteVariation() {
	b.lr.EnableWriteVariation()
	b.hr.EnableWriteVariation()
}

// backAccess forwards a miss or writeback to the backing store. The
// concrete-DRAM case stays devirtualized so single-tier hierarchies pay
// nothing for the tier abstraction on the hot path.
func (b *TwoPartBank) backAccess(now int64, addr uint64, write bool) int64 {
	if b.mc != nil {
		return b.mc.Access(now, addr, write)
	}
	return b.back.Access(now, addr, write)
}

// writeback issues a dirty-line writeback to the backing store.
func (b *TwoPartBank) writeback(now int64, addr uint64) {
	b.backAccess(now, addr, true)
	b.stats.DRAMWritebacks++
}

// bufferInsertCycles is the foreground cost of handing a block to a swap
// buffer: the store is acknowledged once buffered.
const bufferInsertCycles = 1

// frontStart serializes request entry into the bank (one per cycle).
func (b *TwoPartBank) frontStart(now int64) int64 {
	start := now
	if b.frontNextFree > start {
		start = b.frontNextFree
	}
	b.frontNextFree = start + 1
	return start
}

// Access implements Bank.
func (b *TwoPartBank) Access(now int64, addr uint64, write bool) (int64, bool) {
	b.Tick(now)
	if write {
		b.stats.Writes++
		return b.accessWrite(now, addr)
	}
	b.stats.Reads++
	return b.accessRead(now, addr)
}

// probeCost returns the elapsed tag-probe latency given how many tag
// arrays were searched, honoring the parallel-search option, and charges
// tag energy.
func (b *TwoPartBank) probeCost(probes int) int64 {
	if b.cfg.ParallelSearch {
		// Both tag arrays probed simultaneously, always.
		b.energy.TagAccess += b.lrTagE + b.hrTagE
		return b.cfg.TagLatencyCycles
	}
	if probes >= 2 {
		b.energy.TagAccess += b.lrTagE + b.hrTagE
	} else {
		// Sequential search stops at the first tag array on a hit.
		// Charge the (cheaper) LR tag for single probes: the selector
		// probes the part most likely to hold the block first, and
		// the asymmetry is below the model's resolution.
		b.energy.TagAccess += b.lrTagE
	}
	return int64(probes) * b.cfg.TagLatencyCycles
}

func (b *TwoPartBank) accessWrite(now int64, addr uint64) (int64, bool) {
	start := b.frontStart(now)

	// Writes search the LR part first (cache search selector).
	if set, way, hit := b.lr.Probe(addr); hit {
		at := start + b.probeCost(1)
		if last := b.lr.LastWriteCycleAt(set, way); last >= b.rewriteFloor {
			b.stats.RewriteIntervals.Add(usOf(now-last, b.cfg.ClockHz))
		}
		b.lr.AccessAt(set, way, true, now)
		b.stats.WriteHits++
		b.stats.LRWriteHits++
		b.energy.DataWrite += b.lrWriteE
		return b.lrPorts.acquire(addr, b.cfg.LineBytes, at, b.lrWriteOcc) + b.lrWriteCy, true
	}

	if set, way, hit := b.hr.Probe(addr); hit {
		at := start + b.probeCost(2)
		b.hr.AccessAt(set, way, true, now) // increments WC, sets dirty
		b.stats.WriteHits++
		b.stats.HRWriteHits++
		if !b.cfg.DisableMigration && b.hr.WriteCountAt(set, way) >= b.threshold {
			// Frequently-written block: migrate HR -> LR, merging the
			// store into the migrating copy. Foreground cost is the
			// buffer handoff (with backpressure when the buffer is
			// full); the HR read-out and the LR write drain in the
			// background.
			slotAt := b.hr2lr.enqueue(now, b.lrWriteOcc)
			if slotAt > at {
				at = slotAt
			}
			b.hrPorts.acquire(addr, b.cfg.LineBytes, at, pipelineCycles) // HR read-out
			done := at + bufferInsertCycles
			ev, _ := b.hr.InvalidateWay(set, way)
			b.stats.MigrationsToLR++
			b.energy.Migration += b.hrReadE + b.lrWriteE
			b.energy.Buffer += b.bufE
			b.fillLR(now, ev.Addr, true)
			return done, true
		}
		// Below threshold: the write is applied in place in HR,
		// occupying the HR array for the full write pulse.
		b.stats.HRWriteKept++
		b.energy.DataWrite += b.hrWriteE
		return b.hrPorts.acquire(addr, b.cfg.LineBytes, at, b.hrWriteOcc) + b.hrWriteCy, true
	}

	// Write miss: allocate without fetch (stores are line-granular in
	// this model). The WWS monitor treats the allocating store as the
	// block's first write.
	at := start + b.probeCost(2)
	if !b.cfg.DisableMigration && 1 >= b.threshold {
		// Threshold 1: a written block belongs in LR immediately. The
		// store is acknowledged once a buffer slot is obtained, so
		// sustained store streams are throttled to the LR array's
		// write bandwidth.
		slotAt := b.hr2lr.enqueue(now, b.lrWriteOcc)
		if slotAt > at {
			at = slotAt
		}
		done := at + bufferInsertCycles
		b.stats.LRWriteFills++
		b.energy.DataWrite += b.lrWriteE
		b.energy.Buffer += b.bufE
		b.fillLR(now, b.blockAddr(addr), true)
		return done, false
	}
	// Higher thresholds (or migration disabled): allocate into HR.
	b.stats.HRWriteFills++
	b.energy.DataWrite += b.hrWriteE
	done := b.hrPorts.acquire(addr, b.cfg.LineBytes, at, b.hrWriteOcc) + b.hrWriteCy
	if ev, evicted := b.hr.Fill(addr, true, now); evicted && ev.Dirty {
		b.energy.DataRead += b.hrReadE
		b.writeback(now, ev.Addr)
	}
	return done, false
}

func (b *TwoPartBank) accessRead(now int64, addr uint64) (int64, bool) {
	start := b.frontStart(now)

	// Reads search the HR part first: read-mostly blocks live there.
	if set, way, hit := b.hr.Probe(addr); hit {
		at := start + b.probeCost(1)
		b.hr.AccessAt(set, way, false, now)
		b.stats.ReadHits++
		b.stats.HRReadHits++
		b.energy.DataRead += b.hrReadE
		return b.hrPorts.acquire(addr, b.cfg.LineBytes, at, pipelineCycles) + b.hrReadCy, true
	}
	if set, way, hit := b.lr.Probe(addr); hit {
		at := start + b.probeCost(2)
		b.lr.AccessAt(set, way, false, now)
		b.stats.ReadHits++
		b.stats.LRReadHits++
		b.energy.DataRead += b.lrReadE
		return b.lrPorts.acquire(addr, b.cfg.LineBytes, at, pipelineCycles) + b.lrReadCy, true
	}

	// Read miss: fetch from DRAM, fill into HR (a read-allocated block
	// is presumed read-mostly until the monitor says otherwise). Misses
	// to a line already in flight merge onto the pending fill.
	at := start + b.probeCost(2)
	if fillDone, ok := b.msh.lookup(b.blockAddr(addr), at); ok {
		return fillDone + b.hrReadCy, false
	}
	dramDone := b.backAccess(at, addr, false)
	b.msh.insert(b.blockAddr(addr), dramDone)
	b.stats.DRAMFills++
	b.energy.DataWrite += b.hrWriteE // fill write
	if ev, evicted := b.hr.Fill(addr, false, now); evicted && ev.Dirty {
		b.energy.DataRead += b.hrReadE
		b.writeback(now, ev.Addr)
	}
	return dramDone + b.hrReadCy, false
}

// fillLR installs a block into the LR part and returns any LR victim to
// the HR part through the LR->HR buffer.
func (b *TwoPartBank) fillLR(now int64, addr uint64, dirty bool) {
	ev, evicted := b.lr.Fill(addr, dirty, now)
	if !evicted {
		return
	}
	b.returnToHR(now, ev)
}

// returnToHR moves an LR victim (or refresh overflow) back into HR.
func (b *TwoPartBank) returnToHR(now int64, ev cache.Evicted) {
	if !b.lr2hr.tryEnqueue(now, b.hrWriteOcc) {
		if ev.Dirty {
			b.writeback(now, ev.Addr)
			b.stats.OverflowWritebacks++
		}
		return
	}
	b.stats.EvictionsToHR++
	b.energy.Migration += b.lrReadE + b.hrWriteE
	b.energy.Buffer += b.bufE
	if hrEv, evicted := b.hr.Fill(ev.Addr, ev.Dirty, now); evicted && hrEv.Dirty {
		b.energy.DataRead += b.hrReadE
		b.writeback(now, hrEv.Addr)
	}
}

func (b *TwoPartBank) blockAddr(addr uint64) uint64 {
	return addr &^ (uint64(b.cfg.LineBytes) - 1)
}

// Tick implements Bank: advances the retention counters to cycle now and
// performs due refreshes (LR) and expirations (HR). The refresh of an LR
// block is postponed to the last counter window before its retention
// boundary, exactly as the paper's RC scheme does.
//
// Due scans run merged in boundary-time order (LR before HR on ties), so
// the global scan sequence is invariant under how catch-up windows are
// batched: Tick(a) followed by Tick(b) performs exactly the scans of a
// single Tick(b), in the same order. That invariance is what makes the
// bank's own catch-up on Access the only retention timeline: an
// observer that ticks the bank before reading it cannot perturb
// results.
func (b *TwoPartBank) Tick(now int64) {
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

// TickPeriod implements Bank: the retention counters want advancing at
// least once per counter window, at the finer of the two cadences.
func (b *TwoPartBank) TickPeriod() int64 {
	if b.lrTickCy < b.hrTickCy {
		return b.lrTickCy
	}
	return b.hrTickCy
}

func (b *TwoPartBank) scanLR(now int64) {
	b.energy.RCCounters += rcEnergy * float64(b.lr.ValidLines())
	refresh, drop := b.scanRefresh[:0], b.scanDrop[:0]
	words := b.lr.MaskWords()
	cur := b.lr.DueSets(now)
	for set, ok := cur.Next(); ok; set, ok = cur.Next() {
		for wi := 0; wi < words; wi++ {
			for m := b.lr.ValidWord(set, wi); m != 0; m &= m - 1 {
				way := wi<<6 + bits.TrailingZeros64(m)
				if now-b.lr.RetentionStampAt(set, way) >= b.lrRetCy-b.lrTickCy {
					if b.lr2hr.tryEnqueue(now, b.lrWriteOcc) {
						refresh = append(refresh, [2]int{set, way})
					} else {
						drop = append(drop, [2]int{set, way})
					}
				}
			}
		}
	}
	for _, sw := range refresh {
		b.lr.SetRetentionStamp(sw[0], sw[1], now)
		b.stats.Refreshes++
		b.energy.Refresh += b.lrReadE + b.lrWriteE
		b.energy.Buffer += b.bufE
	}
	for _, sw := range drop {
		ev, _ := b.lr.InvalidateWay(sw[0], sw[1])
		if ev.Dirty {
			b.writeback(now, ev.Addr)
			b.stats.OverflowWritebacks++
		}
		b.stats.LRExpiryDrops++
	}
	b.scanRefresh, b.scanDrop = refresh[:0], drop[:0]
}

func (b *TwoPartBank) scanHR(now int64) {
	b.energy.RCCounters += rcEnergy * float64(b.hr.ValidLines())
	expired := b.scanDrop[:0]
	words := b.hr.MaskWords()
	cur := b.hr.DueSets(now)
	for set, ok := cur.Next(); ok; set, ok = cur.Next() {
		for wi := 0; wi < words; wi++ {
			for m := b.hr.ValidWord(set, wi); m != 0; m &= m - 1 {
				way := wi<<6 + bits.TrailingZeros64(m)
				if now-b.hr.RetentionStampAt(set, way) >= b.hrRetCy {
					expired = append(expired, [2]int{set, way})
				}
			}
		}
	}
	for _, sw := range expired {
		ev, _ := b.hr.InvalidateWay(sw[0], sw[1])
		if ev.Dirty {
			b.writeback(now, ev.Addr)
		}
		b.stats.HRExpiries++
	}
	b.scanDrop = expired[:0]
}

// Drain implements Bank.
func (b *TwoPartBank) Drain(now int64) {
	wb := func(set, way int, addr uint64) {
		b.writeback(now, addr)
	}
	b.lr.FlushDirty(wb)
	b.hr.FlushDirty(wb)
}

// Stats implements Bank.
func (b *TwoPartBank) Stats() *BankStats { return &b.stats }

// ResetStats implements Bank.
func (b *TwoPartBank) ResetStats() {
	b.stats = BankStats{RewriteIntervals: NewRewriteHistogram()}
	b.energy = Energy{}
	b.lr.Stats = cache.Stats{}
	b.hr.Stats = cache.Stats{}
	// A lower tier owns its own statistics (the simulator resets each
	// tier of a chain directly); only a private DRAM channel is ours.
	if b.mc != nil {
		b.mc.Stats = dram.Stats{}
	}
}

// Energy implements Bank.
func (b *TwoPartBank) Energy() *Energy { return &b.energy }

// LeakageWatts implements Bank: LR + HR data arrays, SRAM tag arrays, and
// the SRAM overheads of the proposal (retention counters and the two swap
// buffers — the <6KB, <1% area the paper reports).
func (b *TwoPartBank) LeakageWatts() float64 {
	sramLeak := sttram.SRAMCell().LeakagePerKB
	dataW := float64(b.cfg.LRBytes)/1024*b.cfg.LRCell.LeakagePerKB +
		float64(b.cfg.HRBytes)/1024*b.cfg.HRCell.LeakagePerKB
	tagBits := tagBitsFor(b.cfg.LRBytes, b.cfg.LRWays, b.cfg.LineBytes, b.cfg.AddrBits)*b.lr.Sets() +
		tagBitsFor(b.cfg.HRBytes, b.cfg.HRWays, b.cfg.LineBytes, b.cfg.AddrBits)*b.hr.Sets()
	rcBits := b.lr.Sets()*b.lr.Ways*b.cfg.LRCounterBits + b.hr.Sets()*b.hr.Ways*b.cfg.HRCounterBits
	bufBytes := 2 * b.cfg.BufferBlocks * b.cfg.LineBytes
	overheadKB := float64(tagBits+rcBits)/8/1024 + float64(bufBytes)/1024
	return dataW + overheadKB*sramLeak
}

// OverheadBytes returns the added SRAM state of the proposal (retention
// counters + swap buffers), which the paper synthesizes to <6KB per bank
// group (<1% of the cache area).
func (b *TwoPartBank) OverheadBytes() int {
	rcBits := b.lr.Sets()*b.lr.Ways*b.cfg.LRCounterBits + b.hr.Sets()*b.hr.Ways*b.cfg.HRCounterBits
	return rcBits/8 + 2*b.cfg.BufferBlocks*b.cfg.LineBytes
}

// RebaseRewriteClock marks boundary as the earliest first-write
// timestamp the rewrite-interval histogram may pair with a later
// rewrite. The simulator calls it at the warmup reset so intervals
// whose first write predates the measured region are dropped instead of
// recorded against pre-warmup time. Line timestamps themselves are
// untouched (the reference model compares them bit-exactly).
func (b *TwoPartBank) RebaseRewriteClock(boundary int64) { b.rewriteFloor = boundary }

// Reset implements Bank.
func (b *TwoPartBank) Reset() {
	b.lr.Reset() // also restores the LR active-way bound
	b.hr.Reset()
	if b.mc != nil {
		b.mc.Reset()
	}
	if b.hrCell != b.cfg.HRCell {
		// A retention switch changed the derived HR parameters and the
		// expiry wheel's geometry; a reset bank is the configured one.
		b.applyHRCell(b.cfg.HRCell)
		b.hr.EnableExpiryWheel(b.hrTickCy, b.hrRetCy)
	}
	b.thresholdManaged = false
	b.hr2lr.reset()
	b.lr2hr.reset()
	b.threshold = b.cfg.WriteThreshold
	b.frontNextFree = 0
	b.lrPorts.reset()
	b.hrPorts.reset()
	b.msh.reset()
	b.lastLRScan = 0
	b.lastHRScan = 0
	b.rewriteFloor = 0
	b.stats = BankStats{RewriteIntervals: NewRewriteHistogram()}
	b.energy = Energy{}
}
