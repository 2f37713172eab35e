package core

import (
	"sttllc/internal/cache"
	"sttllc/internal/dram"
	"sttllc/internal/sttram"
)

// UniformConfig describes a conventional single-technology L2 bank.
type UniformConfig struct {
	CapacityBytes int
	Ways          int
	LineBytes     int
	Cell          sttram.Cell
	ClockHz       float64
	// TagLatencyCycles is the SRAM tag-probe latency (tags stay SRAM in
	// every configuration).
	TagLatencyCycles int64
	// AddrBits sizes the tag width for energy accounting.
	AddrBits int
}

// UniformBank is a conventional write-back, write-allocate(no-fetch) L2
// bank in a single memory technology: the SRAM baseline and the naive
// archival STT-RAM baseline of the evaluation. Stores occupy the array
// for the full write latency — the behaviour that makes the archival
// STT-RAM baseline lose on write-intensive workloads.
type UniformBank struct {
	cfg  UniformConfig
	arr  *cache.Cache
	back Backing
	mc   *dram.Controller // devirtualized fast path when back is concrete DRAM

	readCycles  int64
	writeCycles int64
	readE       float64
	writeE      float64
	tagE        float64

	front int64 // request front-end (one per cycle)
	arr2  ports // data subarrays
	msh   *mshr

	// rewriteFloor excludes pre-warmup first-write timestamps from the
	// rewrite-interval histogram (see TwoPartBank.rewriteFloor).
	rewriteFloor int64

	stats  BankStats
	energy Energy
}

// NewUniformBank builds a uniform bank on top of the given backing
// store — the DRAM channel in the paper's two-level hierarchy, or a
// lower tier (via AsBacking) in a stacked one.
func NewUniformBank(cfg UniformConfig, back Backing) *UniformBank {
	if cfg.ClockHz <= 0 {
		panic("core: ClockHz must be positive")
	}
	if cfg.TagLatencyCycles <= 0 {
		cfg.TagLatencyCycles = 2
	}
	if cfg.AddrBits == 0 {
		cfg.AddrBits = 32
	}
	b := &UniformBank{
		cfg: cfg,
		arr: cache.New(cfg.CapacityBytes, cfg.Ways, cfg.LineBytes),

		back:        back,
		readCycles:  cyclesOf(cfg.Cell.ReadLatency, cfg.ClockHz),
		writeCycles: cyclesOf(cfg.Cell.WriteLatency, cfg.ClockHz),
		readE:       cfg.Cell.EnergyPerBlock(cfg.LineBytes, false),
		writeE:      cfg.Cell.EnergyPerBlock(cfg.LineBytes, true),
		tagE:        tagEnergy(tagBitsFor(cfg.CapacityBytes, cfg.Ways, cfg.LineBytes, cfg.AddrBits)),
		msh:         newMSHR(),
	}
	b.mc, _ = back.(*dram.Controller)
	b.stats.RewriteIntervals = NewRewriteHistogram()
	return b
}

// Array exposes the underlying cache array (for write-variation tracking
// in characterization experiments).
func (b *UniformBank) Array() *cache.Cache { return b.arr }

// Backing implements Tier.
func (b *UniformBank) Backing() Backing { return b.back }

// EnableWriteVariation implements WriteVariationEnabler.
func (b *UniformBank) EnableWriteVariation() { b.arr.EnableWriteVariation() }

// backAccess forwards a miss or writeback to the backing store. The
// concrete-DRAM case stays devirtualized so single-tier hierarchies pay
// nothing for the tier abstraction on the hot path.
func (b *UniformBank) backAccess(now int64, addr uint64, write bool) int64 {
	if b.mc != nil {
		return b.mc.Access(now, addr, write)
	}
	return b.back.Access(now, addr, write)
}

// writeback issues a dirty-line writeback to the backing store.
func (b *UniformBank) writeback(now int64, addr uint64) {
	b.backAccess(now, addr, true)
	b.stats.DRAMWritebacks++
}

// Config returns the bank's configuration with defaults applied, as the
// constructor saw it.
func (b *UniformBank) Config() UniformConfig { return b.cfg }

func tagBitsFor(capacity, ways, lineBytes, addrBits int) int {
	sets := capacity / (ways * lineBytes)
	setBits := 0
	for s := 1; s < sets; s <<= 1 {
		setBits++
	}
	offBits := 0
	for s := 1; s < lineBytes; s <<= 1 {
		offBits++
	}
	return (addrBits - setBits - offBits + 2) * ways // probe reads all ways of the set
}

// Access implements Bank.
func (b *UniformBank) Access(now int64, addr uint64, write bool) (int64, bool) {
	if write {
		b.stats.Writes++
	} else {
		b.stats.Reads++
	}
	// Requests enter the bank one per cycle; data accesses then occupy
	// one of the subarrays — a pipeline slot for reads, the full write
	// pulse for writes (the STT-RAM write-bandwidth problem).
	start := now
	if b.front > start {
		start = b.front
	}
	b.front = start + 1
	at := start + b.cfg.TagLatencyCycles
	b.energy.TagAccess += b.tagE

	set, way, hit := b.arr.Probe(addr)
	if hit {
		if write && b.arr.DirtyAt(set, way) {
			if last := b.arr.LastWriteCycleAt(set, way); last >= b.rewriteFloor {
				b.stats.RewriteIntervals.Add(usOf(now-last, b.cfg.ClockHz))
			}
		}
		b.arr.AccessAt(set, way, write, now)
		if write {
			b.stats.WriteHits++
			b.energy.DataWrite += b.writeE
			occ := writeOccupancy(b.readCycles, b.writeCycles)
			return b.arr2.acquire(addr, b.cfg.LineBytes, at, occ) + b.writeCycles, true
		}
		b.stats.ReadHits++
		b.energy.DataRead += b.readE
		return b.arr2.acquire(addr, b.cfg.LineBytes, at, pipelineCycles) + b.readCycles, true
	}

	// Miss. The array is free during the DRAM access (MSHR); the fill
	// occupies a background port when data returns.
	if write {
		// Write-allocate without fetch: GPU stores are coalesced
		// full-line writes at L2 granularity in this model.
		occ := writeOccupancy(b.readCycles, b.writeCycles)
		arrAt := b.arr2.acquire(addr, b.cfg.LineBytes, at, occ)
		b.fill(addr, true, now)
		b.energy.DataWrite += b.writeE
		return arrAt + b.writeCycles, false
	}
	line := b.arr.BlockAddr(addr)
	if fillDone, ok := b.msh.lookup(line, at); ok {
		// Another miss to this line is already in flight: merge.
		return fillDone + b.readCycles, false
	}
	dramDone := b.backAccess(at, addr, false)
	b.msh.insert(line, dramDone)
	b.stats.DRAMFills++
	b.fill(addr, false, now)
	b.energy.DataWrite += b.writeE // the fill writes the array
	return dramDone + b.readCycles, false
}

// fill installs the line and handles the victim writeback. The writeback
// enters the memory controller's write queue at eviction time — entry
// times into the channel model must be (near-)monotone, and the write
// queue decouples actual drain timing anyway.
func (b *UniformBank) fill(addr uint64, dirty bool, now int64) {
	if ev, evicted := b.arr.Fill(addr, dirty, now); evicted && ev.Dirty {
		b.energy.DataRead += b.readE // victim must be read out
		b.writeback(now, ev.Addr)
	}
}

// Tick implements Bank. Uniform banks (SRAM or archival STT-RAM) need no
// retention bookkeeping.
func (b *UniformBank) Tick(int64) {}

// TickPeriod implements Bank: no periodic bookkeeping.
func (b *UniformBank) TickPeriod() int64 { return 0 }

// Drain implements Bank: write back all dirty lines.
func (b *UniformBank) Drain(now int64) {
	b.arr.FlushDirty(func(set, way int, addr uint64) {
		b.writeback(now, addr)
	})
}

// Stats implements Bank.
func (b *UniformBank) Stats() *BankStats { return &b.stats }

// ResetStats implements Bank.
func (b *UniformBank) ResetStats() {
	b.stats = BankStats{RewriteIntervals: NewRewriteHistogram()}
	b.energy = Energy{}
	b.arr.Stats = cache.Stats{}
	// A lower tier owns its own statistics (the simulator resets each
	// tier of a chain directly); only a private DRAM channel is ours.
	if b.mc != nil {
		b.mc.Stats = dram.Stats{}
	}
}

// Energy implements Bank.
func (b *UniformBank) Energy() *Energy { return &b.energy }

// LeakageWatts implements Bank.
func (b *UniformBank) LeakageWatts() float64 {
	dataKB := float64(b.cfg.CapacityBytes) / 1024
	tagKB := float64(tagBitsFor(b.cfg.CapacityBytes, b.cfg.Ways, b.cfg.LineBytes, b.cfg.AddrBits)) / 8 / 1024 *
		float64(b.arr.Sets())
	return dataKB*b.cfg.Cell.LeakagePerKB + tagKB*sttram.SRAMCell().LeakagePerKB
}

// RebaseRewriteClock marks boundary as the earliest first-write
// timestamp the rewrite-interval histogram may pair with a later
// rewrite; see TwoPartBank.RebaseRewriteClock.
func (b *UniformBank) RebaseRewriteClock(boundary int64) { b.rewriteFloor = boundary }

// Reset implements Bank.
func (b *UniformBank) Reset() {
	b.arr.Reset()
	if b.mc != nil {
		b.mc.Reset()
	}
	b.front = 0
	b.rewriteFloor = 0
	b.arr2.reset()
	b.msh.reset()
	b.stats = BankStats{RewriteIntervals: NewRewriteHistogram()}
	b.energy = Energy{}
}
