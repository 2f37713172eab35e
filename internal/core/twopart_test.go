package core

import (
	"testing"
	"testing/quick"

	"sttllc/internal/cache"
	"sttllc/internal/dram"
	"sttllc/internal/sttram"
)

const testClock = 1e9 // 1 GHz: 1 cycle == 1ns, easy arithmetic

func newTestBank(mutate ...func(*TwoPartConfig)) *TwoPartBank {
	cfg := TwoPartConfig{
		LRBytes: 2 << 10, LRWays: 2, LRCell: sttram.LRCell(),
		HRBytes: 8 << 10, HRWays: 4, HRCell: sttram.HRCell(),
		LineBytes: 64,
		ClockHz:   testClock,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	mc := dram.New(8, 2048, dram.DefaultTiming())
	return NewTwoPartBank(cfg, mc)
}

func TestWriteMissAllocatesIntoLR(t *testing.T) {
	b := newTestBank()
	done, hit := b.Access(10, 0x1000, true)
	if hit {
		t.Fatal("cold write should miss")
	}
	if done <= 10 {
		t.Fatalf("done = %d, want > arrival", done)
	}
	if b.stats.LRWriteFills != 1 {
		t.Errorf("LRWriteFills = %d, want 1", b.stats.LRWriteFills)
	}
	if _, _, inLR := b.lr.Probe(0x1000); !inLR {
		t.Error("written block should live in LR")
	}
	if _, _, inHR := b.hr.Probe(0x1000); inHR {
		t.Error("written block must not also live in HR")
	}
}

func TestReadMissFillsHRClean(t *testing.T) {
	b := newTestBank()
	done, hit := b.Access(5, 0x2000, false)
	if hit {
		t.Fatal("cold read should miss")
	}
	if done < 5+b.mc.Timing.RowMissLatency {
		t.Errorf("read miss done=%d, want at least DRAM latency", done)
	}
	set, way, inHR := b.hr.Probe(0x2000)
	if !inHR {
		t.Fatal("read-allocated block should live in HR")
	}
	if b.hr.LineAt(set, way).Dirty {
		t.Error("read fill must be clean")
	}
	if b.stats.DRAMFills != 1 {
		t.Errorf("DRAMFills = %d, want 1", b.stats.DRAMFills)
	}
}

func TestWriteHitInHRMigratesAtThreshold1(t *testing.T) {
	b := newTestBank()
	b.Access(0, 0x3000, false) // fill HR
	done, hit := b.Access(1000, 0x3000, true)
	if !hit {
		t.Fatal("write to HR-resident block should hit")
	}
	if b.stats.MigrationsToLR != 1 {
		t.Errorf("MigrationsToLR = %d, want 1", b.stats.MigrationsToLR)
	}
	if _, _, inHR := b.hr.Probe(0x3000); inHR {
		t.Error("migrated block still in HR")
	}
	set, way, inLR := b.lr.Probe(0x3000)
	if !inLR {
		t.Fatal("migrated block should be in LR")
	}
	if !b.lr.LineAt(set, way).Dirty {
		t.Error("migrated-by-write block must be dirty")
	}
	// Migration is acknowledged at buffer handoff: much cheaper than an
	// HR array write.
	if fgLat := done - 1000; fgLat > b.hrWriteCy {
		t.Errorf("migration foreground latency %d should be below an HR write %d", fgLat, b.hrWriteCy)
	}
}

func TestRewriteIntervalRecorded(t *testing.T) {
	b := newTestBank()
	b.Access(0, 0x40, true)       // allocate into LR
	b.Access(5000, 0x40, true)    // rewrite after 5000 cycles = 5µs
	b.Access(2000000, 0x40, true) // rewrite after ~2ms
	h := b.stats.RewriteIntervals
	if h.N != 2 {
		t.Fatalf("rewrite samples = %d, want 2", h.N)
	}
	if h.Counts[1] != 1 { // 5µs bucket (edges 1,5,10,1000,2500)
		t.Errorf("5µs bucket = %d, want 1; counts=%v", h.Counts[1], h.Counts)
	}
	if h.Counts[4] != 1 { // 2.5ms bucket
		t.Errorf("2.5ms bucket = %d, want 1; counts=%v", h.Counts[4], h.Counts)
	}
}

func TestHigherThresholdKeepsWritesInHR(t *testing.T) {
	b := newTestBank(func(c *TwoPartConfig) { c.WriteThreshold = 3 })
	b.Access(0, 0x5000, false) // fill HR, WC=0
	b.Access(100, 0x5000, true)
	if b.stats.MigrationsToLR != 0 || b.stats.HRWriteKept != 1 {
		t.Fatalf("first write should stay in HR: %+v", b.stats)
	}
	b.Access(200, 0x5000, true)
	if b.stats.MigrationsToLR != 0 {
		t.Fatal("second write should still stay in HR")
	}
	b.Access(300, 0x5000, true)
	if b.stats.MigrationsToLR != 1 {
		t.Errorf("third write should reach threshold 3 and migrate: %+v", b.stats)
	}
	if _, _, inLR := b.lr.Probe(0x5000); !inLR {
		t.Error("block should be in LR after threshold migration")
	}
}

func TestWriteMissWithHighThresholdAllocatesHR(t *testing.T) {
	b := newTestBank(func(c *TwoPartConfig) { c.WriteThreshold = 3 })
	b.Access(0, 0x6000, true)
	if b.stats.HRWriteFills != 1 || b.stats.LRWriteFills != 0 {
		t.Errorf("write miss at TH=3 should allocate HR: %+v", b.stats)
	}
	set, way, inHR := b.hr.Probe(0x6000)
	if !inHR || !b.hr.LineAt(set, way).Dirty {
		t.Error("HR allocation should be present and dirty")
	}
}

func TestLRVictimReturnsToHR(t *testing.T) {
	b := newTestBank()
	// LR: 2KB, 2 ways, 64B lines -> 16 sets. Three conflicting writes
	// to LR set 0 evict the first block back to HR.
	a0 := uint64(0x0000)
	a1 := uint64(0x0400) // 16 sets * 64B = 1KB stride per way
	a2 := uint64(0x0800)
	now := int64(0)
	for _, a := range []uint64{a0, a1, a2} {
		now += 100
		b.Access(now, a, true)
	}
	if b.stats.EvictionsToHR != 1 {
		t.Fatalf("EvictionsToHR = %d, want 1", b.stats.EvictionsToHR)
	}
	set, way, inHR := b.hr.Probe(a0)
	if !inHR {
		t.Fatal("LR victim should land in HR")
	}
	if !b.hr.LineAt(set, way).Dirty {
		t.Error("dirty LR victim must stay dirty in HR")
	}
}

func TestBufferOverflowForcesWriteback(t *testing.T) {
	b := newTestBank(func(c *TwoPartConfig) { c.BufferBlocks = 1 })
	// Burst of write misses at the same cycle: the single-slot HR->LR
	// buffer fills and later allocations are forced to DRAM.
	for i := 0; i < 4; i++ {
		b.Access(10, uint64(0x10000+i*0x1000), true)
	}
	if b.stats.OverflowWritebacks == 0 {
		t.Error("expected overflow writebacks with a 1-slot buffer")
	}
	if b.stats.DRAMWritebacks < b.stats.OverflowWritebacks {
		t.Error("overflow writebacks must reach DRAM")
	}
}

func TestLRRefreshBeforeExpiry(t *testing.T) {
	b := newTestBank()
	b.Access(0, 0x40, true) // into LR at cycle ~0
	// Advance past the retention period; the periodic scans must have
	// refreshed the line rather than losing it.
	b.Tick(b.lrRetCy + b.lrTickCy)
	if b.stats.Refreshes == 0 {
		t.Fatal("LR line should have been refreshed")
	}
	if _, _, inLR := b.lr.Probe(0x40); !inLR {
		t.Error("refreshed line must stay valid in LR")
	}
	if b.stats.LRExpiryDrops != 0 {
		t.Errorf("no drops expected, got %d", b.stats.LRExpiryDrops)
	}
}

func TestLRLineNeverExceedsRetention(t *testing.T) {
	// Property: with ticks delivered on schedule, no valid LR line's
	// age ever exceeds the LR retention (the refresh mechanism's
	// correctness condition).
	b := newTestBank()
	b.Access(0, 0x40, true)
	b.Access(100, 0x80, true)
	for now := int64(0); now < 3*b.lrRetCy; now += b.lrTickCy {
		b.Tick(now)
		bad := b.lr.CollectExpired(now, b.lrRetCy)
		if len(bad) > 0 {
			t.Fatalf("LR line(s) older than retention at cycle %d: %v", now, bad)
		}
	}
}

func TestHRExpiryInvalidatesAndWritesBack(t *testing.T) {
	b := newTestBank(func(c *TwoPartConfig) { c.WriteThreshold = 3 })
	b.Access(0, 0x7000, true) // dirty block parked in HR (TH=3)
	wbBefore := b.stats.DRAMWritebacks
	b.Tick(b.hrRetCy + b.hrTickCy)
	if b.stats.HRExpiries == 0 {
		t.Fatal("HR line should expire after its retention")
	}
	if _, _, inHR := b.hr.Probe(0x7000); inHR {
		t.Error("expired HR line must be invalidated")
	}
	if b.stats.DRAMWritebacks == wbBefore {
		t.Error("dirty expired HR line must be written back")
	}
}

func TestCleanHRExpiryNoWriteback(t *testing.T) {
	b := newTestBank()
	b.Access(0, 0x7000, false) // clean read fill
	wbBefore := b.stats.DRAMWritebacks
	b.Tick(b.hrRetCy + b.hrTickCy)
	if b.stats.HRExpiries == 0 {
		t.Fatal("clean HR line should still expire")
	}
	if b.stats.DRAMWritebacks != wbBefore {
		t.Error("clean expiry must not write back")
	}
}

func TestSequentialVsParallelSearchLatency(t *testing.T) {
	seq := newTestBank()
	par := newTestBank(func(c *TwoPartConfig) { c.ParallelSearch = true })
	for _, b := range []*TwoPartBank{seq, par} {
		b.Access(0, 0x40, true)      // block in LR
		b.Access(500, 0x2000, false) // miss, fills HR
	}
	// A read of an LR-resident block needs two sequential probes but
	// only one parallel probe.
	dSeq, _ := seq.Access(10000, 0x40, false)
	dPar, _ := par.Access(10000, 0x40, false)
	if dSeq-10000 != (dPar-10000)+seq.cfg.TagLatencyCycles {
		t.Errorf("sequential LR read = %d cycles, parallel = %d cycles, want one extra tag probe",
			dSeq-10000, dPar-10000)
	}
	// An HR read hit stops the sequential search at one tag array, so
	// parallel search burns more tag energy on it.
	eSeqBefore, eParBefore := seq.energy.TagAccess, par.energy.TagAccess
	seq.Access(20000, 0x2000, false)
	par.Access(20000, 0x2000, false)
	if par.energy.TagAccess-eParBefore <= seq.energy.TagAccess-eSeqBefore {
		t.Errorf("parallel tag energy per HR hit (%g) should exceed sequential (%g)",
			par.energy.TagAccess-eParBefore, seq.energy.TagAccess-eSeqBefore)
	}
}

func TestDisableMigrationAblation(t *testing.T) {
	b := newTestBank(func(c *TwoPartConfig) { c.DisableMigration = true })
	b.Access(0, 0x8000, false)
	b.Access(100, 0x8000, true)
	b.Access(200, 0x9000, true) // write miss
	if b.stats.MigrationsToLR != 0 || b.stats.LRWriteFills != 0 {
		t.Errorf("migration disabled but blocks moved: %+v", b.stats)
	}
	if b.stats.HRWriteFills != 1 {
		t.Errorf("write miss should allocate HR when migration disabled: %+v", b.stats)
	}
}

func TestEnergyAccounting(t *testing.T) {
	b := newTestBank()
	b.Access(0, 0x1000, true)
	b.Access(100, 0x2000, false)
	b.Access(200, 0x2000, true) // migration
	e := b.Energy()
	if e.Total() <= 0 {
		t.Fatal("energy should accumulate")
	}
	if e.Migration <= 0 {
		t.Error("migration energy missing")
	}
	if e.TagAccess <= 0 || e.DataWrite <= 0 {
		t.Error("tag/data energy missing")
	}
	sum := e.TagAccess + e.DataRead + e.DataWrite + e.Migration + e.Refresh + e.Buffer + e.RCCounters
	if sum != e.Total() {
		t.Error("Total() must equal the component sum")
	}
}

func TestLeakageBelowSRAMEquivalent(t *testing.T) {
	b := newTestBank()
	mc := dram.New(8, 2048, dram.DefaultTiming())
	sram := NewUniformBank(UniformConfig{
		CapacityBytes: 16 << 10, Ways: 4, LineBytes: 64,
		Cell: sttram.SRAMCell(), ClockHz: testClock,
	}, mc)
	if b.LeakageWatts() >= sram.LeakageWatts() {
		t.Errorf("two-part STT leakage (%g W) should be far below same-capacity SRAM (%g W)",
			b.LeakageWatts(), sram.LeakageWatts())
	}
}

func TestOverheadBytesSmall(t *testing.T) {
	// Paper: RCs + buffers are <6KB for the full 1536KB cache (<1%).
	// Scale check on the C1 per-bank geometry.
	mc := dram.New(8, 2048, dram.DefaultTiming())
	b := NewTwoPartBank(TwoPartConfig{
		LRBytes: 32 << 10, LRWays: 2, LRCell: sttram.LRCell(),
		HRBytes: 224 << 10, HRWays: 7, HRCell: sttram.HRCell(),
		LineBytes: 256, ClockHz: 700e6,
	}, mc)
	// Paper: "the area overhead of added RCs and buffers ... is less
	// than 6KB (lower than 1%)" for the whole cache; check the per-bank
	// overhead stays below 6KB and a few percent of the bank capacity.
	total := 32<<10 + 224<<10
	ov := b.OverheadBytes()
	if ov > 6<<10 {
		t.Errorf("overhead %dB exceeds the paper's 6KB bound", ov)
	}
	if ov*100 > 3*total {
		t.Errorf("overhead %dB exceeds 3%% of capacity %dB", ov, total)
	}
}

func TestBlockNeverInBothPartsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		b := newTestBank()
		now := int64(0)
		for _, op := range ops {
			now += int64(op%97) + 1
			addr := uint64(op&0x0FFF) << 6
			write := op&0x8000 != 0
			done, _ := b.Access(now, addr, write)
			if done < now {
				return false
			}
		}
		// No line may be valid in both parts.
		dup := false
		b.lr.Range(func(set, way int, l cache.Line) {
			addr := b.lr.AddrOf(set, l.Tag)
			if _, _, inHR := b.hr.Probe(addr); inHR {
				dup = true
			}
		})
		return !dup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTickIdempotentAtSameCycle(t *testing.T) {
	b := newTestBank()
	b.Access(0, 0x40, true)
	b.Tick(b.lrTickCy * 3)
	r := b.stats.Refreshes
	e := b.energy.RCCounters
	b.Tick(b.lrTickCy * 3)
	if b.stats.Refreshes != r || b.energy.RCCounters != e {
		t.Error("repeated Tick at the same cycle must be a no-op")
	}
}

func TestDrainWritesBackDirty(t *testing.T) {
	b := newTestBank()
	b.Access(0, 0x40, true)   // dirty in LR
	b.Access(100, 0x80, true) // dirty in LR
	wb := b.stats.DRAMWritebacks
	b.Drain(1000)
	if b.stats.DRAMWritebacks != wb+2 {
		t.Errorf("Drain wrote back %d lines, want 2", b.stats.DRAMWritebacks-wb)
	}
	b.Drain(2000)
	if b.stats.DRAMWritebacks != wb+2 {
		t.Error("second Drain must be a no-op")
	}
}

func TestReset(t *testing.T) {
	b := newTestBank()
	b.Access(0, 0x40, true)
	b.Access(100, 0x80, false)
	b.Reset()
	if b.stats.Writes != 0 || b.energy.Total() != 0 {
		t.Error("Reset left stats or energy")
	}
	if b.lr.ValidLines() != 0 || b.hr.ValidLines() != 0 {
		t.Error("Reset left valid lines")
	}
	if _, hit := b.Access(10, 0x40, false); hit {
		t.Error("Reset cache should miss")
	}
}

func TestLRWriteShareAndArrayWrites(t *testing.T) {
	b := newTestBank()
	b.Access(0, 0x40, true)
	b.Access(10, 0x40, true)
	b.Access(20, 0x4000, false)
	s := b.Stats()
	if got := s.LRWriteShare(); got != 1.0 {
		t.Errorf("LRWriteShare = %v, want 1.0 (all writes went to LR)", got)
	}
	if s.ArrayWrites() == 0 {
		t.Error("ArrayWrites should count physical writes")
	}
	var empty BankStats
	if empty.LRWriteShare() != 0 || empty.HitRate() != 0 {
		t.Error("empty stats should report zero rates")
	}
}

func TestPartString(t *testing.T) {
	if PartLR.String() != "LR" || PartHR.String() != "HR" ||
		PartUniform.String() != "uniform" || PartNone.String() != "miss" {
		t.Error("Part.String mismatch")
	}
}

func TestAccessMonotoneNonDecreasingDone(t *testing.T) {
	b := newTestBank()
	now := int64(0)
	for i := 0; i < 500; i++ {
		now += int64(i%7) + 1
		done, _ := b.Access(now, uint64(i%50)<<6, i%3 == 0)
		if done < now {
			t.Fatalf("done %d before arrival %d", done, now)
		}
	}
}

func TestMSHRMergesConcurrentMisses(t *testing.T) {
	b := newTestBank()
	d1, hit1 := b.Access(10, 0x9000, false)
	d2, hit2 := b.Access(11, 0x9000, false) // same line, fill in flight
	if hit1 {
		t.Fatal("first access should miss")
	}
	// The second access merges onto the pending fill: by the time the
	// bank state was updated the line is present (hit), or it rides the
	// MSHR (miss) — either way only ONE DRAM fill happens and the
	// second requester finishes no later than shortly after the first.
	_ = hit2
	if b.stats.DRAMFills != 1 {
		t.Fatalf("DRAM fills = %d, want 1 (merged)", b.stats.DRAMFills)
	}
	if d2 > d1+b.hrReadCy+8 {
		t.Errorf("merged miss done at %d, first at %d: should ride the same fill", d2, d1)
	}
}

func TestSubarrayWritesOverlap(t *testing.T) {
	b := newTestBank(func(c *TwoPartConfig) { c.WriteThreshold = 3 })
	// Park two blocks in HR (threshold 3 keeps writes there), mapping
	// to different subarrays (consecutive lines).
	b.Access(0, 0x0000, false)
	b.Access(10, 0x0040, false)
	// Concurrent HR write hits to different subarrays overlap their
	// pulses; the same subarray serializes.
	dA, _ := b.Access(1000, 0x0000, true)
	dB, _ := b.Access(1001, 0x0040, true)
	if dB-dA > 8 {
		t.Errorf("writes to different subarrays should overlap: %d then %d", dA, dB)
	}
	// Park two same-subarray blocks: lines 0 and subArrays apart.
	sameSub := uint64(subArrays) * 64
	b.Access(2000, sameSub, false)
	dC, _ := b.Access(3000, 0x0000, true)
	dD, _ := b.Access(3001, sameSub, true)
	if dD-dC < b.hrWriteOcc-4 {
		t.Errorf("same-subarray writes should serialize: %d then %d (occ %d)", dC, dD, b.hrWriteOcc)
	}
}

// TestNoDirtyDataEverLost is the end-to-end data-integrity property of
// the whole two-part machinery: for ANY access pattern, every line that
// was ever written must — by drain time — either be written back to
// main memory or still be delivered by Drain. Migrations, swap-buffer
// overflows, refreshes, and retention expiries all sit on that path, so
// this catches any of them silently dropping a dirty block.
func TestNoDirtyDataEverLost(t *testing.T) {
	f := func(ops []uint16) bool {
		mc := dram.New(8, 2048, dram.DefaultTiming())
		mc.LogWrites = true
		b := NewTwoPartBank(TwoPartConfig{
			LRBytes: 1 << 10, LRWays: 2, LRCell: sttram.LRCell(),
			HRBytes: 4 << 10, HRWays: 4, HRCell: sttram.HRCell(),
			LineBytes: 64, ClockHz: testClock,
			BufferBlocks: 1, // stress the overflow paths
		}, mc)
		written := map[uint64]bool{}
		now := int64(0)
		for _, op := range ops {
			now += int64(op%173) + 1
			addr := uint64(op&0x03FF) << 6
			write := op&0x8000 != 0
			b.Access(now, addr, write)
			if write {
				written[addr] = true
			}
		}
		// Push time past both retention classes so expiry paths fire.
		b.Tick(now + b.hrRetCy + b.hrTickCy)
		b.Drain(now + b.hrRetCy + b.hrTickCy + 1)
		reached := map[uint64]bool{}
		for _, a := range mc.WriteLog {
			reached[a] = true
		}
		for a := range written {
			if !reached[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Drain must flush dirty lines from BOTH parts, leave the lines valid
// and clean, and deliver every flushed address to DRAM.
func TestDrainFlushesBothParts(t *testing.T) {
	b := newTestBank(func(c *TwoPartConfig) { c.WriteThreshold = 3 })
	b.mc.LogWrites = true
	b.Access(0, 0x1040, true) // TH=3: write miss allocates dirty into HR
	// Three writes to one block cross the threshold and migrate it
	// dirty into LR.
	b.Access(10, 0x2080, true)
	b.Access(20, 0x2080, true)
	b.Access(30, 0x2080, true)
	if b.stats.MigrationsToLR != 1 || b.stats.HRWriteFills != 2 {
		t.Fatalf("setup: %+v", b.stats)
	}
	wb := b.stats.DRAMWritebacks
	b.Drain(1000)
	if got := b.stats.DRAMWritebacks - wb; got != 2 {
		t.Fatalf("Drain wrote back %d lines, want 2 (one per part)", got)
	}
	logged := map[uint64]bool{}
	for _, a := range b.mc.WriteLog {
		logged[a] = true
	}
	if !logged[0x1040&^63] || !logged[0x2080&^63] {
		t.Errorf("drained addresses missing from DRAM write log: %v", b.mc.WriteLog)
	}
	// Drained lines stay resident, just clean.
	if set, way, ok := b.hr.Probe(0x1040); !ok || b.hr.DirtyAt(set, way) {
		t.Error("HR line should remain valid and clean after Drain")
	}
	if set, way, ok := b.lr.Probe(0x2080); !ok || b.lr.DirtyAt(set, way) {
		t.Error("LR line should remain valid and clean after Drain")
	}
	b.Drain(2000)
	if b.stats.DRAMWritebacks != wb+2 {
		t.Error("second Drain must be a no-op")
	}
}

// When the LR->HR buffer is full at a scan boundary, a due LR line
// cannot be refreshed: it is dropped (LRExpiryDrops), and a dirty drop
// is forced out to DRAM as an overflow writeback while a clean drop
// just disappears.
func TestLRExpiryDropsWhenRefreshBufferFull(t *testing.T) {
	b := newTestBank(func(c *TwoPartConfig) { c.BufferBlocks = 1 })
	b.Access(0, 0x40, true)  // LR line, dirty
	b.Drain(10)              // ...now clean (retention stamp still 0)
	b.Access(20, 0x80, true) // second LR line, dirty
	// Jam the LR->HR buffer past every scan boundary we will cross, so
	// tryEnqueue fails and the refresh path is unavailable.
	b.lr2hr.reserve(20, 8*b.lrRetCy)
	wb := b.stats.DRAMWritebacks
	b.Tick(b.lrRetCy + 2*b.lrTickCy)
	if b.stats.LRExpiryDrops != 2 {
		t.Fatalf("LRExpiryDrops = %d, want 2", b.stats.LRExpiryDrops)
	}
	if b.stats.Refreshes != 0 {
		t.Errorf("Refreshes = %d, want 0 (buffer was full)", b.stats.Refreshes)
	}
	if b.stats.OverflowWritebacks != 1 {
		t.Errorf("OverflowWritebacks = %d, want 1 (only the dirty line)", b.stats.OverflowWritebacks)
	}
	if b.stats.DRAMWritebacks != wb+1 {
		t.Errorf("DRAMWritebacks delta = %d, want 1", b.stats.DRAMWritebacks-wb)
	}
	if _, _, ok := b.lr.Probe(0x40); ok {
		t.Error("clean dropped line must be invalidated")
	}
	if _, _, ok := b.lr.Probe(0x80); ok {
		t.Error("dirty dropped line must be invalidated")
	}
}

// An LR victim that cannot enter the full LR->HR buffer is written back
// to DRAM if dirty (counted as an overflow writeback) and silently
// dropped if clean — it must not appear in HR either way.
func TestReturnToHRVictimOnFullBuffer(t *testing.T) {
	// LR: 2KB, 2 ways, 64B lines -> 16 sets; 1KB stride conflicts.
	const a0, a1, a2 = uint64(0x0000), uint64(0x0400), uint64(0x0800)

	t.Run("dirty", func(t *testing.T) {
		b := newTestBank(func(c *TwoPartConfig) { c.BufferBlocks = 1 })
		b.lr2hr.reserve(0, 1<<40) // buffer permanently full
		b.Access(100, a0, true)
		b.Access(200, a1, true)
		b.Access(300, a2, true) // evicts dirty a0
		if b.stats.EvictionsToHR != 0 {
			t.Errorf("EvictionsToHR = %d, want 0", b.stats.EvictionsToHR)
		}
		if b.stats.OverflowWritebacks != 1 || b.stats.DRAMWritebacks != 1 {
			t.Errorf("dirty victim should be written back: %+v", b.stats)
		}
		if _, _, ok := b.hr.Probe(a0); ok {
			t.Error("victim must not land in HR when the buffer is full")
		}
	})

	t.Run("clean", func(t *testing.T) {
		b := newTestBank(func(c *TwoPartConfig) { c.BufferBlocks = 1 })
		b.Access(100, a0, true)
		b.Drain(150) // a0 clean
		wb := b.stats.DRAMWritebacks
		b.lr2hr.reserve(150, 1<<40)
		b.Access(200, a1, true)
		b.Access(300, a2, true) // evicts clean a0
		if b.stats.OverflowWritebacks != 0 || b.stats.DRAMWritebacks != wb {
			t.Errorf("clean victim must not write back: %+v", b.stats)
		}
		if _, _, ok := b.hr.Probe(a0); ok {
			t.Error("clean victim must not land in HR when the buffer is full")
		}
		if _, _, ok := b.lr.Probe(a0); ok {
			t.Error("clean victim must be gone from LR")
		}
	})
}

func TestStaticThresholdNeverAdapts(t *testing.T) {
	b := newTestBank(func(c *TwoPartConfig) { c.BufferBlocks = 1 })
	now := int64(0)
	for i := 0; i < 200; i++ {
		now += 2
		b.Access(now, uint64(0x10000+i*0x1000), true)
	}
	b.Tick(now + 20*b.lrTickCy)
	if b.Threshold() != 1 || b.Stats().ReconfigThreshold != 0 {
		t.Errorf("static threshold moved: %d, transitions=%d", b.Threshold(), b.Stats().ReconfigThreshold)
	}
}
