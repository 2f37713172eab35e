package core

import (
	"testing"

	"sttllc/internal/engine"
)

// TestHRExpiryWritebackAtSimulatedTime pins down WHEN retention expiry
// happens, not just whether: with periodic bank ticks driven by the
// event engine (wired as sim.drive wires its observer ticks), a dirty block
// parked in HR past its retention window must be invalidated and
// written back at the first retention-counter scan boundary after the
// window closes — mid-run, at simulated time — rather than being
// discovered by the finalize-time Tick/Drain sweep.
func TestHRExpiryWritebackAtSimulatedTime(t *testing.T) {
	// Threshold 3 parks the dirty write-miss allocation in HR.
	b := newTestBank(func(c *TwoPartConfig) { c.WriteThreshold = 3 })
	b.mc.LogWrites = true

	const addr = 0x7000
	b.Access(0, addr, true)
	if b.stats.HRWriteFills != 1 {
		t.Fatalf("setup: dirty block should allocate into HR, stats %+v", b.stats)
	}

	// Wire periodic ticks the way the simulator's observers do: one
	// self-rearming event per bank at the bank's TickPeriod cadence.
	eng := engine.New(0)
	p := b.TickPeriod()
	if p <= 0 {
		t.Fatalf("TickPeriod = %d, want > 0 for the two-part bank", p)
	}
	var tick engine.Func
	tick = func(at int64) {
		b.Tick(at)
		eng.Schedule(at+p, tick)
	}
	eng.Schedule(p, tick)

	// HR scans run at multiples of hrTickCy; the block (retention stamp
	// 0) expires at the first scan boundary >= hrRetCy.
	expireAt := ((b.hrRetCy + b.hrTickCy - 1) / b.hrTickCy) * b.hrTickCy

	// One cycle before the boundary: the block must still be live.
	eng.RunUntil(expireAt - 1)
	if b.stats.HRExpiries != 0 {
		t.Fatalf("HR line expired before its retention boundary (cycle %d)", expireAt)
	}
	if _, _, inHR := b.hr.Probe(addr); !inHR {
		t.Fatal("block vanished from HR before expiry")
	}
	if b.stats.DRAMWritebacks != 0 {
		t.Fatalf("premature writebacks: %d", b.stats.DRAMWritebacks)
	}

	// At the boundary — still mid-run, no Drain, no finalize — the
	// engine-delivered tick must invalidate the line and write it back.
	eng.RunUntil(expireAt)
	if b.stats.HRExpiries != 1 {
		t.Fatalf("HRExpiries = %d at cycle %d, want 1", b.stats.HRExpiries, expireAt)
	}
	if _, _, inHR := b.hr.Probe(addr); inHR {
		t.Error("expired HR line must be invalidated at the scan boundary")
	}
	if b.stats.DRAMWritebacks != 1 {
		t.Errorf("DRAMWritebacks = %d, want 1 (the expired dirty line)", b.stats.DRAMWritebacks)
	}
	found := false
	for _, a := range b.mc.WriteLog {
		if a == addr {
			found = true
		}
	}
	if !found {
		t.Error("expired line's writeback never reached the DRAM channel")
	}

	// Finalize afterwards has nothing left to do for this line: the
	// expiry already flushed it, so Drain must not write anything back.
	wb := b.stats.DRAMWritebacks
	b.Drain(expireAt + 1)
	if b.stats.DRAMWritebacks != wb {
		t.Errorf("Drain wrote back %d extra lines; expiry should have flushed the dirty block already",
			b.stats.DRAMWritebacks-wb)
	}
}
