package core

import (
	"sttllc/internal/dram"
	"sttllc/internal/metrics"
)

// registerBankStats adopts every BankStats counter under the scope. The
// stats struct is a field of a heap-allocated bank, and ResetStats
// assigns it in place, so the registered pointers stay valid for the
// bank's lifetime.
func registerBankStats(sc metrics.Scope, s *BankStats) {
	sc.External("reads", &s.Reads)
	sc.External("writes", &s.Writes)
	sc.External("read_hits", &s.ReadHits)
	sc.External("write_hits", &s.WriteHits)
	sc.External("lr_read_hits", &s.LRReadHits)
	sc.External("lr_write_hits", &s.LRWriteHits)
	sc.External("lr_write_fills", &s.LRWriteFills)
	sc.External("hr_read_hits", &s.HRReadHits)
	sc.External("hr_write_hits", &s.HRWriteHits)
	sc.External("hr_write_kept", &s.HRWriteKept)
	sc.External("hr_write_fills", &s.HRWriteFills)
	sc.External("migrations_to_lr", &s.MigrationsToLR)
	sc.External("evictions_to_hr", &s.EvictionsToHR)
	sc.External("refreshes", &s.Refreshes)
	sc.External("lr_expiry_drops", &s.LRExpiryDrops)
	sc.External("hr_expiries", &s.HRExpiries)
	sc.External("overflow_writebacks", &s.OverflowWritebacks)
	sc.External("dram_fills", &s.DRAMFills)
	sc.External("dram_writebacks", &s.DRAMWritebacks)
}

// registerDRAMStats adopts the memory controller's counters under the
// scope (each bank owns a private channel, so the controller's stats
// belong to the bank's namespace).
func registerDRAMStats(sc metrics.Scope, mc *dram.Controller) {
	s := &mc.Stats
	sc.External("reads", &s.Reads)
	sc.External("writes", &s.Writes)
	sc.External("row_hits", &s.RowHits)
	sc.External("row_misses", &s.RowMisses)
	sc.External("stall_cycles", &s.StallCyc)
}

// RegisterMetrics implements Bank for the two-part organization: the
// bank-level event counters, both parts' array counters, the private
// DRAM channel, and the WWS monitor's live threshold.
func (b *TwoPartBank) RegisterMetrics(sc metrics.Scope) {
	if !sc.Enabled() {
		return
	}
	registerBankStats(sc, &b.stats)
	b.lr.RegisterMetrics(sc.Sub("lr"))
	b.hr.RegisterMetrics(sc.Sub("hr"))
	if b.mc != nil { // chained tiers have no private DRAM channel
		registerDRAMStats(sc.Sub("dram"), b.mc)
	}
	sc.Func("write_threshold", func() uint64 { return uint64(b.threshold) })
}

// RegisterMetrics implements Bank for the uniform organization.
func (b *UniformBank) RegisterMetrics(sc metrics.Scope) {
	if !sc.Enabled() {
		return
	}
	registerBankStats(sc, &b.stats)
	b.arr.RegisterMetrics(sc.Sub("array"))
	if b.mc != nil { // chained tiers have no private DRAM channel
		registerDRAMStats(sc.Sub("dram"), b.mc)
	}
}
