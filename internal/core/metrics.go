package core

import (
	"sttllc/internal/dram"
	"sttllc/internal/metrics"
)

// registerBankStats adopts every BankStats counter under prefix. The
// stats struct is a field of a heap-allocated bank, and ResetStats
// assigns it in place, so the registered pointers stay valid for the
// bank's lifetime.
func registerBankStats(r *metrics.Registry, prefix string, s *BankStats) {
	ext := func(name string, p *uint64) { r.RegisterExternal(prefix+"."+name, p) }
	ext("reads", &s.Reads)
	ext("writes", &s.Writes)
	ext("read_hits", &s.ReadHits)
	ext("write_hits", &s.WriteHits)
	ext("lr_read_hits", &s.LRReadHits)
	ext("lr_write_hits", &s.LRWriteHits)
	ext("lr_write_fills", &s.LRWriteFills)
	ext("hr_read_hits", &s.HRReadHits)
	ext("hr_write_hits", &s.HRWriteHits)
	ext("hr_write_kept", &s.HRWriteKept)
	ext("hr_write_fills", &s.HRWriteFills)
	ext("migrations_to_lr", &s.MigrationsToLR)
	ext("evictions_to_hr", &s.EvictionsToHR)
	ext("refreshes", &s.Refreshes)
	ext("lr_expiry_drops", &s.LRExpiryDrops)
	ext("hr_expiries", &s.HRExpiries)
	ext("overflow_writebacks", &s.OverflowWritebacks)
	ext("dram_fills", &s.DRAMFills)
	ext("dram_writebacks", &s.DRAMWritebacks)
}

// registerDRAMStats adopts the memory controller's counters under
// prefix (each bank owns a private channel, so the controller's stats
// belong to the bank's namespace).
func registerDRAMStats(r *metrics.Registry, prefix string, mc *dram.Controller) {
	s := &mc.Stats
	r.RegisterExternal(prefix+".reads", &s.Reads)
	r.RegisterExternal(prefix+".writes", &s.Writes)
	r.RegisterExternal(prefix+".row_hits", &s.RowHits)
	r.RegisterExternal(prefix+".row_misses", &s.RowMisses)
	r.RegisterExternal(prefix+".stall_cycles", &s.StallCyc)
}

// RegisterMetrics implements Bank for the two-part organization: the
// bank-level event counters, both parts' array counters, the private
// DRAM channel, and the WWS monitor's live threshold.
func (b *TwoPartBank) RegisterMetrics(r *metrics.Registry, prefix string) {
	registerBankStats(r, prefix, &b.stats)
	b.lr.RegisterMetrics(r, prefix+".lr")
	b.hr.RegisterMetrics(r, prefix+".hr")
	if b.mc != nil { // chained tiers have no private DRAM channel
		registerDRAMStats(r, prefix+".dram", b.mc)
	}
	r.RegisterFunc(prefix+".write_threshold", func() uint64 { return uint64(b.threshold) })
}

// RegisterMetrics implements Bank for the uniform organization.
func (b *UniformBank) RegisterMetrics(r *metrics.Registry, prefix string) {
	registerBankStats(r, prefix, &b.stats)
	b.arr.RegisterMetrics(r, prefix+".array")
	if b.mc != nil { // chained tiers have no private DRAM channel
		registerDRAMStats(r, prefix+".dram", b.mc)
	}
}
