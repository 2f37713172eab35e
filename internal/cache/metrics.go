package cache

import "sttllc/internal/metrics"

// RegisterMetrics adopts the array's stats counters into a metrics
// registry under the scope (e.g. "l2.bank0.lr"). The Stats fields stay
// the hot-path storage — the registry only reads them at snapshot time
// — and they remain valid across Reset, which assigns the struct in
// place. The cache must outlive the registry's snapshots.
func (c *Cache) RegisterMetrics(sc metrics.Scope) {
	if !sc.Enabled() {
		return
	}
	s := &c.Stats
	sc.External("read_hits", &s.ReadHits)
	sc.External("read_misses", &s.ReadMisses)
	sc.External("write_hits", &s.WriteHits)
	sc.External("write_misses", &s.WriteMisses)
	sc.External("fills", &s.Fills)
	sc.External("evictions", &s.Evictions)
	sc.External("dirty_evictions", &s.DirtyEvict)
	sc.External("invalidates", &s.Invalidates)
	sc.Func("valid_lines", func() uint64 { return uint64(c.ValidLines()) })
}
