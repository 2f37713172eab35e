package workloads

import "sttllc/internal/metrics"

// RegisterMetrics publishes the spec's workload-shape parameters as
// gauges, so a stats dump is self-describing: the counters it carries
// can be normalized (per instruction, per byte of footprint) without
// consulting the suite table that produced them.
func (s Spec) RegisterMetrics(sc metrics.Scope) {
	sc.Gauge("workload.footprint_bytes").Set(s.FootprintBytes)
	sc.Gauge("workload.wws_bytes").Set(s.WWSBytes)
	sc.Gauge("workload.warps_per_sm").Set(uint64(s.WarpsPerSM))
	sc.Gauge("workload.instr_per_warp").Set(uint64(s.InstrPerWarp))
	sc.Gauge("workload.grids").Set(uint64(s.Grids))
	sc.Gauge("workload.region").Set(uint64(s.Region))
}
