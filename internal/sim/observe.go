// Observability wiring: how one Simulator publishes into the metrics
// registry and the timeline tracer. Everything here is read-side — the
// registry adopts counters the actors already maintain, and the tracer
// derives events from statistics deltas at each bank's retention-counter
// cadence, after catching the bank up the way its next access would —
// so an instrumented run computes bit-identical results to a bare one.
package sim

import (
	"fmt"
	"sync"

	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/gpu"
	"sttllc/internal/metrics"
)

// kernelTID is the trace track carrying kernel phases and run-level
// markers; bank i's track is bankTID(i).
const kernelTID = 0

func bankTID(i int) int { return i + 1 }

// l2LatencyEdges buckets the end-to-end L2 request latency (cycles from
// SM issue to reply delivery, DRAM included on miss).
var l2LatencyEdges = []int64{64, 128, 256, 512, 1024, 2048, 4096}

// metricShape is what a simulator's metric names depend on: the bank
// count, the tier kind at each level, and whether the C4 controller
// registers its counters. Runs of one shape register the same name
// sequence, so they share one metrics.Table.
type metricShape struct {
	banks    int
	kinds    [maxShapeLevels]config.TierKind
	adaptive bool
}

// maxShapeLevels bounds the hierarchies whose tables are cached; a
// deeper one names its metrics on every run.
const maxShapeLevels = 4

// maxShapeTables bounds the table cache. Every named configuration and
// its overrides fit many times over; shapes past the bound name their
// metrics on every run instead of growing the cache.
const maxShapeTables = 64

var shapeTables struct {
	sync.Mutex
	m map[metricShape]*metrics.Table
}

// metricShape returns the simulator's shape and whether its table may
// be cached.
func (s *Simulator) metricShape() (metricShape, bool) {
	k := metricShape{banks: len(s.tiers), adaptive: s.cfg.Adaptive.Enabled}
	if len(s.hier) > maxShapeLevels {
		return k, false
	}
	for i, t := range s.hier {
		k.kinds[i] = t.Kind
	}
	return k, true
}

// registerMetrics publishes the simulator's observable state into
// s.reg. A registry supplied by the caller binds the shape's cached
// name table when there is one, and seeds the cache when there is not;
// the private disabled registry registers nothing. The SM aggregates
// are closures over s.sms, so they survive the per-kernel SM rebuilds
// of application runs.
func (s *Simulator) registerMetrics() {
	r := s.reg
	shape, cacheable := s.metricShape()
	// Only a registry that starts empty registers exactly the shape's
	// sequence.
	cacheable = cacheable && r.Enabled() && r.Len() == 0
	if cacheable {
		shapeTables.Lock()
		r.Bind(shapeTables.m[shape])
		shapeTables.Unlock()
	}
	s.mReq = r.NewCounter("sim.l2_requests")
	s.mLat = r.NewHistogram("sim.l2_latency_cycles", l2LatencyEdges...)
	if !r.Enabled() {
		return
	}
	sc := r.Scope()
	sc.Func("engine.events_scheduled", func() uint64 { return s.engSched })
	sc.Func("engine.events_fired", func() uint64 { return s.engFired })

	s.app.Kernels[0].RegisterMetrics(sc) // the workload shape the run starts with
	for i, chain := range s.tiers {
		for ti, t := range chain {
			// Level-numbered namespaces: single-tier chains keep the
			// historical l2.bankN names, stacked tiers get l3.bankN etc.
			t.RegisterMetrics(sc.SubN("l", ti+2).SubN("bank", i))
		}
	}
	if s.cfg.Adaptive.Enabled {
		// The transition counters live in each two-part L2 bank's stats
		// struct; Stats() is a stable pointer (ResetStats zeroes in
		// place), so external registration costs the access path
		// nothing.
		for i, b := range s.banks {
			if tp, ok := b.(*core.TwoPartBank); ok {
				st, bsc := tp.Stats(), sc.SubN("l2.bank", i)
				bsc.External("reconfig_threshold", &st.ReconfigThreshold)
				bsc.External("reconfig_lr_resize", &st.ReconfigLRResize)
				bsc.External("reconfig_retention", &st.ReconfigRetention)
				bsc.External("reconfig_demotions", &st.ReconfigDemotions)
			}
		}
		sc.Func("adaptive.epochs", func() uint64 { return s.adapt.epochs })
	}

	// SM-side aggregates sum over the live SM set at snapshot time.
	sumSM := func(f func(st gpu.SMStats) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, sm := range s.sms {
				t += f(sm.Stats())
			}
			return t
		}
	}
	sc.Func("sm.instructions", sumSM(func(st gpu.SMStats) uint64 { return st.Instructions }))
	sc.Func("sm.loads", sumSM(func(st gpu.SMStats) uint64 { return st.Loads }))
	sc.Func("sm.stores", sumSM(func(st gpu.SMStats) uint64 { return st.Stores }))
	sc.Func("sm.store_stalls", sumSM(func(st gpu.SMStats) uint64 { return st.StoreStalls }))
	sc.Func("l1.hits", func() uint64 {
		var t uint64
		for _, sm := range s.sms {
			t += sm.L1Stats().Hits()
		}
		return t
	})
	sc.Func("l1.misses", func() uint64 {
		var t uint64
		for _, sm := range s.sms {
			t += sm.L1Stats().Misses()
		}
		return t
	})

	if cacheable {
		t := r.Table() // for a bound registry, checks it reached the table's end
		shapeTables.Lock()
		if shapeTables.m == nil {
			shapeTables.m = make(map[metricShape]*metrics.Table)
		}
		if _, ok := shapeTables.m[shape]; !ok && len(shapeTables.m) < maxShapeTables {
			shapeTables.m[shape] = t
		}
		shapeTables.Unlock()
	}
}

// nameTracks labels the tracer's process and tracks.
func (s *Simulator) nameTracks() {
	s.tracer.NameProcess("sttllc " + s.cfg.Name)
	s.tracer.NameThread(kernelTID, "kernel")
	for i := range s.banks {
		s.tracer.NameThread(bankTID(i), fmt.Sprintf("l2.bank%d", i))
	}
}

// bankTrace turns one bank's per-window statistics deltas into timeline
// events on the bank's track.
type bankTrace struct {
	s    *Simulator
	b    core.Bank
	tid  int
	wbs  string // counter-track name for cumulative DRAM writebacks
	prev core.BankStats
}

func (s *Simulator) newBankTrace(i int, b core.Bank) *bankTrace {
	return &bankTrace{
		s: s, b: b, tid: bankTID(i),
		wbs:  fmt.Sprintf("l2.bank%d.dram_writebacks", i),
		prev: *b.Stats(),
	}
}

// emit reports the window ending at cycle at. A stats reset (the warmup
// boundary) makes counters go backwards; such windows only rebase.
func (t *bankTrace) emit(at int64) {
	st := t.b.Stats()
	tr := t.s.tracer
	if st.Refreshes >= t.prev.Refreshes {
		if d := st.Refreshes - t.prev.Refreshes; d > 0 {
			tr.Instant(t.tid, "refresh-window", at, map[string]any{"lines": d})
		}
	}
	if st.OverflowWritebacks >= t.prev.OverflowWritebacks {
		if d := st.OverflowWritebacks - t.prev.OverflowWritebacks; d > 0 {
			tr.Instant(t.tid, "swap-buffer-overflow", at, map[string]any{"writebacks": d})
		}
	}
	if st.HRExpiries >= t.prev.HRExpiries {
		if d := st.HRExpiries - t.prev.HRExpiries; d > 0 {
			tr.Instant(t.tid, "hr-expiry", at, map[string]any{"lines": d})
		}
	}
	if st.MigrationsToLR >= t.prev.MigrationsToLR {
		if d := st.MigrationsToLR - t.prev.MigrationsToLR; d > 0 {
			tr.Instant(t.tid, "migration-to-lr", at, map[string]any{"blocks": d})
		}
	}
	if st.DRAMWritebacks != t.prev.DRAMWritebacks {
		tr.CounterSample(t.wbs, at, st.DRAMWritebacks)
	}
	t.prev = *st
}
