// Observability wiring: how one Simulator publishes into the metrics
// registry and the timeline tracer. Everything here is read-side — the
// registry adopts counters the actors already maintain, and the tracer
// derives events from statistics deltas at each bank's retention-counter
// cadence, after catching the bank up the way its next access would —
// so an instrumented run computes bit-identical results to a bare one.
package sim

import (
	"fmt"

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

// registerMetrics publishes the simulator's observable state. Called
// once from New; the SM aggregates are closures over s.sms, so they
// survive the per-kernel SM rebuilds of application runs.
func (s *Simulator) registerMetrics() {
	if s.reg = s.opts.Metrics; s.reg == nil {
		s.reg = metrics.NewRegistry(false)
	}
	s.tracer = s.opts.Tracer
	r := s.reg

	s.mReq = r.NewCounter("sim.l2_requests")
	s.mLat = r.NewHistogram("sim.l2_latency_cycles", l2LatencyEdges...)
	r.RegisterFunc("engine.events_scheduled", func() uint64 { return s.engSched })
	r.RegisterFunc("engine.events_fired", func() uint64 { return s.engFired })

	s.spec.RegisterMetrics(r)
	for i, chain := range s.tiers {
		for ti, t := range chain {
			// Level-numbered namespaces: single-tier chains keep the
			// historical l2.bankN names, stacked tiers get l3.bankN etc.
			t.RegisterMetrics(r, fmt.Sprintf("l%d.bank%d", ti+2, i))
		}
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
	r.RegisterFunc("sm.instructions", sumSM(func(st gpu.SMStats) uint64 { return st.Instructions }))
	r.RegisterFunc("sm.loads", sumSM(func(st gpu.SMStats) uint64 { return st.Loads }))
	r.RegisterFunc("sm.stores", sumSM(func(st gpu.SMStats) uint64 { return st.Stores }))
	r.RegisterFunc("sm.store_stalls", sumSM(func(st gpu.SMStats) uint64 { return st.StoreStalls }))
	r.RegisterFunc("l1.hits", func() uint64 {
		var t uint64
		for _, sm := range s.sms {
			t += sm.L1Stats().Hits()
		}
		return t
	})
	r.RegisterFunc("l1.misses", func() uint64 {
		var t uint64
		for _, sm := range s.sms {
			t += sm.L1Stats().Misses()
		}
		return t
	})

	if s.tracer != nil {
		s.tracer.NameProcess("sttllc " + s.cfg.Name)
		s.tracer.NameThread(kernelTID, "kernel")
		for i := range s.banks {
			s.tracer.NameThread(bankTID(i), fmt.Sprintf("l2.bank%d", i))
		}
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

// Metrics returns the run's registry (the one from Options, or the
// private disabled one).
func (s *Simulator) Metrics() *metrics.Registry { return s.reg }
