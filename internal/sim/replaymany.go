// ReplayMany: the fan-out half of record-once/replay-many. One recorded
// reference stream is decoded once and played into K bank/tier variants
// — a K-config sweep costs one full GPU simulation (the recording run)
// plus K cheap bank replays, instead of K full simulations. The variants
// are independent state machines over a read-only stream, so they replay
// on one goroutine each; wall clock is one replay, not K. The replay
// loop is allocation-free in steady state (pinned by
// TestReplayManySteadyStateAllocFree).
package sim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/trace"
)

// ReplayMany plays one recording into freshly built banks of every
// configuration in a single pass over the stream and returns one Result
// per configuration, in order. Each Result is byte-identical to what an
// independent sim.Replay of the same stream into that configuration
// produces; for the configuration the stream was recorded under, the
// bank-side statistics and power window also match the recording run's
// own dump exactly (warmup boundary, kernel-phase tick phasing, and end
// cycle are all honored). Replays into *other* configurations are
// trace-driven approximations: the stream was shaped by the recording
// configuration's timing, and a variant's own latencies cannot feed
// back into it (see DESIGN.md §13 for when this is and isn't exact).
//
// rec must be internally consistent (Record and ReadRecording both
// guarantee it); a malformed recording panics, like any other
// construction error in this package. rec is read-only throughout, so
// concurrent ReplayMany calls may share one recording.
func ReplayMany(rec *trace.Recording, cfgs []config.GPUConfig) []Result {
	if err := rec.Validate(); err != nil {
		panic("sim: replay of malformed recording: " + err.Error())
	}
	out := make([]Result, len(cfgs))
	// One worker per core, not per config: each in-flight replayer pins
	// a full bank hierarchy, so unbounded fan-out trades GC pressure for
	// parallelism it can't use. On a single core this degenerates to the
	// sequential pass.
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				rep := newReplayer(cfgs[i], rec)
				rep.feedAll(rec)
				out[i] = rep.finalize(rec)
			}
		}()
	}
	wg.Wait()
	return out
}

// feedAll walks the stream, applying phase and warmup markers at the
// record indices where the recording run applied them. Marker order
// matches the live simulator: a kernel launch precedes the in-kernel
// warmup reset at the same index.
func (rep *replayer) feedAll(rec *trace.Recording) {
	phase := 0
	warm := rec.Warmed()
	for ri := range rec.Records {
		for phase < len(rec.Phases) && rec.Phases[phase].Index == ri {
			rep.newSegment(rec.Phases[phase].Cycle)
			phase++
		}
		if warm && ri == rec.WarmupIndex {
			rep.warmupReset(rec.WarmupCycle)
			warm = false
		}
		rep.feed(&rec.Records[ri])
	}
	for ; phase < len(rec.Phases); phase++ {
		rep.newSegment(rec.Phases[phase].Cycle)
	}
	if warm {
		rep.warmupReset(rec.WarmupCycle)
	}
}

// replayer drives one configuration's memory system from a record
// stream, reproducing the live run's bank-visible call sequence: every
// periodic retention tick fires at the cycle the event engine would
// have fired it, before any access issued at or after that cycle.
type replayer struct {
	s *Simulator
	// ticking tracks each tier with periodic bookkeeping (SRAM tiers
	// and refresh-free stacked tiers have none).
	ticking []tickState
	// due is the earliest next over ticking (MaxInt64 when nothing
	// ticks), so advanceTo is one compare between ticks.
	due int64
}

type tickState struct {
	b      core.Bank
	next   int64
	period int64
}

func newReplayer(cfg config.GPUConfig, rec *trace.Recording) *replayer {
	name := rec.Workload
	if name == "" {
		name = "replay"
	}
	rep := &replayer{s: newReplaySimulator(cfg, name)}
	for _, b := range rep.s.flat {
		if p := b.TickPeriod(); p > 0 {
			rep.ticking = append(rep.ticking, tickState{b: b, period: p})
		}
	}
	rep.rearm(0)
	return rep
}

// advanceTo fires every pending tick with fire time <= now, in time
// order per bank — exactly the ticks the live engine fires before the
// visit loop reaches an access issued at cycle now.
func (rep *replayer) advanceTo(now int64) {
	if now < rep.due {
		return
	}
	due := int64(math.MaxInt64)
	for i := range rep.ticking {
		t := &rep.ticking[i]
		for t.next <= now {
			t.b.Tick(t.next)
			t.next += t.period
		}
		due = min(due, t.next)
	}
	rep.due = due
}

// rearm schedules every bank's next tick one period after start, the
// way a fresh timer engine arms them.
func (rep *replayer) rearm(start int64) {
	rep.due = math.MaxInt64
	for i := range rep.ticking {
		t := &rep.ticking[i]
		t.next = start + t.period
		rep.due = min(rep.due, t.next)
	}
}

// feed replays one access: catch the tick timeline up to the issue
// cycle, then issue through the same Access path the live SMs use.
func (rep *replayer) feed(r *trace.Record) {
	rep.advanceTo(r.Cycle)
	rep.s.Access(r.Cycle, int(r.SM), r.Addr, r.Write)
}

// newSegment begins a kernel phase at cycle start: the previous
// kernel's drive fired its ticks through its end cycle (== start), and
// the next kernel's timer engine re-arms every bank at start+period.
func (rep *replayer) newSegment(start int64) {
	rep.advanceTo(start)
	rep.rearm(start)
}

// warmupReset replays the warmup boundary: the live reset fires when
// the drive loop visits the boundary cycle, before that cycle's ticks,
// so only ticks strictly before it are due first.
func (rep *replayer) warmupReset(boundary int64) {
	rep.advanceTo(boundary - 1)
	for _, b := range rep.s.flat {
		b.ResetStats()
		b.RebaseRewriteClock(boundary)
	}
}

// finalize drains the replayed memory system at the recording's end
// cycle (falling back to the last record for anonymous traces) and
// windows the rate metrics exactly as the recording run did.
func (rep *replayer) finalize(rec *trace.Recording) Result {
	end := rec.EndCycle
	if end == 0 && len(rec.Records) > 0 {
		end = rec.Records[len(rec.Records)-1].Cycle
	}
	rep.advanceTo(end)
	start := int64(0)
	if rec.Warmed() {
		start = rec.WarmupCycle
	}
	return rep.s.finalizeWindow(start, end)
}
