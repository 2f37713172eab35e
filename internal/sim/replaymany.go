// ReplayMany: the fan-out half of record-once/replay-many. One recorded
// reference stream is decoded once and played into K bank/tier variants
// — a K-config sweep costs one full GPU simulation (the recording run)
// plus K cheap bank replays, instead of K full simulations. The variants
// are independent state machines over a read-only stream, so they replay
// on one goroutine each; wall clock is one replay, not K. Banks catch
// their retention counters up on access, so a replay feeds the records
// straight into Access with no tick timeline of its own. The replay
// loop is allocation-free in steady state (pinned by
// TestReplayManySteadyStateAllocFree).
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sttllc/internal/config"
	"sttllc/internal/trace"
)

// ReplayMany plays one recording into freshly built banks of every
// configuration in a single pass over the stream and returns one Result
// per configuration, in order. For the configuration the stream was
// recorded under, the bank-side statistics and power window match the
// recording run's own dump exactly (the warmup boundary and end cycle
// are both honored). Replays into *other* configurations are
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

// feedAll walks the stream through the same Access path the live SMs
// use, applying the warmup reset at the record index where the
// recording run applied it. Kernel phase markers need no replay: a
// bank's retention counters run on one timeline across launches.
func (rep *replayer) feedAll(rec *trace.Recording) {
	s := rep.s
	warm := rec.Warmed()
	for ri := range rec.Records {
		if warm && ri == rec.WarmupIndex {
			s.warmupReset(rec.WarmupCycle)
			warm = false
		}
		r := &rec.Records[ri]
		s.Access(r.Cycle, int(r.SM), r.Addr, r.Write)
	}
	if warm {
		s.warmupReset(rec.WarmupCycle)
	}
}

// replayer drives one configuration's memory system from a record
// stream. Banks catch their retention counters up on access, so the
// stream alone reproduces the live run's bank-visible call sequence.
type replayer struct {
	s *Simulator
}

func newReplayer(cfg config.GPUConfig, rec *trace.Recording) *replayer {
	name := rec.Workload
	if name == "" {
		name = "replay"
	}
	return &replayer{s: newReplaySimulator(cfg, name)}
}

// finalize drains the replayed memory system at the recording's end
// cycle (falling back to the last record for anonymous traces) and
// windows the rate metrics exactly as the recording run did.
func (rep *replayer) finalize(rec *trace.Recording) Result {
	end := rec.EndCycle
	if end == 0 && len(rec.Records) > 0 {
		end = rec.Records[len(rec.Records)-1].Cycle
	}
	start := int64(0)
	if rec.Warmed() {
		start = rec.WarmupCycle
	}
	return rep.s.finalizeWindow(start, end)
}
