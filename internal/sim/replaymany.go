// ReplayMany: the fan-out half of record-once/replay-many. One recorded
// L2 reference stream is played into K bank/tier variants, so a K-config
// sweep costs one full GPU simulation (the recording run) plus K bank
// replays instead of K full simulations.
//
// The replay is bank-major. A replayed access touches only its own
// bank's state: the bank's request port, its tier chain and its DRAM
// controller; the reply path is uncontended. So the stream is split by
// bank once per (bank count, line size) shape among the configurations,
// into per-bank runs of compact 16-byte records that every
// configuration of that shape reads, and the work is one task per
// (configuration, bank). A task feeds one bank's run into that bank
// while its tag arrays, MSHR and DRAM rows stay in the CPU cache. It
// keeps the state Access shares across banks (the request port, the
// request and latency counts) in locals, which the configuration's
// last task merges in bank order before finalizing it. Banks catch
// their retention counters up on access, so a task feeds records
// straight into Access with no tick timeline of its own. The feed loop
// is allocation-free (TestReplayManySteadyStateAllocFree) and a whole
// call allocates nothing per record
// (TestReplayManyAllocsIndependentOfLength).
//
// One worker per core runs the tasks: it claims a configuration and
// replays its banks in turn, and once every configuration is claimed
// it takes banks no worker has started. Two workers replaying banks of
// one configuration slow each other down, so they do that only in the
// tail of a sweep and in a single-configuration replay, which uses
// every core.
//
// Replays run no C4 controller: its epoch decisions would need every
// bank at one point in time, and the recorded stream cannot feed its
// timing back anyway (DESIGN.md §13, §15).
package sim

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/interconnect"
	"sttllc/internal/metrics"
	"sttllc/internal/trace"
)

// ReplayMany plays one recording into freshly built banks of every
// configuration and returns one Result per configuration, in order. For
// the configuration the stream was recorded under, the bank-side
// statistics and power window match the recording run's own dump
// exactly (the warmup boundary and end cycle are both honored).
// Replays into *other* configurations are trace-driven approximations:
// the stream was shaped by the recording configuration's timing, and a
// variant's own latencies cannot feed back into it (see DESIGN.md §13
// for when this is and isn't exact). Results do not depend on the
// number of workers or on how their tasks interleave.
//
// rec must be internally consistent (Record and ReadRecording both
// guarantee it); a malformed recording panics, like any other
// construction error in this package, and so does a record whose SM is
// outside a configuration, with the reply network's bounds-check
// message. rec is read-only throughout, so concurrent ReplayMany calls
// may share one recording.
func ReplayMany(rec *trace.Recording, cfgs []config.GPUConfig) []Result {
	if err := rec.Validate(); err != nil {
		panic("sim: replay of malformed recording: " + err.Error())
	}
	name := rec.Workload
	if name == "" {
		name = "replay"
	}
	checkSMs(rec, cfgs)
	jobs := make([]replayJob, len(cfgs))
	var splits []*bankSplit
	banks := 0
	for i, cfg := range cfgs {
		j := &jobs[i]
		j.cfg, j.name = cfg, name
		for _, sp := range splits {
			if sp.banks == cfg.NumBanks && sp.lineBytes == cfg.LineBytes {
				j.split = sp
				break
			}
		}
		if j.split == nil {
			j.split = splitByBank(rec, cfg.NumBanks, cfg.LineBytes)
			splits = append(splits, j.split)
		}
		j.left.Store(int32(cfg.NumBanks))
		banks += cfg.NumBanks
	}

	// Workers replay different configurations until the tail of the
	// call, no worker idles while a bank is left, and about one memory
	// system per worker is alive at a time.
	out := make([]Result, len(cfgs))
	workers := min(runtime.GOMAXPROCS(0), banks)
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(claimed.Add(1)) - 1; i < len(jobs); i = int(claimed.Add(1)) - 1 {
				jobs[i].replayBanks(rec, &out[i])
			}
			for i := range jobs {
				jobs[i].replayBanks(rec, &out[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// replayJob is one configuration's replay: its simulator, built by the
// first worker to start one of its banks, and what each bank's replay
// left for finalize to merge.
type replayJob struct {
	cfg   config.GPUConfig
	name  string
	split *bankSplit
	once  sync.Once
	s     *Simulator
	feeds []bankFeed
	next  atomic.Int32 // banks started
	left  atomic.Int32 // banks not yet finished
}

func (j *replayJob) build() {
	j.s = newReplaySimulator(j.cfg, j.name)
	j.feeds = make([]bankFeed, j.cfg.NumBanks)
}

// replayBanks replays banks of the configuration until none is left to
// start. Whichever worker finishes the last bank finalizes the
// configuration into out and lets its memory system go.
func (j *replayJob) replayBanks(rec *trace.Recording, out *Result) {
	for {
		b := int(j.next.Add(1)) - 1
		if b >= j.cfg.NumBanks {
			return
		}
		j.once.Do(j.build)
		j.replayBank(b, rec)
		if j.left.Add(-1) == 0 {
			*out = j.finalize(rec)
			j.s, j.feeds = nil, nil
		}
	}
}

// replayBank feeds bank b its run, applying the warmup reset where the
// bank's run crosses the recording's warmup index. The bank's state
// between its last record before the boundary and its first record
// after it is untouched by other banks' records, so resetting it there
// is the reset the recording run applied. A bank with no records past
// the boundary resets after its last record.
func (j *replayJob) replayBank(b int, rec *trace.Recording) {
	s, sp := j.s, j.split
	run := sp.recs[sp.off[b]:sp.off[b+1]]
	f := s.newBankFeed(b)
	if rec.Warmed() {
		f.feed(run[:sp.warm[b]])
		s.warmupResetBank(b, rec.WarmupCycle)
		run = run[sp.warm[b]:]
	}
	f.feed(run)
	j.feeds[b] = f
}

// finalize merges the banks' feeds in bank order, drains the replayed
// memory system at the recording's end cycle (falling back to the last
// record for anonymous traces) and windows the rate metrics exactly as
// the recording run did.
func (j *replayJob) finalize(rec *trace.Recording) Result {
	s := j.s
	for b := range j.feeds {
		s.mergeBankFeed(b, &j.feeds[b])
	}
	end := rec.EndCycle
	if end == 0 && len(rec.Records) > 0 {
		end = rec.Records[len(rec.Records)-1].Cycle
	}
	start := int64(0)
	if rec.Warmed() {
		start = rec.WarmupCycle
	}
	return s.finalizeWindow(start, end)
}

// bankFeed drives one bank the way Access does, with the state Access
// shares across banks held privately: the bank's request port, its
// reply count (every reply is uncontended, so a count is all the reply
// network keeps) and its latency histogram.
type bankFeed struct {
	top   core.Bank
	shift uint  // log2(line bytes)
	reply int64 // reply network latency
	port  interconnect.Port
	lat   *metrics.Histogram
	n     uint64 // requests fed
}

func (s *Simulator) newBankFeed(b int) bankFeed {
	return bankFeed{
		top:   s.banks[b],
		shift: s.lineShift,
		reply: s.replyNet.BaseLatency(),
		port:  s.reqNet.Port(b),
		lat:   s.mLat.Local(),
	}
}

// feed plays a run of the bank's records, in order.
func (f *bankFeed) feed(run []bankRecord) {
	for _, r := range run {
		done, _ := f.top.Access(f.port.Deliver(r.cycle), r.key>>1<<f.shift, r.key&1 != 0)
		f.lat.Observe(done + f.reply - r.cycle)
	}
	f.n += uint64(len(run))
}

// mergeBankFeed folds bank b's feed into the simulator's shared state.
func (s *Simulator) mergeBankFeed(b int, f *bankFeed) {
	s.reqNet.MergePort(b, f.port)
	s.replyNet.Stats.Transfers += f.n
	s.mReq.Add(f.n)
	s.mLat.Merge(f.lat)
}

// bankRecord is one record of a bank's run: the cycle it entered the
// memory system, and its bank-local line number shifted left once with
// the write flag in bit 0.
type bankRecord struct {
	cycle int64
	key   uint64
}

// bankSplit is a recording split by bank for one (bank count, line
// size) shape. Bank b's records, in stream order, are
// recs[off[b]:off[b+1]]; the first warm[b] of them come before the
// recording's warmup index.
type bankSplit struct {
	banks, lineBytes int
	recs             []bankRecord
	off              []int
	warm             []int
}

// splitByBank routes every record to its bank once, as Access does,
// with a stable counting sort: one pass counts each bank's records and
// a second places them.
func splitByBank(rec *trace.Recording, banks, lineBytes int) *bankSplit {
	router := newBankRouter(banks)
	shift := uint(bits.TrailingZeros(uint(lineBytes)))
	sp := &bankSplit{
		banks: banks, lineBytes: lineBytes,
		recs: make([]bankRecord, len(rec.Records)),
		off:  make([]int, banks+1),
		warm: make([]int, banks),
	}
	wi := len(rec.Records)
	if rec.Warmed() {
		wi = rec.WarmupIndex
	}
	count := sp.off[1:]
	countBanks := func(recs []trace.Record) {
		for i := range recs {
			b, _ := router.route(recs[i].Addr >> shift)
			count[b]++
		}
	}
	countBanks(rec.Records[:wi])
	copy(sp.warm, count)
	countBanks(rec.Records[wi:])
	for b := 1; b <= banks; b++ {
		sp.off[b] += sp.off[b-1]
	}
	next := append([]int(nil), sp.off[:banks]...)
	for i := range rec.Records {
		r := &rec.Records[i]
		b, q := router.route(r.Addr >> shift)
		key := q << 1
		if r.Write {
			key |= 1
		}
		sp.recs[next[b]] = bankRecord{cycle: r.Cycle, key: key}
		next[b]++
	}
	return sp
}

// checkSMs panics if the stream names an SM outside one of the
// configurations, exactly as that configuration's reply network's
// bounds check does at the first such record.
func checkSMs(rec *trace.Recording, cfgs []config.GPUConfig) {
	top := -1
	for i := range rec.Records {
		top = max(top, int(rec.Records[i].SM))
	}
	for _, cfg := range cfgs {
		if top < cfg.NumSMs {
			continue
		}
		replies := interconnect.New(cfg.NumBanks, cfg.NumSMs, cfg.NoCStageCycles)
		for i := range rec.Records {
			replies.DeliverUncontended(0, int(rec.Records[i].SM))
		}
	}
}
