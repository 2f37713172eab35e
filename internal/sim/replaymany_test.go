package sim

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"testing"

	"sttllc/internal/cache"
	"sttllc/internal/config"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

// sweepSpec is the small-but-nontrivial workload the replay tests
// record: big enough to exercise migrations, refresh, and expiry, small
// enough that recording it six times stays fast.
func sweepSpec() workloads.Spec {
	spec, _ := workloads.ByName("bfs")
	spec = spec.Scale(0.05)
	spec.WarpsPerSM = 6
	return spec
}

// sweepConfigs is the PR's comparison set: the five paper
// configurations plus the three-level C2 variant.
func sweepConfigs() []config.GPUConfig {
	return []config.GPUConfig{
		config.BaselineSRAM(),
		config.BaselineSTT(),
		config.C1(),
		config.C2(),
		config.C3(),
		config.C2L3(),
	}
}

// bankSide extracts the bank-observable part of a dump — the L2
// counters, the power window, and the hierarchy roll-up — as canonical
// JSON. SM-side fields (instructions, IPC) are excluded by design:
// replays have no SMs.
func bankSide(t *testing.T, d StatsDump) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Cycles int64
		L2     L2Dump
		Power  PowerDump
		Tiers  []TierDump
	}{d.Cycles, d.L2, d.Power, d.Tiers})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func TestReplayManyBitIdenticalToRecordingRun(t *testing.T) {
	// The acceptance bar: for every compared configuration, recording
	// under it and replaying the recording back into it must reproduce
	// the full run's bank-side dump byte-for-byte.
	spec := sweepSpec()
	for _, cfg := range sweepConfigs() {
		live, rec := Record(cfg, spec, Options{})
		rep := ReplayMany(rec, []config.GPUConfig{cfg})[0]
		if got, want := bankSide(t, rep.Dump()), bankSide(t, live.Dump()); got != want {
			t.Errorf("%s: replay dump differs from recording run\n got %s\nwant %s", cfg.Name, got, want)
		}
		if rep.Benchmark != live.Benchmark || rep.Config != live.Config {
			t.Errorf("%s: labels differ: %s/%s vs %s/%s",
				cfg.Name, rep.Benchmark, rep.Config, live.Benchmark, live.Config)
		}
	}
}

func TestReplayManyBitIdenticalWithWarmup(t *testing.T) {
	// Warmed-up runs reset bank statistics mid-stream and window the
	// rate metrics; the recording carries the boundary so replays land
	// the reset at the identical cycle — including a budget the workload
	// retires inside, where the boundary is the end of the run. (The
	// workload ends before C4's first controller epoch; replays run no
	// controller.)
	spec := sweepSpec()
	cold := New(config.C1(), spec, Options{}).Run()
	for _, budget := range []uint64{cold.Instructions / 2, 1 << 40} {
		opts := Options{WarmupInstructions: budget}
		for _, cfg := range []config.GPUConfig{config.C1(), config.C2L3(), config.C4()} {
			live, rec := Record(cfg, spec, opts)
			// The boundary falls strictly inside the stream, or, for a
			// budget the workload retires inside, after its last record.
			inside := rec.WarmupIndex > 0 && rec.WarmupIndex < len(rec.Records)
			atEnd := rec.WarmupIndex == len(rec.Records)
			if !rec.Warmed() || inside != (budget < cold.Instructions) || atEnd == inside {
				t.Fatalf("%s/%d: warmup boundary at index %d of %d",
					cfg.Name, budget, rec.WarmupIndex, len(rec.Records))
			}
			rep := ReplayMany(rec, []config.GPUConfig{cfg})[0]
			if got, want := bankSide(t, rep.Dump()), bankSide(t, live.Dump()); got != want {
				t.Errorf("%s/%d: warmed replay dump differs\n got %s\nwant %s", cfg.Name, budget, got, want)
			}
		}
	}
}

func TestReplayManyAppBitIdentical(t *testing.T) {
	// Multi-kernel recordings carry one phase marker per launch; the
	// replay ignores them, because the banks' retention timeline runs
	// unbroken across launches in the live run too. A warmup budget that
	// crosses into the second kernel puts the recording's boundary there,
	// and the replay resets each bank where its stream crosses it.
	apps := workloads.Apps()
	if len(apps) == 0 {
		t.Skip("no applications registered")
	}
	app := apps[0]
	for i := range app.Kernels {
		app.Kernels[i] = app.Kernels[i].Scale(0.05)
		app.Kernels[i].WarpsPerSM = 6
	}
	cfg := config.C1()
	cold := RunApp(cfg, app, Options{}).Final
	for _, budget := range []uint64{0, cold.Kernels[0].Instructions + cold.Kernels[1].Instructions/2} {
		rec := new(trace.Recording)
		live := RunApp(cfg, app, Options{Recording: rec, WarmupInstructions: budget})
		if len(rec.Phases) != len(app.Kernels) {
			t.Fatalf("recorded %d phases for %d kernels", len(rec.Phases), len(app.Kernels))
		}
		if budget > 0 && (rec.WarmupIndex <= rec.Phases[1].Index || rec.WarmupCycle != live.Final.Kernels[1].StartCycle) {
			t.Errorf("warmup %d: boundary at record %d cycle %d, want inside kernel 1 (phase at %d) at cycle %d",
				budget, rec.WarmupIndex, rec.WarmupCycle, rec.Phases[1].Index, live.Final.Kernels[1].StartCycle)
		}
		rep := ReplayMany(rec, []config.GPUConfig{cfg})[0]
		if got, want := bankSide(t, rep.Dump()), bankSide(t, live.Final.Dump()); got != want {
			t.Errorf("warmup %d: app replay dump differs\n got %s\nwant %s", budget, got, want)
		}
	}
}

func TestReplayManyMatchesIndependentReplays(t *testing.T) {
	// The fan-out must be observationally equivalent to K separate
	// single-configuration replays of the same stream — sharing one pass is a
	// performance trick, never a semantic one.
	_, recs := recordRun(t, config.BaselineSRAM())
	rec := &trace.Recording{Records: recs}
	cfgs := sweepConfigs()
	many := ReplayMany(rec, cfgs)
	for i, cfg := range cfgs {
		solo := ReplayMany(rec, []config.GPUConfig{cfg})[0]
		if got, want := bankSide(t, many[i].Dump()), bankSide(t, solo.Dump()); got != want {
			t.Errorf("%s: ReplayMany differs from a solo replay\n got %s\nwant %s", cfg.Name, got, want)
		}
	}
}

// mixedShapeConfigs are three memory-system shapes ReplayMany must
// split separately: the paper's six banks, a power-of-two bank count,
// and a second line size.
func mixedShapeConfigs() []config.GPUConfig {
	eight := config.BaselineSRAM()
	eight.Name = "baseline-SRAM-8bank"
	eight.NumBanks = 8
	eight.L2.TotalBytes = 512 << 10
	short := config.BaselineSRAM()
	short.Name = "baseline-SRAM-128B"
	short.LineBytes = 128
	return []config.GPUConfig{config.C1(), eight, short}
}

func TestReplayManyMixedShapes(t *testing.T) {
	// One call that needs three splits of the stream: each
	// configuration's entry must match its own recording run
	// byte-for-byte, and every entry must match a solo replay.
	spec := sweepSpec()
	cfgs := mixedShapeConfigs()
	for i, cfg := range cfgs {
		live, rec := Record(cfg, spec, Options{})
		reps := ReplayMany(rec, cfgs)
		if got, want := bankSide(t, reps[i].Dump()), bankSide(t, live.Dump()); got != want {
			t.Errorf("%s: mixed-shape replay differs from its recording run\n got %s\nwant %s", cfg.Name, got, want)
		}
		for k, other := range cfgs {
			solo := ReplayMany(rec, []config.GPUConfig{other})[0]
			if got, want := bankSide(t, reps[k].Dump()), bankSide(t, solo.Dump()); got != want {
				t.Errorf("%s recording into %s: mixed-shape replay differs from a solo replay", cfg.Name, other.Name)
			}
		}
	}
}

func TestReplayManyIndependentOfWorkers(t *testing.T) {
	// Tasks run on one worker per core, in any interleaving; the
	// results must not depend on either.
	_, rec := Record(config.C2(), sweepSpec(), Options{})
	cfgs := append(sweepConfigs(), mixedShapeConfigs()...)
	var want []string
	for _, procs := range []int{1, 2, 3, 8} {
		prev := runtime.GOMAXPROCS(procs)
		rs := ReplayMany(rec, cfgs)
		runtime.GOMAXPROCS(prev)
		for i, r := range rs {
			got := bankSide(t, r.Dump())
			if procs == 1 {
				want = append(want, got)
			} else if got != want[i] {
				t.Errorf("GOMAXPROCS=%d: %s differs from GOMAXPROCS=1", procs, cfgs[i].Name)
			}
		}
	}
}

func TestReplayManyOutOfRangeSMPanics(t *testing.T) {
	// A record naming an SM the configuration lacks fails as the reply
	// network's bounds check always has, before any replay starts.
	cfg := config.C1()
	rec := &trace.Recording{Records: []trace.Record{
		{Cycle: 1, Addr: 0x1000, SM: 3},
		{Cycle: 2, Addr: 0x2000, SM: uint8(cfg.NumSMs + 2)},
		{Cycle: 3, Addr: 0x3000, SM: uint8(cfg.NumSMs)},
	}}
	want := fmt.Sprintf("interconnect: output %d out of range [0,%d)", cfg.NumSMs+2, cfg.NumSMs)
	defer func() {
		if r := recover(); r == nil || fmt.Sprint(r) != want {
			t.Errorf("panic = %v, want %q", r, want)
		}
	}()
	ReplayMany(rec, []config.GPUConfig{config.BaselineSRAM(), cfg})
}

func TestReplayManyAnonymousAndEmpty(t *testing.T) {
	r := ReplayMany(&trace.Recording{}, []config.GPUConfig{config.C1()})[0]
	if r.Bank.Reads != 0 || r.Bank.Writes != 0 {
		t.Errorf("empty replay saw traffic: %+v", r.Bank)
	}
	if r.Benchmark != "replay" {
		t.Errorf("anonymous label = %q, want replay", r.Benchmark)
	}
	named := &trace.Recording{Workload: "bfs"}
	if got := ReplayMany(named, []config.GPUConfig{config.C1()})[0].Benchmark; got != "bfs" {
		t.Errorf("named label = %q, want bfs", got)
	}
}

func TestReplayManyRejectsMalformedRecording(t *testing.T) {
	outOfOrder := []trace.Record{{Cycle: 10}, {Cycle: 5}}
	defer func() {
		if recover() == nil {
			t.Error("malformed recording did not panic")
		}
	}()
	ReplayMany(&trace.Recording{Records: outOfOrder}, []config.GPUConfig{config.C1()})
}

func TestConcurrentReplaysShareOneRecording(t *testing.T) {
	// The -race hammer: a recording is read-only during replay, so many
	// goroutines may fan out from the same one simultaneously — the
	// sttserve worker-pool pattern. Every replica must agree.
	_, rec := Record(config.C1(), sweepSpec(), Options{})
	cfgs := sweepConfigs()
	want := make([]string, len(cfgs))
	for i, r := range ReplayMany(rec, cfgs) {
		want[i] = bankSide(t, r.Dump())
	}
	const replayers = 8
	var wg sync.WaitGroup
	errs := make(chan string, replayers)
	for g := 0; g < replayers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range ReplayMany(rec, cfgs) {
				if got := bankSide(t, r.Dump()); got != want[i] {
					errs <- cfgs[i].Name
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("concurrent replay diverged on %s", name)
	}
}

func TestReplayManySteadyStateAllocFree(t *testing.T) {
	// The per-bank feed loop — request port, tier chain, latency
	// histogram — must not allocate once the banks reach steady state.
	cfgs := []config.GPUConfig{config.C1(), config.C2()}
	feeds := make([]bankFeed, len(cfgs))
	for i, cfg := range cfgs {
		feeds[i] = newReplaySimulator(cfg, "replay").newBankFeed(0)
	}
	// A small resident working set: hits, misses, fills, and retention
	// scans all reach steady state during warm-up.
	const lines = 64
	run := make([]bankRecord, lines)
	var now int64
	feedRound := func() {
		for k := range run {
			now += 7
			run[k] = bankRecord{cycle: now, key: uint64(k) << 1}
			if k%3 == 0 {
				run[k].key |= 1
			}
		}
		for i := range feeds {
			feeds[i].feed(run)
		}
	}
	for w := 0; w < 50; w++ {
		feedRound()
	}
	if avg := testing.AllocsPerRun(100, feedRound); avg != 0 {
		t.Errorf("bank feed allocates %v per round, want 0", avg)
	}
}

func TestReplayManyAllocsIndependentOfLength(t *testing.T) {
	// A whole call allocates per configuration and per bank, never per
	// record: once a stream is long enough to have touched its lines
	// and filled its banks' tables, a stream 16 times longer allocates
	// the same.
	cfgs := sweepConfigs()
	stream := func(n int) *trace.Recording {
		rec := &trace.Recording{Records: make([]trace.Record, n)}
		for i := range rec.Records {
			rec.Records[i] = trace.Record{Cycle: int64(4 * i), Addr: uint64(i%512) << 8, SM: uint8(i % 15), Write: i%3 == 0}
		}
		return rec
	}
	short, long := stream(1<<12), stream(1<<16)
	a := testing.AllocsPerRun(5, func() { ReplayMany(short, cfgs) })
	b := testing.AllocsPerRun(5, func() { ReplayMany(long, cfgs) })
	if b > a+4 {
		t.Errorf("ReplayMany allocates %v times for %d records and %v for %d", a, len(short.Records), b, len(long.Records))
	}
}

// benchRecording records one suite benchmark under baseline-SRAM, once
// per test binary.
var benchRecording = sync.OnceValue(func() *trace.Recording {
	spec, _ := workloads.ByName("hotspot")
	_, rec := Record(config.BaselineSRAM(), spec.Scale(1), Options{})
	return rec
})

// BenchmarkReplayMany replays one recorded suite benchmark into one
// configuration and into the eight of perfbench's replay-sweep: the
// paper's five, both stacked-L3 variants, and C1 with write threshold 3.
// ns/access is host time per replayed access, summed over configurations.
func BenchmarkReplayMany(b *testing.B) {
	wt := config.C1()
	wt.Name = "C1-wt3"
	wt.L2.WriteThreshold = 3
	eight := append(config.All(), config.C1L3(), config.C2L3(), wt)
	for _, tc := range []struct {
		name string
		cfgs []config.GPUConfig
	}{
		{"K=1", eight[2:3]},
		{"K=8", eight},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rec := benchRecording()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ReplayMany(rec, tc.cfgs)
			}
			accesses := float64(b.N) * float64(len(rec.Records)) * float64(len(tc.cfgs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/accesses, "ns/access")
		})
	}
}

// BenchmarkCacheBankRun feeds bank 0's run of the recorded suite
// benchmark, as splitByBank routes it, into a bare cache array with one
// C1 bank's HR geometry: a probe, then a hit's bookkeeping or a fill,
// per record. It measures the cache layer alone, without the bank's
// policies, MSHR or DRAM. One op is one pass over the run; a warm-up
// pass allocates the array's metadata groups, so steady state allocates
// nothing.
func BenchmarkCacheBankRun(b *testing.B) {
	cfg := config.C1()
	sp := splitByBank(benchRecording(), cfg.NumBanks, cfg.LineBytes)
	run := sp.recs[sp.off[0]:sp.off[1]]
	shift := uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	c := cache.New(cfg.L2.HRBytes/cfg.NumBanks, cfg.L2.HRWays, cfg.LineBytes)
	pass := func() {
		for _, r := range run {
			addr, write := r.key>>1<<shift, r.key&1 != 0
			if set, way, hit := c.Probe(addr); hit {
				c.AccessAt(set, way, write, r.cycle)
			} else {
				c.Fill(addr, write, r.cycle)
			}
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(run))), "ns/record")
}
