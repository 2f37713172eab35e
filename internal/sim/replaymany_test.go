package sim

import (
	"encoding/json"
	"slices"
	"sync"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/core"
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
	// the reset at the identical cycle. (Exact when the boundary falls
	// strictly inside the run — the normal case; see DESIGN.md §13.)
	spec := sweepSpec()
	cold := RunOne(config.C1(), spec, Options{})
	opts := Options{WarmupInstructions: cold.Instructions / 2}
	for _, cfg := range []config.GPUConfig{config.C1(), config.C2L3()} {
		live, rec := Record(cfg, spec, opts)
		if !rec.Warmed() || rec.WarmupIndex == 0 || rec.WarmupIndex >= len(rec.Records) {
			t.Fatalf("%s: warmup boundary not inside the stream: index %d of %d",
				cfg.Name, rec.WarmupIndex, len(rec.Records))
		}
		rep := ReplayMany(rec, []config.GPUConfig{cfg})[0]
		if got, want := bankSide(t, rep.Dump()), bankSide(t, live.Dump()); got != want {
			t.Errorf("%s: warmed replay dump differs\n got %s\nwant %s", cfg.Name, got, want)
		}
	}
}

func TestReplayManyAppBitIdentical(t *testing.T) {
	// Multi-kernel recordings carry one phase marker per launch; the
	// replayed tick timeline re-arms at each, like the live per-kernel
	// drives do.
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
	live, rec := RecordApp(cfg, app, Options{})
	if len(rec.Phases) != len(app.Kernels) {
		t.Fatalf("recorded %d phases for %d kernels", len(rec.Phases), len(app.Kernels))
	}
	rep := ReplayMany(rec, []config.GPUConfig{cfg})[0]
	if got, want := bankSide(t, rep.Dump()), bankSide(t, live.Final.Dump()); got != want {
		t.Errorf("app replay dump differs\n got %s\nwant %s", got, want)
	}
}

func TestReplayManyMatchesIndependentReplays(t *testing.T) {
	// The fan-out must be observationally equivalent to K separate
	// sim.Replay calls over the same stream — sharing one pass is a
	// performance trick, never a semantic one.
	_, recs := recordRun(t, config.BaselineSRAM())
	rec := &trace.Recording{Records: recs}
	cfgs := sweepConfigs()
	many := ReplayMany(rec, cfgs)
	for i, cfg := range cfgs {
		solo := Replay(cfg, recs)
		if got, want := bankSide(t, many[i].Dump()), bankSide(t, solo.Dump()); got != want {
			t.Errorf("%s: ReplayMany differs from Replay\n got %s\nwant %s", cfg.Name, got, want)
		}
	}
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
	defer func() {
		if recover() == nil {
			t.Error("malformed recording did not panic")
		}
	}()
	ReplayMany(&trace.Recording{
		Records: []trace.Record{{Cycle: 10}, {Cycle: 5}},
	}, []config.GPUConfig{config.C1()})
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
	// The fan-out hot loop — tick catch-up plus Access, per config —
	// must not allocate once the banks reach steady state.
	cfgs := []config.GPUConfig{config.C1(), config.C2()}
	reps := make([]*replayer, len(cfgs))
	rec := &trace.Recording{}
	for i, cfg := range cfgs {
		reps[i] = newReplayer(cfg, rec)
	}
	// A small resident working set plus one streaming address per round:
	// hits, misses, fills, and retention scans all reach steady state
	// during warm-up.
	const lines = 64
	var now int64
	feedRound := func() {
		for k := 0; k < lines; k++ {
			now += 7
			r := trace.Record{Cycle: now, Addr: uint64(k%lines) << 7, SM: uint8(k % 8), Write: k%3 == 0}
			for _, rep := range reps {
				rep.feed(&r)
			}
		}
	}
	for w := 0; w < 50; w++ {
		feedRound()
	}
	if avg := testing.AllocsPerRun(100, feedRound); avg != 0 {
		t.Errorf("replay fan-out allocates %v per round, want 0", avg)
	}
}

// tickLog is a bank that only records the cycles it is ticked at.
type tickLog struct {
	core.Bank
	id  int64
	log *[][2]int64
}

func (b tickLog) Tick(now int64) { *b.log = append(*b.log, [2]int64{b.id, now}) }

// TestReplayerTickGate pins the gated tick timeline to the ungated
// catch-up: at each visited cycle every bank, in order, fires every
// period boundary up to that cycle, and a new segment re-arms every
// bank one period after its start. Retention state is caught up lazily
// on access, so result dumps alone would not notice a late tick.
func TestReplayerTickGate(t *testing.T) {
	periods := []int64{3, 5, 12}
	var got, want [][2]int64
	rep := &replayer{}
	for i, p := range periods {
		rep.ticking = append(rep.ticking, tickState{b: tickLog{id: int64(i), log: &got}, period: p})
	}
	rep.rearm(0)
	next := slices.Clone(periods)
	visit := func(nows ...int64) {
		for _, now := range nows {
			rep.advanceTo(now)
			for i, p := range periods {
				for ; next[i] <= now; next[i] += p {
					want = append(want, [2]int64{int64(i), next[i]})
				}
			}
			// Bank -1 marks the visit, so a tick fired late shows.
			got = append(got, [2]int64{-1, now})
			want = append(want, [2]int64{-1, now})
		}
	}
	visit(0, 1, 2, 3, 3, 4, 10, 11, 25, 26, 30)
	rep.newSegment(30)
	for i, p := range periods {
		next[i] = 30 + p
	}
	visit(31, 33, 34, 47, 60, 61)
	if !slices.Equal(got, want) {
		t.Errorf("ticks (bank, cycle)\n got %v\nwant %v", got, want)
	}
}
