package sim

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

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
			inside := rec.WarmupIndex > 0 && rec.WarmupIndex < len(rec.Records)
			if !rec.Warmed() || inside != (budget < cold.Instructions) {
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
	// unbroken across launches in the live run too.
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
	live, rec, _ := RecordAppContext(context.Background(), cfg, app, Options{})
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
	// The fan-out hot loop — Access per record, per config — must not
	// allocate once the banks reach steady state.
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
				rep.s.Access(r.Cycle, int(r.SM), r.Addr, r.Write)
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
