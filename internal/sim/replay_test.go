package sim

import (
	"bytes"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

// recordRun runs a benchmark with trace recording and returns the live
// result plus the decoded records.
func recordRun(t *testing.T, cfg config.GPUConfig) (Result, []trace.Record) {
	t.Helper()
	spec, _ := workloads.ByName("bfs")
	spec = spec.Scale(0.05)
	spec.WarpsPerSM = 6
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	r := New(cfg, spec, Options{
		TraceSink: func(r trace.Record) { _ = w.Append(r) },
	}).Run()
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	recs, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return r, recs
}

// replayOne replays an anonymous record stream into one configuration.
func replayOne(cfg config.GPUConfig, recs []trace.Record) Result {
	return ReplayMany(&trace.Recording{Records: recs}, []config.GPUConfig{cfg})[0]
}

func TestRecordingCapturesAllL2Traffic(t *testing.T) {
	r, recs := recordRun(t, config.BaselineSRAM())
	if uint64(len(recs)) != r.Bank.Reads+r.Bank.Writes {
		t.Errorf("recorded %d accesses, banks saw %d", len(recs), r.Bank.Reads+r.Bank.Writes)
	}
	// Records arrive in non-decreasing cycle order by construction.
	for i := 1; i < len(recs); i++ {
		if recs[i].Cycle < recs[i-1].Cycle {
			t.Fatalf("record %d out of order", i)
		}
	}
}

func TestReplayReproducesBankBehaviour(t *testing.T) {
	// Replaying a recorded stream into identical banks must reproduce
	// the live run's bank statistics and dynamic energy exactly — the
	// determinism guarantee behind offline trace studies.
	live, recs := recordRun(t, config.C1())
	rep := replayOne(config.C1(), recs)
	if rep.Bank.Reads != live.Bank.Reads || rep.Bank.Writes != live.Bank.Writes {
		t.Errorf("traffic differs: replay %d/%d vs live %d/%d",
			rep.Bank.Reads, rep.Bank.Writes, live.Bank.Reads, live.Bank.Writes)
	}
	if rep.Bank.ReadHits != live.Bank.ReadHits || rep.Bank.WriteHits != live.Bank.WriteHits {
		t.Errorf("hits differ: replay %d/%d vs live %d/%d",
			rep.Bank.ReadHits, rep.Bank.WriteHits, live.Bank.ReadHits, live.Bank.WriteHits)
	}
	if rep.Bank.MigrationsToLR != live.Bank.MigrationsToLR {
		t.Errorf("migrations differ: %d vs %d", rep.Bank.MigrationsToLR, live.Bank.MigrationsToLR)
	}
	if rep.DynamicEnergyJ != live.DynamicEnergyJ {
		t.Errorf("energy differs: %v vs %v", rep.DynamicEnergyJ, live.DynamicEnergyJ)
	}
}

func TestReplayAcrossOrganizations(t *testing.T) {
	// The point of traces: one capture, many organizations. A C1
	// replay of an SRAM-recorded stream must hit more (4x capacity).
	_, recs := recordRun(t, config.BaselineSRAM())
	sram := replayOne(config.BaselineSRAM(), recs)
	c1 := replayOne(config.C1(), recs)
	if c1.Bank.HitRate() <= sram.Bank.HitRate() {
		t.Errorf("C1 replay hit rate (%v) should exceed SRAM's (%v)",
			c1.Bank.HitRate(), sram.Bank.HitRate())
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	r := replayOne(config.BaselineSRAM(), nil)
	if r.Bank.Reads != 0 || r.Bank.Writes != 0 {
		t.Errorf("empty replay saw traffic: %+v", r.Bank)
	}
	if r.Benchmark != "replay" {
		t.Errorf("label = %q", r.Benchmark)
	}
}
