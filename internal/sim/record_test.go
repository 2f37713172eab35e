package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

func TestRecordDoesNotPerturbTheRun(t *testing.T) {
	// Recording is pure observation: the recording run's Result must be
	// byte-identical to a plain Run of the same workload.
	spec := sweepSpec()
	plain := New(config.C1(), spec, Options{}).Run()
	recorded, _ := Record(config.C1(), spec, Options{})
	pj, _ := json.Marshal(plain.Dump())
	rj, _ := json.Marshal(recorded.Dump())
	if !bytes.Equal(pj, rj) {
		t.Errorf("recording perturbed the run\nplain    %s\nrecorded %s", pj, rj)
	}
}

func TestRecordCapturesMetadata(t *testing.T) {
	spec := sweepSpec()
	cfg := config.C1()
	r, rec := Record(cfg, spec, Options{})
	if err := rec.Validate(); err != nil {
		t.Fatalf("recording invalid: %v", err)
	}
	if rec.Workload != spec.Name || rec.WorkloadHash != spec.Hash() || rec.Config != cfg.Name {
		t.Errorf("identity = %s/%s/%s", rec.Workload, rec.WorkloadHash, rec.Config)
	}
	if uint64(len(rec.Records)) != r.Bank.Reads+r.Bank.Writes {
		t.Errorf("recorded %d accesses, banks saw %d", len(rec.Records), r.Bank.Reads+r.Bank.Writes)
	}
	if rec.EndCycle != r.Cycles {
		t.Errorf("EndCycle = %d, run ended at %d", rec.EndCycle, r.Cycles)
	}
	if len(rec.Phases) != 1 || rec.Phases[0].Name != spec.Name {
		t.Errorf("phases = %+v, want one marker for %s", rec.Phases, spec.Name)
	}
	if rec.Warmed() {
		t.Error("cold run marked as warmed")
	}

	// A one-kernel application that is not the benchmark's own (a
	// generator draw, say) records its application address.
	app := workloads.App{Name: spec.Name, Kernels: []workloads.Spec{spec}}
	appRec := new(trace.Recording)
	RunApp(cfg, app, Options{Recording: appRec})
	if appRec.WorkloadHash != app.Hash() || appRec.WorkloadHash == spec.Hash() {
		t.Errorf("one-kernel application recorded hash %s, want its App.Hash %s", appRec.WorkloadHash, app.Hash())
	}
}

func TestRecordCapturesWarmupBoundary(t *testing.T) {
	spec := sweepSpec()
	cold := New(config.C1(), spec, Options{}).Run()
	r, rec := Record(config.C1(), spec, Options{WarmupInstructions: cold.Instructions / 2})
	if !rec.Warmed() {
		t.Fatal("warmed run not marked")
	}
	if rec.WarmupIndex <= 0 || rec.WarmupIndex >= len(rec.Records) {
		t.Errorf("WarmupIndex = %d of %d records", rec.WarmupIndex, len(rec.Records))
	}
	if rec.WarmupCycle <= 0 {
		t.Errorf("WarmupCycle = %d", rec.WarmupCycle)
	}
	if want := rec.WarmupCycle + r.Cycles; rec.EndCycle != want {
		t.Errorf("EndCycle = %d, want boundary+window = %d", rec.EndCycle, want)
	}
	// The boundary must bisect the stream: records before it happened
	// before the boundary cycle, records after it at or after.
	if c := rec.Records[rec.WarmupIndex-1].Cycle; c >= rec.WarmupCycle {
		t.Errorf("pre-boundary record at cycle %d >= boundary %d", c, rec.WarmupCycle)
	}
	if c := rec.Records[rec.WarmupIndex].Cycle; c < rec.WarmupCycle {
		t.Errorf("post-boundary record at cycle %d < boundary %d", c, rec.WarmupCycle)
	}
}

func TestRecordAppCapturesPhases(t *testing.T) {
	apps := workloads.Apps()
	if len(apps) == 0 {
		t.Skip("no applications registered")
	}
	app := apps[0]
	for i := range app.Kernels {
		app.Kernels[i] = app.Kernels[i].Scale(0.05)
		app.Kernels[i].WarpsPerSM = 6
	}
	rec := new(trace.Recording)
	ar := RunApp(config.C1(), app, Options{Recording: rec}).Final
	if err := rec.Validate(); err != nil {
		t.Fatalf("recording invalid: %v", err)
	}
	if rec.Workload != app.Name || rec.WorkloadHash != app.Hash() {
		t.Errorf("identity = %s/%s", rec.Workload, rec.WorkloadHash)
	}
	if len(rec.Phases) != len(app.Kernels) {
		t.Fatalf("%d phases for %d kernels", len(rec.Phases), len(app.Kernels))
	}
	for ki, ph := range rec.Phases {
		if ph.Name != app.Kernels[ki].Name {
			t.Errorf("phase %d = %q, want %q", ki, ph.Name, app.Kernels[ki].Name)
		}
		if ph.Cycle != ar.Kernels[ki].StartCycle {
			t.Errorf("phase %d at cycle %d, kernel launched at %d", ki, ph.Cycle, ar.Kernels[ki].StartCycle)
		}
	}
	if rec.EndCycle != ar.Cycles {
		t.Errorf("EndCycle = %d, app ended at %d", rec.EndCycle, ar.Cycles)
	}
}

func TestRecordingSurvivesTheWire(t *testing.T) {
	// Persist and reload, then fan out from the decoded copy: the wire
	// format must preserve everything replay correctness depends on.
	_, rec := Record(config.C1(), sweepSpec(), Options{})
	var buf bytes.Buffer
	if err := trace.WriteRecording(&buf, rec); err != nil {
		t.Fatalf("write: %v", err)
	}
	loaded, err := trace.ReadRecording(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	want := bankSide(t, ReplayMany(rec, []config.GPUConfig{config.C2()})[0].Dump())
	got := bankSide(t, ReplayMany(loaded, []config.GPUConfig{config.C2()})[0].Dump())
	if got != want {
		t.Errorf("decoded recording replays differently\n got %s\nwant %s", got, want)
	}
}

func TestRecordContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Recording: new(trace.Recording)}
	_, err := New(config.C1(), sweepSpec(), opts).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled recording returned %v, want ctx's error", err)
	}
}
