package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/workloads"
)

// bigSpec returns a workload large enough that a run takes (at least)
// hundreds of milliseconds of wall time, so a mid-run cancellation
// reliably lands while the drive loop is still visiting cycles.
func bigSpec(t *testing.T) workloads.Spec {
	t.Helper()
	s, ok := workloads.ByName("bfs")
	if !ok {
		t.Fatal("unknown benchmark bfs")
	}
	return s.Scale(50)
}

func TestRunContextCompletesWithBackground(t *testing.T) {
	cfg, _ := config.ByName("C2")
	spec := tinySpec(t, "bfs")
	want := New(cfg, spec, Options{}).Run()
	got, err := New(cfg, spec, Options{}).RunContext(context.Background())
	if err != nil {
		t.Fatalf("RunContext: unexpected error %v", err)
	}
	// A background context must not perturb the simulation: same event
	// sequence, same result.
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions || got.IPC != want.IPC {
		t.Errorf("RunContext(Background) = cycles %d instr %d, Run = cycles %d instr %d",
			got.Cycles, got.Instructions, want.Cycles, want.Instructions)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	cfg, _ := config.ByName("C2")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := New(cfg, tinySpec(t, "bfs"), Options{}).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r.Cycles != 0 {
		t.Errorf("pre-cancelled run reported %d cycles, want 0", r.Cycles)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	cfg, _ := config.ByName("C2")
	spec := bigSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	r, err := New(cfg, spec, Options{}).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (run finished in %v — spec too small?)",
			err, time.Since(start))
	}
	if r.Cycles <= 0 {
		t.Errorf("cancelled mid-run but Cycles = %d, want > 0 (partial progress)", r.Cycles)
	}
	// The partial result must still be internally consistent: the drain
	// and power accounting ran.
	if r.Instructions == 0 {
		t.Errorf("cancelled run reports zero instructions; expected partial progress")
	}
	if r.Seconds <= 0 {
		t.Errorf("Seconds = %v, want > 0", r.Seconds)
	}
}

func TestRunContextDeadline(t *testing.T) {
	cfg, _ := config.ByName("C1")
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err := New(cfg, bigSpec(t), Options{}).RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunContextCancelOnSRAMBaseline pins the poll fallback: SRAM banks
// have no retention tick (TickPeriod 0), so cancellation must ride the
// default poll cadence instead of never being checked.
func TestRunContextCancelOnSRAMBaseline(t *testing.T) {
	cfg, _ := config.ByName("baseline-SRAM")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := New(cfg, bigSpec(t), Options{}).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunAppContextCancelStopsKernels(t *testing.T) {
	cfg, _ := config.ByName("C2")
	apps := workloads.Apps()
	if len(apps) == 0 {
		t.Skip("no applications defined")
	}
	app := apps[0]
	// Scale the kernels up so the first one outlives the cancel.
	for i := range app.Kernels {
		app.Kernels[i] = app.Kernels[i].Scale(50)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	ar, err := New(cfg, app.Kernels[0], Options{}).RunAppContext(ctx, app)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ar.Kernels) == 0 {
		t.Fatalf("cancelled app reports no kernel rows, want the interrupted kernel's partial row")
	}
	if len(ar.Kernels) == len(app.Kernels) && ar.Kernels[len(ar.Kernels)-1].EndCycle == 0 {
		t.Errorf("all kernels reported despite cancellation")
	}
}
