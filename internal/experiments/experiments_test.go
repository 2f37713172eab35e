package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/refmodel"
	"sttllc/internal/workloads"
)

// tiny returns parameters that keep experiment tests fast: a few
// benchmarks, short warps.
func tiny(benchmarks ...string) Params {
	return Params{Scale: 0.04, WarpsPerSM: 6, Benchmarks: benchmarks}
}

// TestInvariantCheckedParallelSweep runs a parallel Fig. 6 sweep with
// the refmodel invariant checker auditing every bank of every run.
// Under `go test -race` this exercises the worker pool and the
// (stateless, shared) checker together. It also re-verifies the Fig. 6
// output contract after the usOf rounding fix: every benchmark records
// samples and its bucket fractions sum to 1.
func TestInvariantCheckedParallelSweep(t *testing.T) {
	p := tiny("bfs", "stencil")
	p.Parallel = 2
	p.InvariantCheck = func(bank int, b core.Bank, now int64) error {
		return refmodel.CheckBank(b, now)
	}
	rows := Fig6(p)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Samples == 0 {
			t.Errorf("%s: no rewrite-interval samples", r.Benchmark)
			continue
		}
		sum := 0.0
		for _, f := range r.Fractions {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: bucket fractions sum to %v, want 1", r.Benchmark, sum)
		}
	}
}

func TestParamsDefaults(t *testing.T) {
	var p Params
	if p.scale() != 1 {
		t.Errorf("default scale = %v, want 1", p.scale())
	}
	if got := len(p.specs()); got != 20 {
		t.Errorf("default suite = %d, want 20", got)
	}
}

func TestParamsSelection(t *testing.T) {
	p := tiny("bfs", "stencil")
	specs := p.specs()
	if len(specs) != 2 || specs[0].Name != "bfs" || specs[1].Name != "stencil" {
		t.Fatalf("specs = %+v", specs)
	}
	if specs[0].WarpsPerSM != 6 {
		t.Errorf("WarpsPerSM override not applied: %d", specs[0].WarpsPerSM)
	}
}

func TestParamsUnknownBenchmarkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown benchmark did not panic")
		}
	}()
	Params{Benchmarks: []string{"nope"}}.specs()
}

func TestFig3(t *testing.T) {
	rows := Fig3(tiny("bfs", "stencil"))
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig3Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		if r.L2Writes == 0 {
			t.Errorf("%s: no L2 writes recorded", r.Benchmark)
		}
		if r.InterSetCOV < 0 || r.IntraSetCOV < 0 {
			t.Errorf("%s: negative COV", r.Benchmark)
		}
	}
	// The paper's key contrast: skewed writers (bfs, hot 0.8) show far
	// higher inter-set variation than uniform writers (stencil, 0.05).
	if byName["bfs"].InterSetCOV <= byName["stencil"].InterSetCOV {
		t.Errorf("bfs inter-set COV (%v) should exceed stencil's (%v)",
			byName["bfs"].InterSetCOV, byName["stencil"].InterSetCOV)
	}
	out := FormatFig3(rows)
	for _, want := range []string{"bfs", "stencil", "Mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFig3 missing %q", want)
		}
	}
}

func TestFig4(t *testing.T) {
	rows := Fig4(tiny("bfs"), []uint8{1, 7})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Threshold != 1 || rows[0].LRHRRatio != 1 || rows[0].WriteOverhead != 1 {
		t.Errorf("TH1 row must be the normalization anchor: %+v", rows[0])
	}
	// Higher thresholds keep more writes in HR: the LR/HR ratio drops.
	if rows[1].LRHRRatio >= 1 {
		t.Errorf("TH7 LR/HR ratio = %v, want < 1", rows[1].LRHRRatio)
	}
	if !strings.Contains(FormatFig4(rows), "TH") {
		t.Error("FormatFig4 missing header")
	}
}

func TestFig5(t *testing.T) {
	rows := Fig5(tiny("bfs"), []int{1, 2})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Utilization <= 0 || r.Utilization > 1.3 {
			t.Errorf("utilization out of range: %+v", r)
		}
	}
	if !strings.Contains(FormatFig5(rows), "Ways") {
		t.Error("FormatFig5 missing header")
	}
}

func TestFig6(t *testing.T) {
	rows := Fig6(tiny("bfs"))
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Samples == 0 {
		t.Fatal("no rewrite intervals sampled")
	}
	if len(r.Fractions) != len(Fig6BucketLabels) {
		t.Fatalf("fraction count %d != labels %d", len(r.Fractions), len(Fig6BucketLabels))
	}
	sum := 0.0
	for _, f := range r.Fractions {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %v", sum)
	}
	if !strings.Contains(FormatFig6(rows), "<=10us") {
		t.Error("FormatFig6 missing bucket labels")
	}
}

func TestFig8(t *testing.T) {
	res := Fig8(tiny("hotspot", "nw"))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, cfg := range Fig8Configs {
		if res.GmeanSpeedup[cfg] <= 0 {
			t.Errorf("missing gmean speedup for %s", cfg)
		}
		if res.MeanDynPower[cfg] <= 0 || res.MeanTotalPower[cfg] <= 0 {
			t.Errorf("missing power means for %s", cfg)
		}
	}
	for _, r := range res.Rows {
		for _, cfg := range Fig8Configs {
			if r.Speedup[cfg] <= 0 {
				t.Errorf("%s/%s: speedup missing", r.Benchmark, cfg)
			}
		}
		if r.BaseIPC <= 0 || r.BaseTotPowerW <= 0 {
			t.Errorf("%s: missing baseline reference", r.Benchmark)
		}
	}
	for _, render := range []string{FormatFig8a(res), FormatFig8b(res), FormatFig8c(res)} {
		if !strings.Contains(render, "C1") || !strings.Contains(render, "hotspot") {
			t.Error("Fig8 rendering incomplete")
		}
	}
}

// TestAblation runs every listed variant, so a name that no longer
// maps to a configuration fails here rather than in a full sweep.
func TestAblation(t *testing.T) {
	rows := Ablation(tiny("bfs"), nil)
	if len(rows) != len(AblationVariants) {
		t.Fatalf("rows = %d, want %d", len(rows), len(AblationVariants))
	}
	out := FormatAblation(rows)
	for i, r := range rows {
		if r.Variant != AblationVariants[i] {
			t.Errorf("row %d variant = %q, want %q", i, r.Variant, AblationVariants[i])
		}
		if r.Speedup <= 0 || r.DynPower <= 0 {
			t.Errorf("bad ablation row: %+v", r)
		}
		if !strings.Contains(out, " "+r.Variant+" ") {
			t.Errorf("FormatAblation missing variant %s", r.Variant)
		}
	}
}

func TestAblationUnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown variant did not panic")
		}
	}()
	ablationConfig("bogus")
}

func TestHeaderLayout(t *testing.T) {
	h := header("A", "B")
	lines := strings.Split(strings.TrimRight(h, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("header lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "A") || !strings.Contains(lines[0], "B") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestRunResultString(t *testing.T) {
	p := tiny("bfs")
	r := run(config.C1(), p.specs()[0], p)
	lines := strings.Split(strings.TrimRight(RunResultString(r), "\n"), "\n")
	want := []string{
		"config=C1 benchmark=bfs",
		fmt.Sprintf("  cycles=%d instructions=%d ", r.Cycles, r.Instructions),
		"  L1: accesses=",
		fmt.Sprintf("  L2: reads=%d writes=%d ", r.Bank.Reads, r.Bank.Writes),
		fmt.Sprintf("  DRAM: fills=%d writebacks=%d ", r.Bank.DRAMFills, r.Bank.DRAMWritebacks),
		"  power: dynamic=",
	}
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], w)
		}
	}
}

func TestParallelismDoesNotChangeResults(t *testing.T) {
	serial := tiny("bfs", "hotspot", "nw")
	serial.Parallel = 1
	parallel := tiny("bfs", "hotspot", "nw")
	parallel.Parallel = 4

	a := Fig8(serial)
	b := Fig8(parallel)
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Benchmark != rb.Benchmark {
			t.Fatalf("row %d order differs: %s vs %s", i, ra.Benchmark, rb.Benchmark)
		}
		for _, cfg := range Fig8Configs {
			if ra.Speedup[cfg] != rb.Speedup[cfg] {
				t.Errorf("%s/%s speedup differs: %v vs %v",
					ra.Benchmark, cfg, ra.Speedup[cfg], rb.Speedup[cfg])
			}
			if ra.TotalPower[cfg] != rb.TotalPower[cfg] {
				t.Errorf("%s/%s power differs", ra.Benchmark, cfg)
			}
		}
	}
	for _, cfg := range Fig8Configs {
		if a.GmeanSpeedup[cfg] != b.GmeanSpeedup[cfg] {
			t.Errorf("gmean differs for %s", cfg)
		}
	}
	// The rendered report tables must be byte-identical, not merely
	// value-equal: deposits are index-addressed, so completion order
	// can never leak into the output.
	for _, render := range []struct {
		name string
		fn   func(Fig8Result) string
	}{
		{"Fig8a", FormatFig8a}, {"Fig8b", FormatFig8b}, {"Fig8c", FormatFig8c},
	} {
		if sa, sb := render.fn(a), render.fn(b); sa != sb {
			t.Errorf("%s table differs between Parallel=1 and Parallel=4:\n%s\nvs\n%s",
				render.name, sa, sb)
		}
	}
}

func TestForEachSpecClampsWorkersToSpecCount(t *testing.T) {
	// Parallel far above the spec count: the pool must clamp to
	// len(specs), never hold more runs in flight than there are specs,
	// and still visit every index exactly once.
	p := tiny("bfs", "hotspot")
	p.Parallel = 64
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	got := map[int]string{}
	forEachSpec(p, func(i int, spec workloads.Spec) {
		mu.Lock()
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		if prev, dup := got[i]; dup {
			t.Errorf("index %d visited twice (%s, %s)", i, prev, spec.Name)
		}
		got[i] = spec.Name
		mu.Unlock()
		time.Sleep(time.Millisecond) // let would-be extra workers pile up
		mu.Lock()
		inFlight--
		mu.Unlock()
	})
	if len(got) != 2 || got[0] != "bfs" || got[1] != "hotspot" {
		t.Errorf("visited = %v, want {0:bfs 1:hotspot}", got)
	}
	if maxInFlight > 2 {
		t.Errorf("max in-flight runs = %d, want <= len(specs) = 2", maxInFlight)
	}
}

func TestForEachSpecPanicCapture(t *testing.T) {
	// Serial sweep: index 0 completes before index 1 panics; indices 2
	// and 3 are queued behind the panic and must be shed, not run (see
	// TestForEachSpecAbortsQueuedAfterPanic for the dedicated guard).
	p := tiny("bfs", "hotspot", "nw", "stencil")
	p.Parallel = 1
	var mu sync.Mutex
	completed := map[int]bool{}
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("panic in fn did not propagate")
			}
			rp, ok := v.(*runPanic)
			if !ok {
				t.Fatalf("recovered %T, want *runPanic", v)
			}
			if rp.Index != 1 || rp.Spec != "hotspot" {
				t.Errorf("re-raised panic from %q index %d, want hotspot index 1", rp.Spec, rp.Index)
			}
			if rp.Value != "boom-1" {
				t.Errorf("panic value = %v, want boom-1", rp.Value)
			}
			if len(rp.Stack) == 0 {
				t.Errorf("no stack captured")
			}
			if msg := rp.Error(); !strings.Contains(msg, "hotspot") || !strings.Contains(msg, "boom-1") {
				t.Errorf("Error() = %q missing spec or value", msg)
			}
		}()
		forEachSpec(p, func(i int, spec workloads.Spec) {
			if i == 1 {
				panic(fmt.Sprintf("boom-%d", i))
			}
			mu.Lock()
			completed[i] = true
			mu.Unlock()
		})
	}()
	if !completed[0] {
		t.Errorf("run before the panic did not complete: %v", completed)
	}
}

func TestForEachSpecPanicCaptureParallel(t *testing.T) {
	// Concurrent sweep: whichever panicking run is captured, the
	// re-raise is the lowest-index capture, and in-flight siblings are
	// never torn down mid-run (every fn entry records an exit).
	p := tiny("bfs", "hotspot", "nw", "stencil")
	p.Parallel = 4
	var mu sync.Mutex
	entered, exited := 0, 0
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("panic in fn did not propagate")
			}
			rp, ok := v.(*runPanic)
			if !ok {
				t.Fatalf("recovered %T, want *runPanic", v)
			}
			// Indices 1 and 2 panic; the abort may shed one of them
			// before it starts, but the re-raise is always the lowest
			// index that actually panicked.
			if rp.Index != 1 && rp.Index != 2 {
				t.Errorf("re-raised panic index %d, want 1 or 2", rp.Index)
			}
			if want := fmt.Sprintf("boom-%d", rp.Index); rp.Value != want {
				t.Errorf("panic value = %v, want %s", rp.Value, want)
			}
		}()
		forEachSpec(p, func(i int, spec workloads.Spec) {
			mu.Lock()
			entered++
			mu.Unlock()
			if i == 1 || i == 2 {
				panic(fmt.Sprintf("boom-%d", i))
			}
			mu.Lock()
			exited++
			mu.Unlock()
		})
	}()
	mu.Lock()
	defer mu.Unlock()
	if panicked := entered - exited; panicked < 1 || panicked > 2 {
		t.Errorf("entered=%d exited=%d: want exactly the panicking runs (1 or 2) unaccounted", entered, exited)
	}
}

// TestForEachSpecAbortsQueuedAfterPanic is the failing-before guard for
// the sweep-abort fix: with one worker, a panic at index 1 must shed the
// queued indices 2..N instead of running the whole sweep to completion.
func TestForEachSpecAbortsQueuedAfterPanic(t *testing.T) {
	p := tiny("bfs", "hotspot", "nw", "stencil")
	p.Parallel = 1
	var mu sync.Mutex
	ran := map[int]bool{}
	func() {
		defer func() {
			if v := recover(); v == nil {
				t.Fatal("panic in fn did not propagate")
			}
		}()
		forEachSpec(p, func(i int, spec workloads.Spec) {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			if i == 1 {
				panic("boom")
			}
		})
	}()
	if !ran[0] || !ran[1] {
		t.Errorf("runs before/at the panic missing: %v", ran)
	}
	if ran[2] || ran[3] {
		t.Errorf("queued specs ran after the panic: %v (want indices 2 and 3 shed)", ran)
	}
}

func TestForEachSpecContextCancelled(t *testing.T) {
	// A context cancelled before the sweep starts sheds every spec
	// without raising a panic.
	p := tiny("bfs", "hotspot")
	p.Parallel = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Context = ctx
	ran := 0
	forEachSpec(p, func(i int, spec workloads.Spec) { ran++ })
	if ran != 0 {
		t.Errorf("cancelled sweep ran %d specs, want 0", ran)
	}
}
