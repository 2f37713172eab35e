package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/sim"
)

// gridConfigs are two distinctly named configurations for the
// run-granular forEachTask tests: with the four-benchmark tiny sweep they
// make eight tasks, run si,ci at index si*2+ci.
func gridConfigs() []config.GPUConfig {
	return []config.GPUConfig{config.C1(), config.C2()}
}

func TestForEachTaskClampsWorkersToRunCount(t *testing.T) {
	// Parallel far above the run count: the pool must clamp to the
	// number of runs and still visit every (benchmark, configuration)
	// pair exactly once, at its benchmark-major index.
	p := tiny("bfs", "hotspot")
	p.Parallel = 64
	cfgs := gridConfigs()
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	got := map[[2]int]string{}
	specs := p.specs()
	forEachTask(p, specs, cfgs, func(si, ci int) {
		mu.Lock()
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		key := [2]int{si, ci}
		if prev, dup := got[key]; dup {
			t.Errorf("run %v visited twice (%s)", key, prev)
		}
		got[key] = specs[si].Name + "/" + cfgs[ci].Name
		mu.Unlock()
		time.Sleep(time.Millisecond) // let would-be extra workers pile up
		mu.Lock()
		inFlight--
		mu.Unlock()
	})
	want := map[[2]int]string{
		{0, 0}: "bfs/C1", {0, 1}: "bfs/C2", {1, 0}: "hotspot/C1", {1, 1}: "hotspot/C2",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("visited = %v, want %v", got, want)
	}
	if maxInFlight > 4 {
		t.Errorf("max in-flight runs = %d, want <= 4 runs", maxInFlight)
	}
}

func TestForEachTaskPanicNamesRun(t *testing.T) {
	// Serial sweep: run 0 (bfs on C1) completes before run 1 (bfs on C2)
	// panics; the queued runs behind it are shed, and the re-raised
	// panic names both the benchmark and the configuration.
	p := tiny("bfs", "hotspot", "nw", "stencil")
	p.Parallel = 1
	ran := map[int]bool{}
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
			if rp.Index != 1 || rp.Spec != "bfs" || rp.Config != "C2" {
				t.Errorf("re-raised panic from %s/%s index %d, want bfs/C2 index 1", rp.Spec, rp.Config, rp.Index)
			}
			if rp.Value != "boom-1" {
				t.Errorf("panic value = %v, want boom-1", rp.Value)
			}
			if len(rp.Stack) == 0 {
				t.Errorf("no stack captured")
			}
			msg := rp.Error()
			for _, want := range []string{`"bfs"`, "C2", "boom-1"} {
				if !strings.Contains(msg, want) {
					t.Errorf("Error() = %q missing %s", msg, want)
				}
			}
		}()
		forEachTask(p, p.specs(), gridConfigs(), func(si, ci int) {
			i := si*2 + ci
			ran[i] = true
			if i == 1 {
				panic(fmt.Sprintf("boom-%d", i))
			}
		})
	}()
	if !ran[0] || !ran[1] {
		t.Errorf("runs before/at the panic missing: %v", ran)
	}
	for i := 2; i < 8; i++ {
		if ran[i] {
			t.Errorf("queued run %d ran after the panic: %v", i, ran)
		}
	}
}

func TestForEachTaskPanicCaptureParallel(t *testing.T) {
	// Concurrent sweep: runs 2 (hotspot/C1) and 5 (nw/C2) panic. The
	// abort may shed the later one before it starts, but the re-raise is
	// always the lowest index that actually panicked, and in-flight
	// siblings are never torn down mid-run.
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
			switch {
			case rp.Index == 2 && rp.Spec == "hotspot" && rp.Config == "C1":
			case rp.Index == 5 && rp.Spec == "nw" && rp.Config == "C2":
			default:
				t.Errorf("re-raised panic from %s/%s index %d, want hotspot/C1 (2) or nw/C2 (5)",
					rp.Spec, rp.Config, rp.Index)
			}
			if want := fmt.Sprintf("boom-%d", rp.Index); rp.Value != want {
				t.Errorf("panic value = %v, want %s", rp.Value, want)
			}
		}()
		forEachTask(p, p.specs(), gridConfigs(), func(si, ci int) {
			mu.Lock()
			entered++
			mu.Unlock()
			if i := si*2 + ci; i == 2 || i == 5 {
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

func TestForEachTaskContextCancelled(t *testing.T) {
	// A context cancelled before the sweep starts sheds every run
	// without raising a panic, and the grid's slots stay zero.
	p := tiny("bfs", "hotspot")
	p.Parallel = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Context = ctx
	ran := 0
	forEachTask(p, p.specs(), gridConfigs(), func(si, ci int) { ran++ })
	if ran != 0 {
		t.Errorf("cancelled sweep ran %d runs, want 0", ran)
	}
	for i, r := range runGrid(p, gridConfigs()) {
		if r.Cycles != 0 || r.Benchmark != "" {
			t.Errorf("skipped run %d has a result: %+v", i, r)
		}
	}
}

// TestParallelismDoesNotChangeGrids extends the Fig. 8 determinism
// check to every experiment the run-granular executor fans out: rows
// and rendered tables at Parallel=1 and Parallel=4 must be identical.
func TestParallelismDoesNotChangeGrids(t *testing.T) {
	grids := []struct {
		name string
		run  func(*testing.T, Params) (any, string)
	}{
		{"Ablation", func(t *testing.T, p Params) (any, string) {
			rows := Ablation(p, []string{"no-migration", "tiny-buffers"})
			return rows, FormatAblation(rows)
		}},
		{"RetentionSweep", func(t *testing.T, p Params) (any, string) {
			rows := RetentionSweep(p, []time.Duration{100 * time.Microsecond, time.Millisecond})
			return rows, FormatRetentionSweep(rows)
		}},
		{"LRSizeSweep", func(t *testing.T, p Params) (any, string) {
			rows := LRSizeSweep(p)
			return rows, FormatLRSizeSweep(rows)
		}},
		{"AdaptivePolicySweep", func(t *testing.T, p Params) (any, string) {
			rows := AdaptivePolicySweep(p)
			return rows, FormatAdaptivePolicySweep(rows)
		}},
		{"StatsDumps", func(t *testing.T, p Params) (any, string) {
			dumps := StatsDumps(p, []string{"baseline-STT", "C1"})
			var b strings.Builder
			if err := sim.WriteStatsDumps(&b, dumps); err != nil {
				t.Fatal(err)
			}
			return dumps, b.String()
		}},
	}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			serial := tiny("bfs", "hotspot", "nw")
			serial.Parallel = 1
			parallel := tiny("bfs", "hotspot", "nw")
			parallel.Parallel = 4
			a, ta := g.run(t, serial)
			b, tb := g.run(t, parallel)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("rows differ between Parallel=1 and Parallel=4")
			}
			if ta != tb {
				t.Errorf("table differs between Parallel=1 and Parallel=4:\n%s\nvs\n%s", ta, tb)
			}
		})
	}
}
