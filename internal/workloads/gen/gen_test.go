package gen

import (
	"bytes"
	"sync"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/refmodel"
	"sttllc/internal/sim"
	"sttllc/internal/trace"
)

// tinySpec keeps simulation-backed tests fast: short warps, few of
// them, one small kernel pair.
func tinySpec(seed uint64) AppSpec {
	return AppSpec{
		Name:         "t",
		Seed:         seed,
		InstrPerWarp: fixed(200),
		WarpsPerSM:   fixed(4),
	}
}

func TestAppDeterministicAndValid(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		s := AppSpec{Name: "d", Seed: seed, Index: int(seed % 5)}
		a, err := s.App()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, _ := s.App()
		if a.Hash() != b.Hash() {
			t.Fatalf("seed %d: same spec drew different apps", seed)
		}
		for _, k := range a.Kernels {
			if err := k.Validate(); err != nil {
				t.Errorf("seed %d: invalid kernel: %v", seed, err)
			}
		}
	}
}

func TestSeedAndIndexDecorrelate(t *testing.T) {
	seen := map[string]string{}
	for seed := uint64(0); seed < 4; seed++ {
		for idx := 0; idx < 4; idx++ {
			a, err := AppSpec{Name: "d", Seed: seed, Index: idx}.App()
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := seen[a.Hash()]; dup {
				t.Errorf("(%d,%d) collides with %s", seed, idx, prev)
			}
			seen[a.Hash()] = a.Name
		}
	}
}

// TestGeneratorRecordingByteIdentical is the determinism acceptance
// criterion: same seed + spec → byte-identical trace.Recording and
// identical sttllc-stats/v1 dump across two independent runs.
func TestGeneratorRecordingByteIdentical(t *testing.T) {
	spec := tinySpec(42)
	cfg, _ := config.ByName("C2")
	run := func() ([]byte, []byte) {
		app, err := spec.App()
		if err != nil {
			t.Fatal(err)
		}
		rec := new(trace.Recording)
		res := sim.RunApp(cfg, app, sim.Options{Recording: rec})
		var recBuf bytes.Buffer
		if err := trace.WriteRecording(&recBuf, rec); err != nil {
			t.Fatal(err)
		}
		var dumpBuf bytes.Buffer
		if err := res.Final.Dump().WriteJSON(&dumpBuf); err != nil {
			t.Fatal(err)
		}
		return recBuf.Bytes(), dumpBuf.Bytes()
	}
	rec1, dump1 := run()
	rec2, dump2 := run()
	if !bytes.Equal(rec1, rec2) {
		t.Error("recordings differ across two runs of the same generated workload")
	}
	if !bytes.Equal(dump1, dump2) {
		t.Error("stats dumps differ across two runs of the same generated workload")
	}
	if len(rec1) == 0 {
		t.Error("generated workload recorded no trace")
	}
}

// TestParallelGenerationRace draws the same family concurrently from
// many goroutines; under -race this pins that sampling shares no
// mutable state and stays deterministic under contention.
func TestParallelGenerationRace(t *testing.T) {
	f := FamilySpec{AppSpec: AppSpec{Name: "p", Seed: 7}, Count: 4}
	want, err := f.Apps()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := f.Apps()
			if err != nil {
				t.Error(err)
				return
			}
			for i := range want {
				if got[i].Hash() != want[i].Hash() {
					t.Errorf("member %d drifted under parallel generation", i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestGeneratedAppAllOrganizations runs one generated application
// through all six cache organizations (C1–C4 plus the stacked-L3
// presets) with the refmodel invariant checker auditing every bank —
// the acceptance gate that generated workloads are first-class
// citizens of the whole configuration space.
func TestGeneratedAppAllOrganizations(t *testing.T) {
	if testing.Short() {
		t.Skip("six full runs")
	}
	app, err := tinySpec(3).App()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"C1", "C2", "C3", "C4", "C1-L3", "C2-L3"} {
		cfg, ok := config.ByName(name)
		if !ok {
			t.Fatalf("unknown config %s", name)
		}
		res := sim.RunApp(cfg, app, sim.Options{
			InvariantCheck: func(bank int, b core.Bank, now int64) error {
				return refmodel.CheckBank(b, now)
			},
		}).Final
		if res.Instructions == 0 || res.Cycles == 0 {
			t.Errorf("%s: generated app ran no work (instr=%d cycles=%d)", name, res.Instructions, res.Cycles)
		}
	}
}

func TestFamilyMembersDistinctAndStable(t *testing.T) {
	f := FamilySpec{AppSpec: AppSpec{Name: "fam", Seed: 11}, Count: 6}
	apps, err := f.Apps()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, a := range apps {
		if seen[a.Hash()] {
			t.Errorf("member %d duplicates an earlier member", i)
		}
		seen[a.Hash()] = true
		// Member(i) must be the very draw Apps made.
		m, err := f.Member(i).App()
		if err != nil {
			t.Fatal(err)
		}
		if m.Hash() != a.Hash() {
			t.Errorf("Member(%d) disagrees with Apps()[%d]", i, i)
		}
	}
}

func TestRewriteIntervalSizesWWS(t *testing.T) {
	short := AppSpec{Name: "r", Seed: 1, RewriteIntervalUS: fixed(1),
		MemFrac: fixed(0.2), WriteFrac: fixed(0.3), Kernels: fixed(1)}
	long := short
	long.RewriteIntervalUS = fixed(1000)
	a1, err := short.App()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := long.App()
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := a1.Kernels[0].WWSBytes, a2.Kernels[0].WWSBytes
	if w1 >= w2 {
		t.Errorf("1us WWS (%d) not smaller than 1000us WWS (%d)", w1, w2)
	}
	if w1 < lineBytes || w2%lineBytes != 0 {
		t.Errorf("WWS not line-snapped: %d, %d", w1, w2)
	}
}

// TestChoicesDrawUniform checks the unweighted Choices draw: every
// choice comes up, about equally often, and nothing else does.
func TestChoicesDrawUniform(t *testing.T) {
	d := Dist{Choices: []float64{2, 3, 5}}
	rng := newXorshift(7)
	const n = 3000
	seen := map[float64]int{}
	for i := 0; i < n; i++ {
		seen[d.sample(rng, Dist{})]++
	}
	if len(seen) != len(d.Choices) {
		t.Fatalf("drew %v, want only and all of %v", seen, d.Choices)
	}
	for _, c := range d.Choices {
		if k := seen[c]; k < n/len(d.Choices)*8/10 {
			t.Errorf("choice %v drawn %d of %d times", c, k, n)
		}
	}
}

func TestDistValidation(t *testing.T) {
	bad := []AppSpec{
		{WriteFrac: Dist{Min: 0.9, Max: 0.1}},
		{WriteFrac: Dist{Fixed: ptr(0.5), Choices: []float64{1}}},
		{WriteFrac: Dist{Choices: []float64{1, 2}, Weights: []float64{1}}},
		{WriteFrac: Dist{Choices: []float64{1, 2}, Weights: []float64{0, 0}}},
		{WriteFrac: Dist{Weights: []float64{1}}},
		{WriteFrac: Dist{Min: 0, Max: 2, Log: true}},
		{WriteFrac: Dist{Fixed: ptr(0.5), Log: true}},
		{Index: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	if err := (AppSpec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
	if err := (FamilySpec{Count: 0}).Validate(); err == nil {
		t.Error("zero-count family accepted")
	}
	if err := (FamilySpec{Count: MaxFamily + 1}).Validate(); err == nil {
		t.Error("oversized family accepted")
	}
}

// TestExtremeDistsStillValidate: whatever the user declares, every
// sampled kernel must clamp into a legal Spec.
func TestExtremeDistsStillValidate(t *testing.T) {
	s := AppSpec{
		Name: "x", Seed: 9,
		Kernels:       fixed(100),
		MemFrac:       fixed(5),
		WriteFrac:     fixed(-3),
		LocalFrac:     fixed(1),
		ConstFrac:     fixed(1),
		TexFrac:       fixed(1),
		FootprintKB:   fixed(0.001),
		WWSKB:         fixed(1e12),
		StreamFrac:    fixed(0.9),
		RereadFrac:    fixed(0.9),
		RegsPerThread: fixed(1000),
		BlockWarps:    fixed(-5),
		WarpsPerSM:    fixed(0),
		InstrPerWarp:  fixed(1),
		Grids:         fixed(50),
	}
	app, err := s.App()
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Kernels) != MaxKernels {
		t.Errorf("kernel count = %d, want clamped to %d", len(app.Kernels), MaxKernels)
	}
	for _, k := range app.Kernels {
		if err := k.Validate(); err != nil {
			t.Errorf("extreme draw produced invalid kernel: %v", err)
		}
	}
}

func ptr(v float64) *float64 { return &v }
