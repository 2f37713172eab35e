package workloads

import (
	"testing"

	"sttllc/internal/gpu"
)

func TestSuiteComplete(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("suite size = %d, want 20", len(all))
	}
	seen := map[string]bool{}
	regions := map[Region]int{}
	for _, s := range all {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate benchmark %q", s.Name)
		}
		seen[s.Name] = true
		regions[s.Region]++
	}
	// Every Fig. 8a region must be populated.
	for _, r := range []Region{RegionInsensitive, RegionRegisterBound, RegionBoth, RegionCacheBound} {
		if regions[r] == 0 {
			t.Errorf("region %d has no benchmarks", r)
		}
	}
}

func TestByName(t *testing.T) {
	s, ok := ByName("bfs")
	if !ok || s.Name != "bfs" {
		t.Fatalf("ByName(bfs) = %+v, %v", s, ok)
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName should fail for unknown benchmarks")
	}
}

func TestNamesSortedAndStable(t *testing.T) {
	n1, n2 := Names(), Names()
	if len(n1) != 20 {
		t.Fatalf("Names len = %d", len(n1))
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatal("Names not stable across calls")
		}
		if i > 0 && n1[i] <= n1[i-1] {
			t.Errorf("Names not sorted at %d: %q <= %q", i, n1[i], n1[i-1])
		}
	}
}

func TestWriteMixSpansPaperRange(t *testing.T) {
	// The paper: "variety applications with near zero to 63% of write
	// operations". Check the suite spans a wide write-intensity range.
	min, max := 1.0, 0.0
	for _, s := range All() {
		if s.WriteFrac < min {
			min = s.WriteFrac
		}
		if s.WriteFrac > max {
			max = s.WriteFrac
		}
	}
	if min > 0.05 {
		t.Errorf("min write fraction %v, want a near-zero-write benchmark", min)
	}
	if max < 0.40 {
		t.Errorf("max write fraction %v, want a write-heavy benchmark", max)
	}
}

func TestDeterminism(t *testing.T) {
	s, _ := ByName("bfs")
	a, b := s.Model().NewWarp(7), s.Model().NewWarp(7)
	for i := 0; i < 1000; i++ {
		ia, oka := a.Next()
		ib, okb := b.Next()
		if ia != ib || oka != okb {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestDifferentWarpsDiffer(t *testing.T) {
	s, _ := ByName("bfs")
	a, b := s.Model().NewWarp(0), s.Model().NewWarp(1)
	same := 0
	for i := 0; i < 200; i++ {
		ia, _ := a.Next()
		ib, _ := b.Next()
		if ia == ib {
			same++
		}
	}
	if same > 150 {
		t.Errorf("warps 0 and 1 nearly identical (%d/200 same)", same)
	}
}

func TestStreamLengthAndTermination(t *testing.T) {
	s, _ := ByName("hotspot")
	s = s.Scale(0.1)
	st := s.Model().NewWarp(0)
	n := 0
	for {
		_, ok := st.Next()
		if !ok {
			break
		}
		n++
		if n > s.InstrPerWarp+1 {
			t.Fatal("stream did not terminate")
		}
	}
	if n != s.InstrPerWarp {
		t.Errorf("stream length = %d, want %d", n, s.InstrPerWarp)
	}
	// Next after termination keeps returning false.
	if _, ok := st.Next(); ok {
		t.Error("terminated stream must stay terminated")
	}
}

// mixOf runs a scaled stream and returns per-kind fractions.
func mixOf(t *testing.T, s Spec, warp int) (mem, write, local float64) {
	t.Helper()
	st := s.Model().NewWarp(warp)
	var n, memN, wrN, locN int
	for {
		in, ok := st.Next()
		if !ok {
			break
		}
		n++
		if in.Kind != gpu.InstrALU {
			memN++
			if in.Kind == gpu.InstrStore {
				wrN++
			}
			if in.Local() {
				locN++
			}
		}
	}
	return float64(memN) / float64(n), float64(wrN) / float64(memN), float64(locN) / float64(memN)
}

func TestInstructionMixMatchesSpec(t *testing.T) {
	for _, name := range []string{"bfs", "stencil", "mum", "backprop"} {
		s, _ := ByName(name)
		mem, write, _ := mixOf(t, s, 3)
		if diff := mem - s.MemFrac; diff < -0.08 || diff > 0.08 {
			t.Errorf("%s: mem fraction %v, spec %v", name, mem, s.MemFrac)
		}
		// Write fraction includes the end-of-grid burst and local
		// stores, so allow generous upward drift.
		if write < s.WriteFrac-0.08 || write > s.WriteFrac+0.15 {
			t.Errorf("%s: write fraction %v, spec %v", name, write, s.WriteFrac)
		}
	}
}

func TestGlobalAddressesWithinLayout(t *testing.T) {
	s, _ := ByName("cfd")
	st := s.Model().NewWarp(0)
	limit := s.FootprintBytes + uint64(s.Grids)*s.WWSBytes
	for {
		in, ok := st.Next()
		if !ok {
			break
		}
		if in.Kind == gpu.InstrALU {
			continue
		}
		switch in.Space {
		case gpu.SpaceLocal:
			if in.Addr < localBase || in.Addr >= constBase {
				t.Fatalf("local address %#x outside local segment", in.Addr)
			}
		case gpu.SpaceConst:
			if in.Addr < constBase || in.Addr >= constBase+constBytes {
				t.Fatalf("const address %#x outside const segment", in.Addr)
			}
		case gpu.SpaceTex:
			if in.Addr < texBase || in.Addr >= texBase+texBytes {
				t.Fatalf("tex address %#x outside tex segment", in.Addr)
			}
		default:
			if in.Addr >= limit {
				t.Fatalf("global address %#x outside footprint+WWS (%#x)", in.Addr, limit)
			}
		}
	}
}

func TestWritesLandInCurrentGridWWS(t *testing.T) {
	s, _ := ByName("stencil") // 2 grids
	st := s.Model().NewWarp(0)
	half := s.InstrPerWarp / 2
	for i := 0; i < s.InstrPerWarp; i++ {
		in, ok := st.Next()
		if !ok {
			break
		}
		if in.Kind != gpu.InstrStore || in.Local() {
			continue
		}
		grid := 0
		if i >= half {
			grid = 1
		}
		base := s.FootprintBytes + uint64(grid)*s.WWSBytes
		if in.Addr < base || in.Addr >= base+s.WWSBytes {
			t.Fatalf("instr %d (grid %d): write %#x outside WWS [%#x,%#x)",
				i, grid, in.Addr, base, base+s.WWSBytes)
		}
	}
}

func TestHotSkewConcentratesWrites(t *testing.T) {
	// bfs (hot 0.8) should put far more writes on the hot 1/16th than
	// stencil (hot 0.05).
	hotShare := func(name string) float64 {
		s, _ := ByName(name)
		st := s.Model().NewWarp(0)
		hotLimit := s.FootprintBytes + s.WWSBytes/16
		var hot, total int
		for {
			in, ok := st.Next()
			if !ok {
				break
			}
			if in.Kind != gpu.InstrStore || in.Local() {
				continue
			}
			// Only grid-0 writes for a clean region.
			if in.Addr >= s.FootprintBytes && in.Addr < s.FootprintBytes+s.WWSBytes {
				total++
				if in.Addr < hotLimit {
					hot++
				}
			}
		}
		return float64(hot) / float64(total)
	}
	if b, st := hotShare("bfs"), hotShare("stencil"); b < st+0.3 {
		t.Errorf("bfs hot-write share (%v) should far exceed stencil's (%v)", b, st)
	}
}

func TestScale(t *testing.T) {
	s, _ := ByName("bfs")
	if got := s.Scale(0.5).InstrPerWarp; got != s.InstrPerWarp/2 {
		t.Errorf("Scale(0.5) = %d, want %d", got, s.InstrPerWarp/2)
	}
	if got := s.Scale(0.00001).InstrPerWarp; got != 64 {
		t.Errorf("Scale floor = %d, want 64", got)
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	good, _ := ByName("bfs")
	bad := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.MemFrac = 1.5 },
		func(s *Spec) { s.WriteFrac = -0.1 },
		func(s *Spec) { s.LocalFrac = 2 },
		func(s *Spec) { s.FootprintBytes = 4 },
		func(s *Spec) { s.WWSBytes = 0 },
		func(s *Spec) { s.Grids = 0 },
	}
	for i, mut := range bad {
		s := good
		mut(&s)
		if s.Validate() == nil {
			t.Errorf("case %d: Validate accepted a bad spec", i)
		}
	}
}

func TestXorshiftBasics(t *testing.T) {
	x := newXorshift(0) // zero seed must be remapped
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		v := x.next()
		if seen[v] {
			t.Fatal("xorshift repeated within 1000 draws")
		}
		seen[v] = true
	}
	f := x.float()
	if f < 0 || f >= 1 {
		t.Errorf("float() = %v, want [0,1)", f)
	}
}

func TestFloatDistributionRoughlyUniform(t *testing.T) {
	x := newXorshift(42)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += x.float()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Errorf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestAppsAndAppByName(t *testing.T) {
	apps := Apps()
	if len(apps) < 3 {
		t.Fatalf("apps = %d", len(apps))
	}
	for _, a := range apps {
		if len(a.Kernels) < 2 || a.Name == "" {
			t.Errorf("malformed app %+v", a)
		}
	}
	// Producer/consumer footprint aliasing: the consumer's read
	// footprint covers the producer's output region.
	a, ok := AppByName("srad-pipeline")
	if !ok {
		t.Fatal("srad-pipeline missing")
	}
	p, c := a.Kernels[0], a.Kernels[1]
	if c.FootprintBytes <= p.FootprintBytes {
		t.Errorf("consumer footprint (%d) should extend past producer's (%d)",
			c.FootprintBytes, p.FootprintBytes)
	}
	if _, ok := AppByName("nope"); ok {
		t.Error("unknown app resolved")
	}
}

func TestConstAndTexSpaces(t *testing.T) {
	s, _ := ByName("mri-gridding") // has ConstFrac and TexFrac
	st := s.Model().NewWarp(2)
	var consts, texes int
	for {
		in, ok := st.Next()
		if !ok {
			break
		}
		switch in.Space {
		case gpu.SpaceConst:
			consts++
			if in.Kind != gpu.InstrLoad {
				t.Fatal("const accesses must be loads")
			}
		case gpu.SpaceTex:
			texes++
			if in.Kind != gpu.InstrLoad {
				t.Fatal("tex accesses must be loads")
			}
		}
	}
	if consts == 0 || texes == 0 {
		t.Errorf("const=%d tex=%d accesses, want both > 0", consts, texes)
	}
}

func TestValidateConstTexFractions(t *testing.T) {
	s, _ := ByName("bfs")
	s.ConstFrac = 0.5
	s.TexFrac = 0.5
	s.LocalFrac = 0.5
	if s.Validate() == nil {
		t.Error("fractions summing past 1 should be rejected")
	}
	s2, _ := ByName("bfs")
	s2.ConstFrac = -0.1
	if s2.Validate() == nil {
		t.Error("negative ConstFrac should be rejected")
	}
}

// BenchmarkStreamNext draws bfs's instruction stream warp after warp,
// as an SM does: a retired warp's successor comes from the model's
// stream arena. One op is one Next.
func BenchmarkStreamNext(b *testing.B) {
	spec, ok := ByName("bfs")
	if !ok {
		b.Fatal("bfs missing")
	}
	m := spec.Model()
	warp := 0
	ws := m.NewWarp(warp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ws.Next(); !ok {
			warp++
			ws = m.NewWarp(warp)
		}
	}
}
