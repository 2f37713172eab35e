package metrics

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry(true)
	c := r.NewCounter("c")
	g := r.Scope().Gauge("g")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Set(9)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := g.Value(); got != 9 {
		t.Errorf("gauge = %d, want 9", got)
	}
	if v, ok := r.Value("c"); !ok || v != 5 {
		t.Errorf("registry value c = %d,%v, want 5,true", v, ok)
	}
}

func TestExternalAndFuncEntries(t *testing.T) {
	r := NewRegistry(true)
	var ext uint64
	r.Scope().External("ext", &ext)
	r.Scope().Func("twice_ext", func() uint64 { return 2 * ext })
	ext = 21
	if a, _ := r.Value("ext"); a != 21 {
		t.Errorf("ext = %d, want 21", a)
	}
	if b, _ := r.Value("twice_ext"); b != 42 {
		t.Errorf("twice_ext = %d, want 42", b)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "ext" || snap[1].Name != "twice_ext" {
		t.Errorf("snapshot order = %v, want registration order", snap)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry(true)
	r.NewCounter("dup")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Scope().Gauge("dup")
}

// Counter handles must stay valid as the registry grows past many chunk
// boundaries: slab chunks are never moved.
func TestHandleStabilityAcrossChunks(t *testing.T) {
	r := NewRegistry(true)
	first := r.NewCounter("first")
	first.Inc()
	for i := 0; i < 4*chunkSlots; i++ {
		r.NewCounter(string(rune('a'+i%26)) + "-" + string(rune('0'+i/26%10)) + "-" + string(rune('0'+i/260)))
	}
	first.Add(2)
	if got := first.Value(); got != 3 {
		t.Errorf("counter after chunk growth = %d, want 3", got)
	}
	if v, _ := r.Value("first"); v != 3 {
		t.Errorf("registry read after chunk growth = %d, want 3", v)
	}
}

// Bucket semantics: bucket i counts v <= edges[i], first match wins;
// above the last edge is overflow. Exact-edge samples belong to the
// bucket they bound.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry(true)
	h := r.NewHistogram("lat", 10, 20, 40)
	cases := []struct {
		v      int64
		bucket int // -1 = overflow
	}{
		{-5, 0}, {0, 0}, {9, 0}, {10, 0},
		{11, 1}, {20, 1},
		{21, 2}, {40, 2},
		{41, -1}, {1 << 40, -1},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	want := map[int]uint64{0: 4, 1: 2, 2: 2}
	for i := 0; i < 3; i++ {
		if h.Count(i) != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, h.Count(i), want[i])
		}
	}
	if h.Overflow() != 2 {
		t.Errorf("overflow = %d, want 2", h.Overflow())
	}
	if h.Total() != uint64(len(cases)) {
		t.Errorf("total = %d, want %d", h.Total(), len(cases))
	}
}

func TestHistogramRejectsBadEdges(t *testing.T) {
	r := NewRegistry(true)
	for _, edges := range [][]int64{{}, {5, 5}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edges %v did not panic", edges)
				}
			}()
			r.NewHistogram("bad", edges...)
		}()
	}
}

// Concurrent increments: AddAtomic on one shared counter must be exact,
// and plain Inc on per-goroutine counters of one shared registry must be
// race-free (disjoint slab slots). Run under -race.
func TestConcurrentIncrements(t *testing.T) {
	const goroutines = 8
	const perG = 10000

	r := NewRegistry(true)
	shared := r.NewCounter("shared")
	own := make([]Counter, goroutines)
	for i := range own {
		own[i] = r.NewCounter("own" + string(rune('0'+i)))
	}

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < perG; n++ {
				shared.AddAtomic(1)
				own[i].Inc()
			}
		}(i)
	}
	wg.Wait()

	if got := shared.Value(); got != goroutines*perG {
		t.Errorf("shared counter = %d, want %d", got, goroutines*perG)
	}
	for i := range own {
		if got := own[i].Value(); got != perG {
			t.Errorf("own[%d] = %d, want %d", i, got, perG)
		}
	}
}

// The disabled path is the acceptance bar: handles from a disabled
// registry must cost zero allocations per operation (they are single
// increments into the sink).
func TestDisabledPathAllocFree(t *testing.T) {
	r := NewRegistry(false)
	c := r.NewCounter("c")
	g := r.Scope().Gauge("g")
	h := r.NewHistogram("h", 10, 100, 1000)
	var ext uint64
	r.Scope().External("ext", &ext)
	r.Scope().Func("f", func() uint64 { return 0 })

	i := int64(0)
	avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(uint64(i))
		h.Observe(i)
		h.Observe(i * 1000)
		i++
	})
	if avg != 0 {
		t.Errorf("disabled metrics path allocates %v per run, want 0", avg)
	}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Errorf("disabled registry snapshot has %d entries, want 0", len(snap))
	}
	if hs := r.Histograms(); len(hs) != 0 {
		t.Errorf("disabled registry histograms = %d, want 0", len(hs))
	}
}

// The enabled path must be allocation-free too: slab increments only.
func TestEnabledPathAllocFree(t *testing.T) {
	r := NewRegistry(true)
	c := r.NewCounter("c")
	h := r.NewHistogram("h", 10, 100, 1000)
	i := int64(0)
	avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(i % 2000)
		i++
	})
	if avg != 0 {
		t.Errorf("enabled metrics path allocates %v per run, want 0", avg)
	}
	if c.Value() == 0 || h.Total() == 0 {
		t.Error("enabled handles recorded nothing")
	}
}

func TestDisabledHandlesAreUsableConcurrentlyPerRegistry(t *testing.T) {
	// Two disabled registries must not share a sink: parallel simulations
	// each own one, and plain increments across them must not race.
	r1, r2 := NewRegistry(false), NewRegistry(false)
	c1, c2 := r1.NewCounter("c"), r2.NewCounter("c")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10000; i++ {
			c1.Inc()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10000; i++ {
			c2.Inc()
		}
	}()
	wg.Wait()
}

// registerShape is one fixed registration sequence through scopes, the way a
// simulator of one shape registers.
func registerShape(r *Registry, vals []uint64) {
	sc := r.Scope()
	sc.External("z.last", &vals[0])
	for i := 0; i < 2; i++ {
		b := sc.SubN("l2.bank", i)
		b.External("reads", &vals[1+2*i])
		b.Sub("lr").Func("fills", func() uint64 { return vals[2+2*i] })
	}
	r.NewCounter("a.first").Add(7)
}

// A registry bound to a table built by the same sequence reports the
// same names and values, in the same orders, as the registry that built
// it — while building no name of its own.
func TestBoundRegistryMatchesNaming(t *testing.T) {
	vals := []uint64{1, 2, 3, 4, 5}
	naming := NewRegistry(true)
	registerShape(naming, vals)
	tbl := naming.Table()

	bound := NewRegistry(true)
	if !bound.Bind(tbl) {
		t.Fatal("an empty enabled registry refused the table")
	}
	registerShape(bound, vals)
	if bound.Table() != tbl {
		t.Error("a bound registry's table is not the one it bound")
	}
	if got, want := bound.Snapshot(), naming.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("bound snapshot %v, want %v", got, want)
	}
	want := Samples{{"a.first", 7}, {"l2.bank0.lr.fills", 3}, {"l2.bank0.reads", 2},
		{"l2.bank1.lr.fills", 5}, {"l2.bank1.reads", 4}, {"z.last", 1}}
	for _, r := range []*Registry{naming, bound} {
		if got := r.Sorted(); !reflect.DeepEqual(got, want) {
			t.Errorf("sorted = %v, want %v", got, want)
		}
	}
	if v, ok := want.Get("l2.bank1.reads"); !ok || v != 4 {
		t.Errorf("Get = %d, %v", v, ok)
	}
	var back Samples
	if err := json.Unmarshal(want.AppendJSON(nil), &back); err != nil || !reflect.DeepEqual(back, want) {
		t.Errorf("round trip = %v, %v", back, err)
	}

	if NewRegistry(false).Bind(tbl) || naming.Bind(tbl) {
		t.Error("a disabled or non-empty registry bound a table")
	}
}

// A bound registry refuses a sequence that strays from its table.
func TestBoundRegistryChecksSequence(t *testing.T) {
	vals := []uint64{1, 2, 3, 4, 5}
	naming := NewRegistry(true)
	registerShape(naming, vals)
	tbl := naming.Table()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("a wrong name", func() {
		r := NewRegistry(true)
		r.Bind(tbl)
		r.NewCounter("not.in.table")
	})
	mustPanic("a short sequence", func() {
		r := NewRegistry(true)
		r.Bind(tbl)
		r.NewCounter("z.last")
		r.Table()
	})
	mustPanic("a long sequence", func() {
		r := NewRegistry(true)
		r.Bind(tbl)
		registerShape(r, vals)
		r.NewCounter("extra")
	})
}
