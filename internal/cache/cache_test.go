package cache

import (
	"testing"
	"testing/quick"
)

func newSmall() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return New(512, 2, 64)
}

func TestNewGeometry(t *testing.T) {
	c := newSmall()
	if c.Sets() != 4 || c.Ways != 2 || c.LineBytes != 64 {
		t.Fatalf("geometry = %d sets %d ways %dB", c.Sets(), c.Ways, c.LineBytes)
	}
}

func TestNewPanics(t *testing.T) {
	cases := []struct {
		name            string
		cap, ways, line int
	}{
		{"zero capacity", 0, 1, 64},
		{"non-pow2 line", 512, 2, 48},
		{"indivisible", 500, 2, 64},
		{"non-pow2 sets", 64 * 2 * 3, 2, 64},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d,%d) did not panic", tt.cap, tt.ways, tt.line)
				}
			}()
			New(tt.cap, tt.ways, tt.line)
		})
	}
}

func TestIndexTagRoundTrip(t *testing.T) {
	c := newSmall()
	f := func(raw uint32) bool {
		addr := uint64(raw)
		set, tag := c.Index(addr)
		return c.AddrOf(set, tag) == c.BlockAddr(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := newSmall()
	const addr = 0x1040
	if c.Access(addr, false, 1) {
		t.Fatal("cold cache should miss")
	}
	c.Fill(addr, false, 1)
	if !c.Access(addr, false, 2) {
		t.Fatal("fill then access should hit")
	}
	set, way, _ := c.Probe(addr)
	if c.LineAt(set, way).Dirty {
		t.Error("clean fill should not be dirty")
	}
	if c.Stats.ReadMisses != 1 || c.Stats.ReadHits != 1 || c.Stats.Fills != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestWriteSetsDirtyAndCounter(t *testing.T) {
	c := newSmall()
	const addr = 0x80
	c.Fill(addr, false, 1)
	c.Access(addr, true, 5)
	set, way, _ := c.Probe(addr)
	line := c.LineAt(set, way)
	if !line.Dirty {
		t.Error("write hit must set dirty")
	}
	if line.WriteCount != 1 {
		t.Errorf("WriteCount = %d, want 1", line.WriteCount)
	}
	if line.LastWriteCycle != 5 {
		t.Errorf("LastWriteCycle = %d, want 5", line.LastWriteCycle)
	}
	c.Access(addr, true, 9)
	if got := c.LineAt(set, way).WriteCount; got != 2 {
		t.Errorf("WriteCount after 2nd write = %d, want 2", got)
	}
}

func TestWriteCounterSaturates(t *testing.T) {
	c := newSmall()
	const addr = 0x80
	c.Fill(addr, false, 0)
	for i := 0; i < 300; i++ {
		c.Access(addr, true, int64(i))
	}
	set, way, _ := c.Probe(addr)
	if got := c.WriteCountAt(set, way); got != 255 {
		t.Errorf("WriteCount = %d, want saturation at 255", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newSmall() // 2 ways
	// Three addresses mapping to set 0: set index bits are addr[7:6].
	a0, a1, a2 := uint64(0x000), uint64(0x100), uint64(0x200)
	c.Fill(a0, false, 1)
	c.Fill(a1, false, 2)
	c.Access(a0, false, 3) // a0 MRU, a1 LRU
	ev, evicted := c.Fill(a2, false, 4)
	if !evicted {
		t.Fatal("fill into full set must evict")
	}
	if ev.Addr != a1 {
		t.Errorf("evicted %#x, want %#x (LRU)", ev.Addr, a1)
	}
	if _, _, hit := c.Probe(a0); !hit {
		t.Error("MRU line should survive")
	}
}

func TestEvictionPrefersInvalidWay(t *testing.T) {
	c := newSmall()
	c.Fill(0x000, false, 1)
	// Second way of set 0 is invalid; filling must not evict.
	if _, evicted := c.Fill(0x100, false, 2); evicted {
		t.Error("fill into set with an invalid way must not evict")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := newSmall()
	c.Fill(0x000, false, 1)
	c.Access(0x000, true, 2)
	c.Fill(0x100, false, 3)
	ev, evicted := c.Fill(0x200, false, 4)
	if !evicted || !ev.Dirty {
		t.Errorf("expected dirty eviction, got %+v (evicted=%v)", ev, evicted)
	}
	if ev.Addr != 0x000 {
		t.Errorf("dirty victim Addr = %#x, want 0x000", ev.Addr)
	}
	if c.Stats.DirtyEvict != 1 {
		t.Errorf("DirtyEvict = %d, want 1", c.Stats.DirtyEvict)
	}
	// A nonzero set and tag: the victim's address is rebuilt exactly,
	// and a clean victim next to it reports clean.
	c.Fill(0x140, true, 5)
	c.Fill(0x240, false, 6)
	ev, evicted = c.Fill(0x340, false, 7)
	if !evicted || ev != (Evicted{Addr: 0x140, Dirty: true}) {
		t.Errorf("dirty victim = %+v (evicted=%v), want {0x140 true}", ev, evicted)
	}
	ev, evicted = c.Fill(0x440, false, 8)
	if !evicted || ev != (Evicted{Addr: 0x240, Dirty: false}) {
		t.Errorf("clean victim = %+v (evicted=%v), want {0x240 false}", ev, evicted)
	}
}

func TestFillDirtyInstallsModified(t *testing.T) {
	c := newSmall()
	c.Fill(0x40, true, 7)
	set, way, hit := c.Probe(0x40)
	if !hit {
		t.Fatal("dirty fill should be present")
	}
	line := c.LineAt(set, way)
	if !line.Dirty || line.WriteCount != 1 || line.LastWriteCycle != 7 {
		t.Errorf("dirty fill state = %+v", line)
	}
}

func TestInvalidate(t *testing.T) {
	c := newSmall()
	c.Fill(0x40, true, 1)
	ev, found := c.Invalidate(0x40)
	if !found || !ev.Dirty || ev.Addr != 0x40 {
		t.Errorf("Invalidate = %+v found=%v", ev, found)
	}
	if _, _, hit := c.Probe(0x40); hit {
		t.Error("line still present after invalidate")
	}
	if _, found := c.Invalidate(0x40); found {
		t.Error("second invalidate should find nothing")
	}
	if c.Stats.Invalidates != 1 {
		t.Errorf("Invalidates = %d, want 1", c.Stats.Invalidates)
	}
}

func TestInvalidateWayOnInvalid(t *testing.T) {
	c := newSmall()
	ev, ok := c.InvalidateWay(0, 0)
	if ok || ev != (Evicted{}) {
		t.Errorf("invalidating empty way should return zero Evicted and false, got %+v, %v", ev, ok)
	}
}

func TestCollectExpired(t *testing.T) {
	c := newSmall()
	c.Fill(0x000, true, 100)
	c.Fill(0x100, true, 500)
	exp := c.CollectExpired(600, 400)
	if len(exp) != 1 {
		t.Fatalf("expired lines = %d, want 1", len(exp))
	}
	set, way := exp[0][0], exp[0][1]
	ev, ok := c.InvalidateWay(set, way)
	if !ok || ev.Addr != 0x000 {
		t.Errorf("expired line addr = %#x, want 0x000", ev.Addr)
	}
}

func TestRangeAndValidLines(t *testing.T) {
	c := newSmall()
	addrs := []uint64{0x00, 0x40, 0x80, 0x1C0}
	for i, a := range addrs {
		c.Fill(a, false, int64(i))
	}
	if got := c.ValidLines(); got != len(addrs) {
		t.Errorf("ValidLines = %d, want %d", got, len(addrs))
	}
	seen := map[uint64]bool{}
	c.Range(func(set, way int, l Line) {
		seen[c.AddrOf(set, l.Tag)] = true
	})
	for _, a := range addrs {
		if !seen[a] {
			t.Errorf("Range missed %#x", a)
		}
	}
}

func TestWriteVariationRecording(t *testing.T) {
	c := newSmall()
	c.EnableWriteVariation()
	c.Fill(0x00, false, 1)
	c.Access(0x00, true, 2)
	c.Access(0x00, true, 3)
	c.Fill(0x100, true, 4) // dirty fill also counts as a write
	if got := c.WriteVar.TotalWrites(); got != 3 {
		t.Errorf("recorded writes = %d, want 3", got)
	}
}

func TestReset(t *testing.T) {
	c := newSmall()
	c.Policy = FIFO
	c.EnableWriteVariation()
	c.Fill(0x00, true, 1)
	c.Access(0x00, true, 2)
	c.Fill(0x100, false, 3)
	c.Invalidate(0x100)
	c.Reset()
	if c.ValidLines() != 0 {
		t.Error("Reset left valid lines")
	}
	if c.Stats != (Stats{}) {
		t.Errorf("Reset left stats %+v", c.Stats)
	}
	if c.WriteVar.TotalWrites() != 0 {
		t.Error("Reset left write-variation counts")
	}
	// Geometry, policy, and tracker dimensions survive.
	if c.Sets() != 4 || c.Ways != 2 || c.LineBytes != 64 || c.CapacityBytes != 512 {
		t.Errorf("Reset changed geometry: %d sets %d ways %dB", c.Sets(), c.Ways, c.LineBytes)
	}
	if c.Policy != FIFO {
		t.Errorf("Reset changed policy to %v", c.Policy)
	}
	if c.WriteVar == nil {
		t.Fatal("Reset dropped the write-variation tracker")
	}
	// Wear and all stamps are zeroed: Reset models a fresh array.
	for s := 0; s < c.Sets(); s++ {
		for w := 0; w < c.Ways; w++ {
			if l := c.LineAt(s, w); l.Valid || l.Wear != 0 || l.Dirty {
				t.Fatalf("Reset left state at (%d,%d): %+v", s, w, l)
			}
		}
	}
	// The array behaves like a fresh one: same miss/fill/hit sequence.
	if c.Access(0x00, false, 10) {
		t.Error("post-Reset access should miss")
	}
	c.Fill(0x00, false, 10)
	if !c.Access(0x00, false, 11) {
		t.Error("post-Reset fill should hit")
	}
	if l := c.LineAt(0, 0); l.Wear != 1 || l.RetentionStamp != 10 {
		t.Errorf("post-Reset line = %+v, want wear 1 stamp 10", l)
	}
}

// TestResetRandomSequenceRepeats pins the deterministic PRNG reseed: the
// eviction sequence after Reset must replay the original.
func TestResetRandomSequenceRepeats(t *testing.T) {
	c := newSmall()
	c.Policy = Random
	run := func() []uint64 {
		var evs []uint64
		for i := 0; i < 32; i++ {
			if ev, evicted := c.Fill(uint64(i)<<8, false, int64(i)); evicted {
				evs = append(evs, ev.Addr)
			}
		}
		return evs
	}
	a := run()
	c.Reset()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("eviction counts differ after Reset: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Reset must reseed the replacement PRNG")
		}
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{ReadHits: 3, ReadMisses: 1, WriteHits: 2, WriteMisses: 2}
	if s.Accesses() != 8 || s.Hits() != 5 || s.Misses() != 3 {
		t.Errorf("derived stats wrong: %+v", s)
	}
	if got := s.HitRate(); got != 5.0/8.0 {
		t.Errorf("HitRate = %v, want 0.625", got)
	}
	var zero Stats
	if zero.HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
}

// Property: the cache never holds two valid lines with the same tag in
// one set, and never holds more valid lines than its capacity.
func TestNoDuplicateTagsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newSmall()
		for i, op := range ops {
			addr := uint64(op) & 0xFFF
			write := op&0x8000 != 0
			if !c.Access(addr, write, int64(i)) {
				c.Fill(addr, write, int64(i))
			}
		}
		// Check invariants.
		if c.ValidLines() > c.Sets()*c.Ways {
			return false
		}
		for s := 0; s < c.Sets(); s++ {
			seen := map[uint64]bool{}
			for w := 0; w < c.Ways; w++ {
				l := c.LineAt(s, w)
				if !l.Valid {
					continue
				}
				if seen[l.Tag] {
					return false
				}
				seen[l.Tag] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a filled address always hits immediately afterwards, and the
// reported evicted address is never the one just filled.
func TestFillThenHitProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := newSmall()
		for i, raw := range addrs {
			addr := uint64(raw)
			ev, evicted := c.Fill(addr, false, int64(i))
			if evicted && ev.Addr == c.BlockAddr(addr) {
				return false
			}
			if _, _, hit := c.Probe(addr); !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFullyAssociativeAndDirectMapped(t *testing.T) {
	// Fully associative: 1 set x 8 ways.
	fa := New(8*64, 8, 64)
	if fa.Sets() != 1 {
		t.Fatalf("fully associative sets = %d", fa.Sets())
	}
	// Any 8 distinct lines fit regardless of address bits.
	for i := 0; i < 8; i++ {
		if _, evicted := fa.Fill(uint64(i)*0x1000, false, int64(i)); evicted {
			t.Fatalf("fully associative evicted at %d/8 fills", i)
		}
	}
	// Direct-mapped: conflict on same index.
	dm := New(4*64, 1, 64)
	dm.Fill(0x000, false, 1)
	if _, evicted := dm.Fill(0x100, false, 2); !evicted {
		t.Error("direct-mapped same-index fill must evict")
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(64<<10, 8, 256) // one C1 bank's worth: 32 sets
	c.Fill(0x1000, false, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, i&1 == 0, int64(i))
	}
}

func BenchmarkFillEvict(b *testing.B) {
	c := New(64<<10, 8, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(uint64(i)<<8, false, int64(i))
	}
}

func TestPolicyStrings(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "Random" {
		t.Error("Policy.String mismatch")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy should render ordinal")
	}
}

func TestFIFOEvictsEarliestFill(t *testing.T) {
	c := newSmall() // 2 ways
	c.Policy = FIFO
	a0, a1, a2 := uint64(0x000), uint64(0x100), uint64(0x200)
	c.Fill(a0, false, 1)
	c.Fill(a1, false, 2)
	// Touch a0 repeatedly: under LRU a1 would be the victim, but FIFO
	// still evicts the first-filled a0.
	c.Access(a0, false, 3)
	c.Access(a0, false, 4)
	ev, evicted := c.Fill(a2, false, 5)
	if !evicted || ev.Addr != a0 {
		t.Errorf("FIFO evicted %#x, want %#x", ev.Addr, a0)
	}
}

func TestRandomPolicyDeterministicAndValid(t *testing.T) {
	runOnce := func() []uint64 {
		c := newSmall()
		c.Policy = Random
		var evs []uint64
		for i := 0; i < 32; i++ {
			if ev, evicted := c.Fill(uint64(i)<<8, false, int64(i)); evicted {
				evs = append(evs, ev.Addr)
			}
		}
		return evs
	}
	a, b := runOnce(), runOnce()
	if len(a) == 0 {
		t.Fatal("random policy never evicted")
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic eviction count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random policy must be deterministic per instance")
		}
	}
}

func TestRandomPolicySpreadsVictims(t *testing.T) {
	c := New(8*64, 8, 64) // fully associative, 8 ways
	c.Policy = Random
	for i := 0; i < 8; i++ {
		c.Fill(uint64(i)<<6, false, int64(i))
	}
	seen := map[uint64]bool{}
	for i := 8; i < 64; i++ {
		ev, evicted := c.Fill(uint64(i)<<6, false, int64(i))
		if !evicted {
			t.Fatal("full set must evict")
		}
		seen[ev.Addr] = true
	}
	if len(seen) < 8 {
		t.Errorf("random victims covered only %d distinct lines", len(seen))
	}
}

func TestWearTracking(t *testing.T) {
	c := newSmall()
	c.Fill(0x00, false, 1) // fill writes the slot: wear 1
	c.Access(0x00, true, 2)
	c.Access(0x00, true, 3) // two stores: wear 3
	_, way, _ := c.Probe(0x00)
	if got := c.LineAt(0, way).Wear; got != 3 {
		t.Errorf("wear = %d, want 3", got)
	}
	// Reads do not wear the cell.
	c.Access(0x00, false, 4)
	if got := c.LineAt(0, way).Wear; got != 3 {
		t.Errorf("wear after read = %d, want 3", got)
	}
}

func TestWearSurvivesInvalidateAndRefill(t *testing.T) {
	c := newSmall()
	c.Fill(0x00, true, 1)
	c.Access(0x00, true, 2) // wear 2
	c.Invalidate(0x00)
	c.Fill(0x00, false, 3) // same slot (it is the invalid way): wear 3
	_, way, _ := c.Probe(0x00)
	if got := c.LineAt(0, way).Wear; got != 3 {
		t.Errorf("wear after invalidate+refill = %d, want 3", got)
	}
}

func TestWearCounts(t *testing.T) {
	c := newSmall()
	c.Fill(0x00, false, 1)
	counts := c.WearCounts()
	if len(counts) != c.Sets()*c.Ways {
		t.Fatalf("WearCounts len = %d", len(counts))
	}
	var total float64
	for _, v := range counts {
		total += v
	}
	if total != 1 {
		t.Errorf("total wear = %v, want 1", total)
	}
}

func TestWearAwareReplacementLevelsWear(t *testing.T) {
	// A read-hot block pins one way under LRU (always MRU via reads, so
	// never the victim) while conflicting write-fills churn the other
	// way alone. Wear-aware replacement instead victimizes the cold
	// slot, spreading fill wear across both ways.
	variation := func(p Policy) float64 {
		c := New(64*2, 2, 64) // fully associative, 2 ways
		c.Policy = p
		hot := uint64(0x000)
		alt := []uint64{0x100, 0x200}
		c.Fill(hot, false, 0)
		for i := 0; i < 400; i++ {
			if !c.Access(hot, false, int64(i)) {
				c.Fill(hot, false, int64(i))
			}
			w := alt[i%2]
			if !c.Access(w, true, int64(i)) {
				c.Fill(w, true, int64(i))
			}
		}
		counts := c.WearCounts()
		max, sum := 0.0, 0.0
		for _, v := range counts {
			if v > max {
				max = v
			}
			sum += v
		}
		return max / (sum / float64(len(counts)))
	}
	lru, wa := variation(LRU), variation(WearAware)
	if wa >= lru {
		t.Errorf("wear-aware variation (%v) should be below LRU's (%v)", wa, lru)
	}
}
