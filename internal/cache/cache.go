// Package cache implements the generic set-associative cache array used
// by every cache in the simulated GPU: the per-SM L1 data caches, the
// baseline SRAM/STT-RAM L2 banks, and the LR and HR parts of the proposed
// two-part L2. It deliberately models only the *array*: tags, LRU state,
// dirty bits, and the per-line metadata the paper's mechanisms need (a
// saturating write counter for WWS detection and the last-write cycle for
// retention tracking). Policies — search order, migration, refresh,
// write-through vs. write-back — belong to the owners in internal/core
// and internal/gpu.
//
// The array is laid out data-oriented. Each set's hot state is one
// record of consecutive words in a single slab: the valid bitmask words,
// the dirty bitmask words, the tags and the LRU use stamps. A 7-way set
// is 16 words, two CPU cache lines, so a probe, a victim choice and a
// fill touch one place instead of four. Probe compares every tag of the
// set into a match bitmask and gates it by the valid word; the LRU
// victim is a branch-free minimum over the record's stamps. The cold
// per-line metadata (write counters, retention stamps, wear) lives
// apart, in slabs of 64 sets that are allocated on the first fill into
// them, because the evaluation harness and the service build
// thousands of short-lived caches whose workloads touch only a fraction
// of the sets. A fresh array costs three allocations plus one per
// touched group.
package cache

import (
	"fmt"
	"math/bits"

	"sttllc/internal/stats"
)

// Line is a snapshot of one cache line's bookkeeping state, assembled
// from the backing slabs for inspection (LineAt, Range).
type Line struct {
	Tag   uint64
	Valid bool
	Dirty bool
	// WriteCount is the saturating write counter (WC) of the paper's
	// WWS monitor. With the default threshold of 1 it degenerates to
	// the ordinary modified bit, which is exactly the paper's point.
	WriteCount uint8
	// LastWriteCycle is the cycle of the most recent *program* write
	// (fill or store) into the line, used for rewrite-interval
	// characterization (Fig. 6).
	LastWriteCycle int64
	// RetentionStamp is the cycle the cell array was last physically
	// written — program writes, fills, and refreshes all reset it. The
	// retention clock of STT-RAM expiry checks runs from here.
	RetentionStamp int64
	// lru is the use stamp, taken from a cache-wide counter on every hit
	// and fill; the smallest in a set is the LRU victim.
	lru uint64
	// Wear counts every physical write into this line slot (stores and
	// fills), for endurance analysis. Wear belongs to the physical slot,
	// so it survives Fill and Invalidate.
	Wear uint32
}

// Stats counts the array's access outcomes.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Fills       uint64
	Evictions   uint64
	DirtyEvict  uint64
	Invalidates uint64
}

// Accesses returns the total number of lookups recorded.
func (s Stats) Accesses() uint64 {
	return s.ReadHits + s.ReadMisses + s.WriteHits + s.WriteMisses
}

// Hits returns total hits.
func (s Stats) Hits() uint64 { return s.ReadHits + s.WriteHits }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// HitRate returns hits/accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(a)
}

// coldLine is the per-line cold metadata. It is off the probe path:
// Probe touches only the set's record.
type coldLine struct {
	lastWrite int64
	retStamp  int64
	wear      uint32
	wrCount   uint8
}

// groupSetsLog2 sizes the lazy cold-metadata groups: cold slabs are
// allocated one group of 2^6 sets at a time, on first fill into the
// group. The evaluation harness builds thousands of caches whose
// workloads touch only a fraction of the sets; lazy groups keep the
// untouched majority unallocated while still costing just one
// allocation per touched group.
const groupSetsLog2 = 6

// Cache is a set-associative array. Construct with New. A Cache with one
// set is fully associative; a Cache with one way is direct-mapped.
type Cache struct {
	CapacityBytes int
	Ways          int
	LineBytes     int

	sets     int
	setShift uint // log2(LineBytes)
	tagShift uint // log2(sets)
	setMask  uint64

	// rec holds one record of recWords words per set, laid out as
	// [valid words | dirty words | tags | use stamps]: maskWords valid
	// and dirty bitmask words (bit b of word wi is way wi*64+b), then
	// Ways tags from word tagOff, then Ways LRU use stamps from word
	// stampOff. lastMask covers the way bits of the final (possibly
	// partial) mask word.
	rec       []uint64
	recWords  int
	tagOff    int
	stampOff  int
	maskWords int
	lastMask  uint64

	// Active-way restriction: Victim never allocates into ways >=
	// activeWays, so an owner can shrink the usable associativity at
	// runtime (after demoting the lines parked there) and grow it back.
	// At construction activeWays == Ways and the masks equal the full
	// ones, so the restriction costs nothing until SetActiveWays is used.
	activeWays  int
	activeWords int
	activeLast  uint64

	// cold[set>>groupShift] is the group slab holding the metadata of
	// (set&groupMask, way) at index (set&groupMask)*Ways+way; nil until
	// the group sees its first fill. Valid lines always have a group.
	cold       [][]coldLine
	groupShift uint
	groupMask  int

	stamp      uint64
	validCount int
	// noMeta disables the cold per-line metadata (write counters,
	// retention stamps, wear): the SM-side caches never have theirs
	// read, so they skip both the group allocations and the per-write
	// stores. Snapshots of such lines carry zero metadata.
	noMeta bool

	wheel *expiryWheel

	Stats Stats
	// WriteVar, when non-nil, records every write hit and write fill
	// per (set, way) for the Fig. 3 inter/intra-set COV analysis.
	WriteVar *stats.WriteVariation
}

// New builds a cache of capacityBytes with the given associativity and
// line size. Line size and the resulting set count must be powers of two
// (standard indexing); ways does not. It panics on invalid geometry,
// which is a configuration bug.
func New(capacityBytes, ways, lineBytes int) *Cache {
	if capacityBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	if bits.OnesCount(uint(lineBytes)) != 1 {
		panic("cache: line size must be a power of two")
	}
	if capacityBytes%(ways*lineBytes) != 0 {
		panic(fmt.Sprintf("cache: capacity %d not divisible by ways*line %d", capacityBytes, ways*lineBytes))
	}
	sets := capacityBytes / (ways * lineBytes)
	if bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("cache: set count %d must be a power of two", sets))
	}
	mw := (ways + 63) / 64
	last := ^uint64(0)
	if r := ways % 64; r != 0 {
		last = 1<<uint(r) - 1
	}
	gs := uint(groupSetsLog2)
	if ts := uint(bits.TrailingZeros(uint(sets))); ts < gs {
		gs = ts
	}
	rw := 2*mw + 2*ways
	c := &Cache{
		CapacityBytes: capacityBytes,
		Ways:          ways,
		LineBytes:     lineBytes,
		sets:          sets,
		setShift:      uint(bits.TrailingZeros(uint(lineBytes))),
		tagShift:      uint(bits.TrailingZeros(uint(sets))),
		setMask:       uint64(sets - 1),
		rec:           make([]uint64, sets*rw),
		recWords:      rw,
		tagOff:        2 * mw,
		stampOff:      2*mw + ways,
		maskWords:     mw,
		lastMask:      last,
		cold:          make([][]coldLine, sets>>gs),
		groupShift:    gs,
		groupMask:     1<<gs - 1,
		activeWays:    ways,
		activeWords:   mw,
		activeLast:    last,
	}
	return c
}

// DisableMetadata turns off cold per-line metadata tracking (WriteCount,
// LastWriteCycle, RetentionStamp, Wear — all read back as zero). For
// caches whose owner never reads those fields — the per-SM L1, constant,
// and texture caches — this skips the metadata stores on every write and
// the group slab allocations entirely. Must be called before the first
// access; incompatible with retention expiry, which reads the
// suppressed fields.
func (c *Cache) DisableMetadata() { c.noMeta = true }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Index returns the set index and tag of an address.
func (c *Cache) Index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.setShift
	return int(blk & c.setMask), blk >> c.tagShift
}

// BlockAddr returns the line-aligned address.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.LineBytes) - 1)
}

// record returns the set's record.
func (c *Cache) record(set int) []uint64 {
	base := set * c.recWords
	return c.rec[base : base+c.recWords : base+c.recWords]
}

// bitAt reports whether way's bit is set in the bitmask words starting
// at word off of the record r.
func bitAt(r []uint64, off, way int) bool {
	return r[off+way>>6]&(1<<uint(way&63)) != 0
}

// coldAt returns the metadata slot of (set, way). The group must exist,
// which holds for every valid line (Fill allocates it).
func (c *Cache) coldAt(set, way int) *coldLine {
	return &c.cold[set>>c.groupShift][(set&c.groupMask)*c.Ways+way]
}

// coldEnsure returns the metadata slot of (set, way), allocating the
// set's group slab on first touch.
func (c *Cache) coldEnsure(set, way int) *coldLine {
	g := c.cold[set>>c.groupShift]
	if g == nil {
		g = make([]coldLine, (c.groupMask+1)*c.Ways)
		c.cold[set>>c.groupShift] = g
	}
	return &g[(set&c.groupMask)*c.Ways+way]
}

// Probe looks the address up without changing any state (no LRU update,
// no stats). It returns the way and whether it hit.
func (c *Cache) Probe(addr uint64) (set, way int, hit bool) {
	set, tag := c.Index(addr)
	r := c.record(set)
	if c.maskWords == 1 { // every cache up to 64 ways: one mask word
		// Match every tag with no early exit, then gate by the valid
		// word: the loop body compiles to a compare and a conditional
		// move, so no branch depends on which way matches.
		var m uint64
		bit := uint64(1)
		for _, t := range r[2 : 2+c.Ways] {
			if t == tag {
				m |= bit
			}
			bit <<= 1
		}
		if m &= r[0]; m != 0 {
			return set, bits.TrailingZeros64(m), true
		}
		return set, -1, false
	}
	tags := r[c.tagOff : c.tagOff+c.Ways]
	for wi := 0; wi < c.maskWords; wi++ {
		for m := r[wi]; m != 0; m &= m - 1 {
			w := wi<<6 + bits.TrailingZeros64(m)
			if tags[w] == tag {
				return set, w, true
			}
		}
	}
	return set, -1, false
}

// Access performs a read or write lookup at the given cycle. On a hit it
// updates LRU, and for writes also the dirty bit, the saturating write
// counter, and LastWriteCycle. It records stats and (for writes) write
// variation. It does NOT allocate on miss; callers decide fill policy via
// Fill.
func (c *Cache) Access(addr uint64, write bool, cycle int64) (hit bool) {
	set, way, ok := c.Probe(addr)
	if !ok {
		if write {
			c.Stats.WriteMisses++
		} else {
			c.Stats.ReadMisses++
		}
		return false
	}
	c.AccessAt(set, way, write, cycle)
	return true
}

// AccessAt applies the hit-side bookkeeping of Access to a line the
// caller already located with Probe, skipping the redundant second tag
// walk. The way must be valid.
func (c *Cache) AccessAt(set, way int, write bool, cycle int64) {
	r := c.record(set)
	c.stamp++
	r[c.stampOff+way] = c.stamp
	if write {
		c.Stats.WriteHits++
		r[c.maskWords+way>>6] |= 1 << uint(way&63)
		if !c.noMeta {
			l := c.coldAt(set, way)
			if l.wrCount < 255 {
				l.wrCount++
			}
			l.lastWrite = cycle
			l.retStamp = cycle
			l.wear++
		}
		if c.wheel != nil {
			c.wheel.mark(set, cycle)
		}
		if c.WriteVar != nil {
			c.WriteVar.Record(set, way)
		}
	} else {
		c.Stats.ReadHits++
	}
}

// activeMask returns the mask of the active ways (those below
// activeWays) in mask word wi.
func (c *Cache) activeMask(wi int) uint64 {
	if wi == c.activeWords-1 {
		return c.activeLast
	}
	return ^uint64(0)
}

// Victim returns the way to evict in the set: an invalid active way if
// any, otherwise the least recently used active line. Ways at or beyond
// the active bound are never picked.
func (c *Cache) Victim(set int) int {
	r := c.record(set)
	for wi := 0; wi < c.activeWords; wi++ {
		if inv := ^r[wi] & c.activeMask(wi); inv != 0 {
			return wi<<6 + bits.TrailingZeros64(inv)
		}
	}
	// A branch-free minimum: both assignments compile to conditional
	// moves. Strict < keeps the lowest way on ties.
	stamps := r[c.stampOff : c.stampOff+c.activeWays]
	victim, min := 0, stamps[0]
	for w, s := range stamps {
		if s < min {
			min, victim = s, w
		}
	}
	return victim
}

// ActiveWays returns the current allocation bound (Ways unless
// SetActiveWays narrowed it).
func (c *Cache) ActiveWays() int { return c.activeWays }

// SetActiveWays restricts allocation to the first n ways. When
// shrinking, the caller must first evict every valid line in ways
// n..Ways-1 (InvalidateWay) — Probe still sees all ways, so a line left
// behind would keep hitting but never age out of the restricted set.
// Growing simply re-opens the ways. Panics on n outside [1, Ways].
func (c *Cache) SetActiveWays(n int) {
	if n < 1 || n > c.Ways {
		panic(fmt.Sprintf("cache: active ways %d outside [1, %d]", n, c.Ways))
	}
	c.activeWays = n
	c.activeWords = (n + 63) / 64
	c.activeLast = ^uint64(0)
	if r := n % 64; r != 0 {
		c.activeLast = 1<<uint(r) - 1
	}
}

// Evicted describes a line pushed out by Fill or removed by Invalidate:
// just what a caller needs to write it back or move it elsewhere. The
// victim's cold metadata is not copied out; inspect it with LineAt
// before evicting if it matters.
type Evicted struct {
	Addr  uint64 // line-aligned address reconstructed from set+tag
	Dirty bool
}

// snapshot assembles the Line view of (set, way) from the slabs. The
// way must be valid. A line without cold metadata (DisableMetadata)
// snapshots with zero metadata fields.
func (c *Cache) snapshot(set, way int) Line {
	r := c.record(set)
	ln := Line{
		Tag:   r[c.tagOff+way],
		Valid: true,
		Dirty: bitAt(r, c.maskWords, way),
		lru:   r[c.stampOff+way],
	}
	if g := c.cold[set>>c.groupShift]; g != nil {
		l := &g[(set&c.groupMask)*c.Ways+way]
		ln.WriteCount = l.wrCount
		ln.LastWriteCycle = l.lastWrite
		ln.RetentionStamp = l.retStamp
		ln.Wear = l.wear
	}
	return ln
}

// LineAt returns a snapshot of the line at (set, way). An invalid way
// yields a zero Line carrying only the slot's wear.
func (c *Cache) LineAt(set, way int) Line {
	if !bitAt(c.record(set), 0, way) {
		if g := c.cold[set>>c.groupShift]; g != nil {
			return Line{Wear: g[(set&c.groupMask)*c.Ways+way].wear}
		}
		return Line{}
	}
	return c.snapshot(set, way)
}

// WriteCountAt returns the saturating write counter of (set, way).
func (c *Cache) WriteCountAt(set, way int) uint8 {
	if g := c.cold[set>>c.groupShift]; g != nil {
		return g[(set&c.groupMask)*c.Ways+way].wrCount
	}
	return 0
}

// LastWriteCycleAt returns the last program-write cycle of (set, way).
func (c *Cache) LastWriteCycleAt(set, way int) int64 {
	if g := c.cold[set>>c.groupShift]; g != nil {
		return g[(set&c.groupMask)*c.Ways+way].lastWrite
	}
	return 0
}

// RetentionStampAt returns the last physical-write cycle of (set, way).
func (c *Cache) RetentionStampAt(set, way int) int64 {
	if g := c.cold[set>>c.groupShift]; g != nil {
		return g[(set&c.groupMask)*c.Ways+way].retStamp
	}
	return 0
}

// SetRetentionStamp restarts the retention clock of (set, way) — the
// refresh path: the cell array was physically rewritten at cycle.
func (c *Cache) SetRetentionStamp(set, way int, cycle int64) {
	c.coldAt(set, way).retStamp = cycle
	if c.wheel != nil {
		c.wheel.mark(set, cycle)
	}
}

// DirtyAt reports whether the line at (set, way) is dirty.
func (c *Cache) DirtyAt(set, way int) bool {
	return bitAt(c.record(set), c.maskWords, way)
}

// MaskWords returns the number of bitmask words per set.
func (c *Cache) MaskWords() int { return c.maskWords }

// ValidWord returns mask word wi of the set's valid bitmask; bit b is
// way wi*64+b.
func (c *Cache) ValidWord(set, wi int) uint64 {
	return c.record(set)[wi]
}

// DirtyWord returns mask word wi of the set's dirty bitmask. Invariant
// checkers use it to verify dirty ⊆ valid at the raw-bitmask level,
// which DirtyAt (per-way) cannot distinguish from a stale bit on an
// invalid way.
func (c *Cache) DirtyWord(set, wi int) uint64 {
	return c.record(set)[c.maskWords+wi]
}

// UseStampAt returns the replacement use stamp of (set, way): the value
// the LRU policy compares, assigned from a cache-wide counter on every
// hit and fill and zeroed on invalidate. Exposed so an external
// reference model can compare replacement state exactly.
func (c *Cache) UseStampAt(set, way int) uint64 {
	return c.record(set)[c.stampOff+way]
}

// Fill allocates the address into its set (evicting the LRU victim if the
// set is full) and returns the evicted line, if any was valid. The new
// line is installed MRU; dirty marks it modified (e.g. a write-allocate
// fill or a migrated dirty block). cycle stamps LastWriteCycle: a fill
// physically writes the array regardless of dirtiness, which is what
// retention tracking cares about.
func (c *Cache) Fill(addr uint64, dirty bool, cycle int64) (ev Evicted, evicted bool) {
	set, tag := c.Index(addr)
	way := c.Victim(set)
	var l *coldLine
	if !c.noMeta {
		l = c.coldEnsure(set, way)
	}
	r := c.record(set)
	vi, di := way>>6, c.maskWords+way>>6
	bit := uint64(1) << uint(way&63)
	if r[vi]&bit != 0 {
		ev = Evicted{
			Addr:  c.AddrOf(set, r[c.tagOff+way]),
			Dirty: r[di]&bit != 0,
		}
		evicted = true
		c.Stats.Evictions++
		if ev.Dirty {
			c.Stats.DirtyEvict++
		}
	} else {
		r[vi] |= bit
		c.validCount++
	}
	c.stamp++
	r[c.tagOff+way] = tag
	if dirty {
		r[di] |= bit
	} else {
		r[di] &^= bit
	}
	r[c.stampOff+way] = c.stamp
	if l != nil {
		if dirty {
			l.wrCount = 1
		} else {
			l.wrCount = 0
		}
		l.lastWrite = cycle
		l.retStamp = cycle
		l.wear++ // the fill writes the physical slot
	}
	c.Stats.Fills++
	if c.wheel != nil {
		c.wheel.mark(set, cycle)
	}
	if dirty && c.WriteVar != nil {
		c.WriteVar.Record(set, way)
	}
	return ev, evicted
}

// AddrOf reconstructs the line-aligned address stored at (set, tag).
func (c *Cache) AddrOf(set int, tag uint64) uint64 {
	return (tag<<c.tagShift | uint64(set)) << c.setShift
}

// Invalidate removes the address if present and returns its final state.
func (c *Cache) Invalidate(addr uint64) (ev Evicted, found bool) {
	set, way, ok := c.Probe(addr)
	if !ok {
		return Evicted{}, false
	}
	return c.InvalidateWay(set, way)
}

// InvalidateWay removes the line at (set, way) and returns its final
// state; found is false (and ev zero) when the way was already invalid.
func (c *Cache) InvalidateWay(set, way int) (ev Evicted, found bool) {
	r := c.record(set)
	vi, di := way>>6, c.maskWords+way>>6
	bit := uint64(1) << uint(way&63)
	if r[vi]&bit == 0 {
		return Evicted{}, false
	}
	ev = Evicted{
		Addr:  c.AddrOf(set, r[c.tagOff+way]),
		Dirty: r[di]&bit != 0,
	}
	r[vi] &^= bit
	r[di] &^= bit
	c.validCount--
	// Zero the vacated slot's metadata; wear belongs to the physical
	// slot and survives.
	if !c.noMeta {
		l := c.coldAt(set, way)
		l.wrCount = 0
		l.lastWrite = 0
		l.retStamp = 0
	}
	r[c.stampOff+way] = 0
	c.Stats.Invalidates++
	return ev, true
}

// Range calls fn for every valid line, in (set, way) order, with a
// snapshot of its state. Mutation goes through the targeted setters
// (SetRetentionStamp, InvalidateWay outside the iteration, FlushDirty).
func (c *Cache) Range(fn func(set, way int, l Line)) {
	for set := 0; set < c.sets; set++ {
		r := c.record(set)
		for wi := 0; wi < c.maskWords; wi++ {
			for m := r[wi]; m != 0; m &= m - 1 {
				w := wi<<6 + bits.TrailingZeros64(m)
				fn(set, w, c.snapshot(set, w))
			}
		}
	}
}

// FlushDirty visits every valid dirty line in (set, way) order, reports
// its line-aligned address, and clears its dirty bit — the write-back
// drain at end of simulation.
func (c *Cache) FlushDirty(fn func(set, way int, addr uint64)) {
	for set := 0; set < c.sets; set++ {
		r := c.record(set)
		for wi := 0; wi < c.maskWords; wi++ {
			m := r[wi] & r[c.maskWords+wi]
			if m == 0 {
				continue
			}
			for dm := m; dm != 0; dm &= dm - 1 {
				w := wi<<6 + bits.TrailingZeros64(dm)
				fn(set, w, c.AddrOf(set, r[c.tagOff+w]))
			}
			r[c.maskWords+wi] &^= m
		}
	}
}

// AppendExpired appends the (set, way) pairs of valid lines whose cell
// array has not been physically written (program write, fill, or
// refresh) for at least maxAge cycles to dst and returns it. The
// paper's retention counters are a coarse hardware encoding of exactly
// this predicate. Passing a reused scratch slice keeps the scan
// allocation-free in steady state.
func (c *Cache) AppendExpired(dst [][2]int, now int64, maxAge int64) [][2]int {
	for set := 0; set < c.sets; set++ {
		r := c.record(set)
		base := (set & c.groupMask) * c.Ways
		var g []coldLine
		for wi := 0; wi < c.maskWords; wi++ {
			for m := r[wi]; m != 0; m &= m - 1 {
				w := wi<<6 + bits.TrailingZeros64(m)
				if g == nil {
					g = c.cold[set>>c.groupShift]
				}
				if now-g[base+w].retStamp >= maxAge {
					dst = append(dst, [2]int{set, w})
				}
			}
		}
	}
	return dst
}

// RemarkExpiry re-marks every valid line's retention stamp into the
// expiry wheel. Callers that rebuild the wheel mid-run (EnableExpiryWheel
// with a new tick/lead after a retention reconfiguration) must re-mark,
// because a fresh wheel has no buckets set and an unmarked aged line
// would never be visited by DueSets-driven scans. No-op without a wheel.
func (c *Cache) RemarkExpiry() {
	if c.wheel == nil {
		return
	}
	for set := 0; set < c.sets; set++ {
		r := c.record(set)
		base := (set & c.groupMask) * c.Ways
		var g []coldLine
		for wi := 0; wi < c.maskWords; wi++ {
			for m := r[wi]; m != 0; m &= m - 1 {
				w := wi<<6 + bits.TrailingZeros64(m)
				if g == nil {
					g = c.cold[set>>c.groupShift]
				}
				c.wheel.mark(set, g[base+w].retStamp)
			}
		}
	}
}

// CollectExpired is AppendExpired into a fresh slice.
func (c *Cache) CollectExpired(now int64, maxAge int64) (setWays [][2]int) {
	return c.AppendExpired(nil, now, maxAge)
}

// ValidLines returns the number of valid lines.
func (c *Cache) ValidLines() int { return c.validCount }

// WearCounts returns every line slot's physical write count, in
// (set, way) order, for endurance analysis.
func (c *Cache) WearCounts() []float64 {
	out := make([]float64, c.sets*c.Ways)
	for set := 0; set < c.sets; set++ {
		g := c.cold[set>>c.groupShift]
		if g == nil {
			continue // untouched group: all-zero wear
		}
		base := (set & c.groupMask) * c.Ways
		for w := 0; w < c.Ways; w++ {
			out[set*c.Ways+w] = float64(g[base+w].wear)
		}
	}
	return out
}

// EnableWriteVariation attaches a write-variation tracker sized to the
// array. Call before simulation when Fig. 3-style stats are wanted.
func (c *Cache) EnableWriteVariation() {
	c.WriteVar = stats.NewWriteVariation(c.sets, c.Ways)
}

// Reset clears all lines and statistics but keeps the geometry and any
// write-variation tracker (zeroed). Wear and all stamps are zeroed:
// Reset models a fresh array, not a power cycle of a worn one. Touched cold-metadata groups are zeroed in place
// and kept, so a reused array refills without allocating.
func (c *Cache) Reset() {
	clear(c.rec)
	for _, g := range c.cold {
		clear(g)
	}
	c.stamp = 0
	c.validCount = 0
	c.activeWays = c.Ways
	c.activeWords = c.maskWords
	c.activeLast = c.lastMask
	c.Stats = Stats{}
	if c.WriteVar != nil {
		c.WriteVar.Reset()
	}
	if c.wheel != nil {
		c.wheel.reset()
	}
}
