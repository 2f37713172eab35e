// Package engine is the deterministic timer scheduler of the simulator:
// a monotonic clock, a short-horizon timing wheel and a binary min-heap
// for events further out. The simulator's drive loop keeps the SM wakes
// itself; the engine carries only its timers — the C4 epoch, the
// cancellation poll and the observers' retention-cadence ticks.
//
// Determinism is the engine's contract: events fire strictly ordered by
// (time, registration sequence), so a simulation driven by the engine
// replays identically run after run regardless of host load or callback
// cost. One engine is single-threaded by construction; callers that want
// parallelism run independent engines (the simulator runs one engine per
// Simulator, and the experiment harnesses fan whole runs out across
// workers).
//
// Events live in a flat arena indexed by int32 handles rather than as
// individual heap objects: the wheel buckets, the heap, and the free
// list all hold plain integers, so a self-rearming timer allocates
// nothing once the arena has grown (it doubles amortized).
package engine

import "math/bits"

// Func is an event callback. It receives the engine clock at fire time,
// which for ordinary events equals the cycle the event was scheduled at.
type Func func(now int64)

// event is one scheduled callback, stored in the engine's arena; its fire
// time is implied by its wheel bucket or kept in its heap entry. A fired
// slot's fn is left stale rather than nil'd until the slot is reused or
// the engine is reset.
type event struct {
	seq uint64
	fn  Func
}

// farEntry is one heap slot. It carries the fire time and sequence, so
// heap ordering and peeks stay inside the (small, contiguous) heap array
// instead of chasing handles into the arena.
type farEntry struct {
	at  int64
	seq uint64
	idx int32
}

// wheelSize is the short-horizon window, in cycles, served by the timing
// wheel. Events scheduled within wheelSize cycles of the clock go into a
// ring bucket (O(1) insert and drain); events further out — the coarse
// timers and retention-scan boundaries — go to the heap.
const (
	wheelSize  = 512
	wheelWords = wheelSize / 64
)

// Engine is a monotonic event scheduler. The zero value is not ready;
// use New.
type Engine struct {
	now   int64
	seq   uint64
	live  int
	fired uint64 // events dispatched over the engine's lifetime

	events []event // arena; handles index into it
	free   []int32 // recycled handles

	far   []farEntry // binary min-heap on (at, seq)
	wheel [wheelSize][]int32
	near  int                // events currently in the wheel
	mask  [wheelWords]uint64 // occupancy bit per wheel bucket

	batch []int32 // scratch for one same-cycle firing batch
}

// bucketCap is the capacity each wheel bucket starts with. The buckets
// are carved from one slab, so a fresh engine costs one allocation for
// its wheel instead of one per bucket on first use; a bucket that
// outgrows its share reallocates on its own.
const bucketCap = 4

// New returns an engine with its clock at start.
func New(start int64) *Engine {
	// Size the arena for a typical complement of timers up front: live
	// events at any instant number in the tens, so one slab avoids the
	// append-doubling copies.
	e := &Engine{now: start, events: make([]event, 0, 64)}
	slab := make([]int32, wheelSize*bucketCap)
	for i := range e.wheel {
		e.wheel[i] = slab[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
	return e
}

// Reset empties the engine and sets its clock to start, keeping its
// arena, heap and wheel buckets: the reset engine behaves exactly like
// New(start).
func (e *Engine) Reset(start int64) {
	e.now, e.seq, e.live, e.fired = start, 0, 0, 0
	clear(e.events) // drop the stale callbacks
	e.events = e.events[:0]
	e.free = e.free[:0]
	e.far = e.far[:0]
	for i := range e.wheel {
		e.wheel[i] = e.wheel[i][:0]
	}
	e.near = 0
	e.mask = [wheelWords]uint64{}
	e.batch = e.batch[:0]
}

// Now returns the engine clock: the latest cycle passed to RunUntil (or
// the fire time of the event currently being dispatched).
func (e *Engine) Now() int64 { return e.now }

// Len returns the number of scheduled, not-yet-fired events.
func (e *Engine) Len() int { return e.live }

// ScheduledTotal returns the number of events ever scheduled on this
// engine (the registration sequence doubles as the count, so the
// observability layer reads it for free).
func (e *Engine) ScheduledTotal() uint64 { return e.seq }

// FiredTotal returns the number of events dispatched over the engine's
// lifetime.
func (e *Engine) FiredTotal() uint64 { return e.fired }

// Schedule registers fn to fire at cycle at. Scheduling into the past
// panics: the engine clock is monotonic.
func (e *Engine) Schedule(at int64, fn Func) {
	if at < e.now {
		panic("engine: event scheduled into the past")
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
		e.events[idx] = event{seq: e.seq, fn: fn}
	} else {
		idx = int32(len(e.events))
		e.events = append(e.events, event{seq: e.seq, fn: fn})
	}
	if at-e.now < wheelSize {
		i := uint64(at) % wheelSize
		e.wheel[i] = append(e.wheel[i], idx)
		e.near++
		e.mask[i>>6] |= 1 << (i & 63)
	} else {
		e.heapPush(farEntry{at: at, seq: e.seq, idx: idx})
	}
	e.seq++
	e.live++
}

// Peek returns the fire time of the earliest pending event.
func (e *Engine) Peek() (at int64, ok bool) {
	if e.live == 0 {
		return 0, false
	}
	at, ok = e.peekWheel()
	if top, found := e.peekFar(); found && (!ok || top < at) {
		at, ok = top, true
	}
	return at, ok
}

// peekWheel scans the ring from the clock forward for the earliest near
// event, walking occupancy-mask words instead of all buckets.
// Invariant: every wheel entry has at in [now, now+wheelSize), and
// entries sharing a bucket share the same at, so the first occupied
// bucket in fire order is the wheel minimum.
func (e *Engine) peekWheel() (int64, bool) {
	if e.near == 0 {
		return 0, false
	}
	base := uint(uint64(e.now) % wheelSize)
	bw, bb := base>>6, base&63
	// Walk mask words in fire order starting at base's word; the word
	// holding base is visited twice — bits >= bb first, bits < bb after
	// the ring wraps all the way around.
	for n := uint(0); n <= wheelWords; n++ {
		wi := (bw + n) & (wheelWords - 1)
		w := e.mask[wi]
		if n == 0 {
			w &= ^uint64(0) << bb
		} else if n == wheelWords {
			if bb == 0 {
				break
			}
			w &= uint64(1)<<bb - 1
		}
		if w != 0 {
			// Every entry of bucket i fires at exactly now + its ring
			// distance.
			i := wi<<6 + uint(bits.TrailingZeros64(w))
			d := (i - base) & (wheelSize - 1)
			return e.now + int64(d), true
		}
	}
	return 0, false
}

// peekFar returns the heap minimum.
func (e *Engine) peekFar() (int64, bool) {
	if len(e.far) == 0 {
		return 0, false
	}
	return e.far[0].at, true
}

// RunUntil advances the clock to limit, firing every event scheduled at
// or before it in (time, registration) order, and returns the
// number of events fired. Callbacks may schedule further events,
// including at already-due times; those fire within the same call.
func (e *Engine) RunUntil(limit int64) int {
	if limit < e.now {
		panic("engine: clock must be monotonic")
	}
	fired := 0
	for e.live > 0 {
		at, ok := e.Peek()
		if !ok || at > limit {
			break
		}
		e.now = at
		fired += e.runBatch(at)
	}
	if limit > e.now {
		e.now = limit
	}
	return fired
}

// Advance is RunUntil fused with a trailing Peek: it fires everything
// due through limit and returns the next pending fire time (ok=false
// when the queue is empty), reusing the peek that ended the firing loop
// instead of repeating it.
func (e *Engine) Advance(limit int64) (next int64, ok bool) {
	if limit < e.now {
		panic("engine: clock must be monotonic")
	}
	for e.live > 0 {
		at, peeked := e.Peek()
		if !peeked {
			break
		}
		if at > limit {
			if limit > e.now {
				e.now = limit
			}
			return at, true
		}
		e.now = at
		e.runBatch(at)
	}
	if limit > e.now {
		e.now = limit
	}
	return 0, false
}

// runBatch fires every event scheduled at exactly cycle at, in
// registration order.
func (e *Engine) runBatch(at int64) int {
	i := uint64(at) % wheelSize
	batch := e.batch[:0]
	if len(e.wheel[i]) > 0 {
		// Every entry of the bucket fires at exactly at; see peekWheel.
		batch = append(batch, e.wheel[i]...)
		e.wheel[i] = e.wheel[i][:0]
		e.near -= len(batch)
		e.mask[i>>6] &^= 1 << (i & 63)
	}
	for len(e.far) > 0 && e.far[0].at == at {
		batch = append(batch, e.heapPop())
	}
	// Insertion sort by sequence: batches are small and near-sorted
	// (wheel entries arrive in registration order).
	for j := 1; j < len(batch); j++ {
		for k := j; k > 0 && e.events[batch[k]].seq < e.events[batch[k-1]].seq; k-- {
			batch[k], batch[k-1] = batch[k-1], batch[k]
		}
	}
	e.batch = batch[:0] // keep capacity for the next batch
	e.fired += uint64(len(batch))
	e.live -= len(batch)
	for _, idx := range batch {
		fn := e.events[idx].fn
		e.free = append(e.free, idx)
		fn(at)
	}
	return len(batch)
}

// heapPush inserts an entry into the far heap, ordered by (at, seq).
func (e *Engine) heapPush(fe farEntry) {
	e.far = append(e.far, fe)
	s := e.far
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heapLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// heapPop removes and returns the heap minimum's handle.
func (e *Engine) heapPop() int32 {
	s := e.far
	top := s[0].idx
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	e.far = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && e.heapLess(s[l], s[min]) {
			min = l
		}
		if r < len(s) && e.heapLess(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

func (e *Engine) heapLess(a, b farEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
