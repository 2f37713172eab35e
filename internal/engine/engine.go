// Package engine is the deterministic event scheduler at the heart of
// the simulator: a monotonic clock, a binary min-heap for far-future
// events, a short-horizon timing wheel for the hot next-cycle events the
// simulation core generates, and per-actor wake registration.
//
// Determinism is the engine's contract: events fire strictly ordered by
// (time, priority, registration sequence), so a simulation driven by the
// engine replays identically run after run regardless of host load or
// callback cost. One engine is single-threaded by construction; callers
// that want parallelism run independent engines (the simulator runs one
// engine per Simulator, and the experiment harnesses fan whole runs out
// across workers).
//
// Events live in a flat arena indexed by int32 handles rather than as
// individual heap objects: the wheel buckets, the heap, and the free
// list all hold plain integers, so the hot re-arm loop allocates nothing
// (the arena doubles amortized) and moves events without GC write
// barriers.
package engine

import "math/bits"

// Func is an event callback. It receives the engine clock at fire time,
// which for ordinary events equals the cycle the event was scheduled at.
type Func func(now int64)

// event is one scheduled callback, stored in the engine's arena. dead
// marks events that were canceled or already fired; they are skipped and
// pruned lazily.
//
// An event dispatches one of two ways: actor >= 0 indexes the engine's
// registered actor callbacks (Waker wakes — the hot path), so re-arming
// writes only integers into the arena and the GC write barrier never
// fires; actor < 0 means fn holds a one-shot callback (Schedule). A
// fired or canceled slot's fn is left stale rather than nil'd — it is
// never read again (actor gates dispatch) and clearing it would itself
// be a pointer write.
type event struct {
	at    int64
	prio  int32
	actor int32
	near  bool
	dead  bool
	seq   uint64
	fn    Func
}

// none is the nil event handle.
const none int32 = -1

// farEntry is one heap slot. It carries the fire time so heap ordering
// and peeks stay inside the (small, contiguous) heap array instead of
// chasing handles into the arena; prio/seq tiebreaks still read the
// arena, but same-time collisions in the far horizon are rare.
type farEntry struct {
	at  int64
	idx int32
}

// wheelSize is the short-horizon window, in cycles, served by the timing
// wheel. Events scheduled within wheelSize cycles of the clock go into a
// ring bucket (O(1) insert and drain — the common case: an SM waking
// next cycle); events further out go to the heap. 512 cycles covers the
// whole memory hierarchy (a DRAM row miss plus network transit is well
// under 300), so in steady state the heap only sees coarse timers and
// retention-scan boundaries.
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
	free   []int32 // recycled handles (the hot loop re-arms millions)

	far       []farEntry // binary min-heap on (at, prio, seq)
	farDead   int        // canceled events still parked in the heap
	wheel     [wheelSize][]int32
	wheelLive [wheelSize]int32   // live events per bucket
	near      int                // live events currently in the wheel
	mask      [wheelWords]uint64 // occupancy bit per wheel bucket (cleared lazily)

	batch []int32 // scratch for one same-cycle firing batch

	actorFns []Func // per-Waker callbacks, indexed by event.actor
}

// bucketCap is the capacity each wheel bucket starts with. The buckets
// are carved from one slab, so a fresh engine costs one allocation for
// its wheel instead of one per bucket on first use; a bucket that
// outgrows its share reallocates on its own.
const bucketCap = 4

// New returns an engine with its clock at start.
func New(start int64) *Engine {
	// Size the arena for a typical complement of wakers up front: live
	// events at any instant number in the tens, so one slab avoids the
	// append-doubling copies (and their pointer write barriers — event
	// holds a Func) on the schedule hot path.
	e := &Engine{now: start, events: make([]event, 0, 64)}
	slab := make([]int32, wheelSize*bucketCap)
	for i := range e.wheel {
		e.wheel[i] = slab[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
	return e
}

// Reset empties the engine and sets its clock to start, keeping its
// arena, heap and wheel buckets: the reset engine behaves exactly like
// New(start). Every Waker of the old timeline is void.
func (e *Engine) Reset(start int64) {
	e.now, e.seq, e.live, e.fired = start, 0, 0, 0
	clear(e.events) // drop the stale callbacks
	e.events = e.events[:0]
	e.free = e.free[:0]
	e.far = e.far[:0]
	e.farDead = 0
	for i := range e.wheel {
		e.wheel[i] = e.wheel[i][:0]
	}
	e.wheelLive = [wheelSize]int32{}
	e.near = 0
	e.mask = [wheelWords]uint64{}
	e.batch = e.batch[:0]
	clear(e.actorFns)
	e.actorFns = e.actorFns[:0]
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

// Schedule registers fn to fire at cycle at (priority 0). Scheduling
// into the past panics: the engine clock is monotonic.
func (e *Engine) Schedule(at int64, fn Func) {
	e.schedule(at, 0, fn)
}

func (e *Engine) schedule(at int64, prio int32, fn Func) int32 {
	idx := e.scheduleActor(at, prio, -1)
	e.events[idx].fn = fn
	return idx
}

// scheduleActor registers an arena event without touching its fn field:
// actor >= 0 dispatches through actorFns, so re-arming a waker writes no
// pointers.
func (e *Engine) scheduleActor(at int64, prio, actor int32) int32 {
	if at < e.now {
		panic("engine: event scheduled into the past")
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
		ev := &e.events[idx]
		ev.at, ev.prio, ev.actor, ev.near, ev.dead, ev.seq = at, prio, actor, false, false, e.seq
	} else {
		idx = int32(len(e.events))
		e.events = append(e.events, event{at: at, prio: prio, actor: actor, seq: e.seq})
	}
	e.seq++
	e.live++
	if at-e.now < wheelSize {
		e.events[idx].near = true
		i := uint64(at) % wheelSize
		e.wheel[i] = append(e.wheel[i], idx)
		e.wheelLive[i]++
		e.near++
		e.mask[i>>6] |= 1 << (i & 63)
	} else {
		e.heapPush(at, idx)
	}
	return idx
}

// recycle returns an event to the freelist. Called exactly once per
// event, at the moment it leaves its container (fired, or pruned after
// cancellation). The slot's fn is deliberately left stale; see event.
func (e *Engine) recycle(idx int32) {
	e.free = append(e.free, idx)
}

func (e *Engine) cancel(idx int32) {
	ev := &e.events[idx]
	if ev.dead {
		return
	}
	ev.dead = true
	e.live--
	if ev.near {
		e.near--
		e.wheelLive[uint64(ev.at)%wheelSize]--
	} else {
		e.farDead++
	}
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

// peekWheel scans the ring from the clock forward for the earliest live
// near event, walking occupancy-mask words instead of all buckets.
// Invariant: every live wheel entry has at in [now, now+wheelSize), and
// entries sharing a bucket share the same at, so the first live bucket
// hit in fire order is the wheel minimum.
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
		for w != 0 {
			k := uint(bits.TrailingZeros64(w))
			i := wi<<6 + k
			// Live wheel entries have at in [now, now+wheelSize), so
			// every live entry of bucket i fires at exactly now + its
			// ring distance — the counter answers liveness without
			// touching the events.
			if e.wheelLive[i] > 0 {
				d := (i - base) & (wheelSize - 1)
				return e.now + int64(d), true
			}
			for _, idx := range e.wheel[i] {
				e.recycle(idx)
			}
			e.wheel[i] = e.wheel[i][:0] // all dead: reclaim the bucket
			e.mask[wi] &^= 1 << k
			w &^= 1 << k
		}
	}
	return 0, false
}

// peekFar returns the heap minimum, pruning dead tops. With no canceled
// entries parked in the heap (the common case) it never touches the
// arena.
func (e *Engine) peekFar() (int64, bool) {
	if e.farDead == 0 {
		if len(e.far) == 0 {
			return 0, false
		}
		return e.far[0].at, true
	}
	for len(e.far) > 0 {
		if e.events[e.far[0].idx].dead {
			e.recycle(e.heapPop())
			e.farDead--
			continue
		}
		return e.far[0].at, true
	}
	return 0, false
}

// RunUntil advances the clock to limit, firing every event scheduled at
// or before it in (time, priority, registration) order, and returns the
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
// (priority, registration) order.
func (e *Engine) runBatch(at int64) int {
	i := uint64(at) % wheelSize
	// Fast path: one live near event, nothing due in the heap — fire it
	// without batch assembly or sorting. (A lone live wheel entry in this
	// bucket fires at exactly at; see peekWheel's invariant.)
	if len(e.wheel[i]) == 1 && e.wheelLive[i] == 1 {
		if top, due := e.peekFar(); !due || top != at {
			idx := e.wheel[i][0]
			e.wheel[i] = e.wheel[i][:0]
			e.near--
			e.wheelLive[i] = 0
			e.mask[i>>6] &^= 1 << (i & 63)
			ev := &e.events[idx]
			ev.dead = true
			e.live--
			e.fired++
			actor, fn := ev.actor, ev.fn
			e.recycle(idx)
			if actor >= 0 {
				e.actorFns[actor](at)
			} else {
				fn(at)
			}
			return 1
		}
	}
	batch := e.batch[:0]
	if len(e.wheel[i]) > 0 {
		for _, idx := range e.wheel[i] {
			if ev := &e.events[idx]; !ev.dead && ev.at == at {
				batch = append(batch, idx)
			} else {
				e.recycle(idx)
			}
		}
		e.wheel[i] = e.wheel[i][:0]
		e.near -= len(batch)
		e.wheelLive[i] = 0
		e.mask[i>>6] &^= 1 << (i & 63)
	}
	for {
		top, ok := e.peekFar()
		if !ok || top != at {
			break
		}
		batch = append(batch, e.heapPop())
	}
	// Insertion sort by (priority, sequence): batches are small and
	// near-sorted (wheel entries arrive in registration order).
	for j := 1; j < len(batch); j++ {
		for k := j; k > 0 && e.less(batch[k], batch[k-1]); k-- {
			batch[k], batch[k-1] = batch[k-1], batch[k]
		}
	}
	e.batch = batch[:0] // keep capacity for the next batch
	e.fired += uint64(len(batch))
	for _, idx := range batch {
		ev := &e.events[idx]
		ev.dead = true
		e.live--
		actor, fn := ev.actor, ev.fn
		e.recycle(idx)
		if actor >= 0 {
			e.actorFns[actor](at)
		} else {
			fn(at)
		}
	}
	return len(batch)
}

func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.events[a], &e.events[b]
	if ea.prio != eb.prio {
		return ea.prio < eb.prio
	}
	return ea.seq < eb.seq
}

// Waker is a per-actor wake registration: at most one outstanding wake
// per actor, moved (not duplicated) by WakeAt. Actors with lower
// priority fire first among same-cycle wakes — the simulator assigns
// each SM its ID so same-cycle steps keep hardware order.
//
// Invariant: ev is a live handle exactly while a registration is
// outstanding. The fire wrapper clears it before invoking the callback,
// so a recycled arena slot is never aliased through a stale Waker
// handle.
type Waker struct {
	e     *Engine
	prio  int32
	actor int32
	ev    int32
}

// NewWaker registers an actor callback with a fixed priority. The
// callback is stored once on the engine; subsequent WakeAt calls
// reference it by index, keeping the re-arm path free of pointer
// writes.
func (e *Engine) NewWaker(prio int32, fn Func) *Waker {
	w := &Waker{e: e, prio: prio, actor: int32(len(e.actorFns)), ev: none}
	e.actorFns = append(e.actorFns, func(now int64) {
		w.ev = none
		fn(now)
	})
	return w
}

// WakeAt schedules (or moves) the actor's single outstanding wake to
// cycle at.
func (w *Waker) WakeAt(at int64) {
	if w.ev != none {
		if w.e.events[w.ev].at == at {
			return
		}
		w.e.cancel(w.ev)
	}
	w.ev = w.e.scheduleActor(at, w.prio, w.actor)
}

// Cancel withdraws the outstanding wake, if any.
func (w *Waker) Cancel() {
	if w.ev != none {
		w.e.cancel(w.ev)
		w.ev = none
	}
}

// Next returns the cycle of the outstanding wake, or ok=false when none
// is scheduled.
func (w *Waker) Next() (int64, bool) {
	if w.ev == none {
		return 0, false
	}
	return w.e.events[w.ev].at, true
}

// heapPush inserts a handle into the far heap, ordered by
// (at, prio, seq).
func (e *Engine) heapPush(at int64, idx int32) {
	e.far = append(e.far, farEntry{at: at, idx: idx})
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
	ea, eb := &e.events[a.idx], &e.events[b.idx]
	if ea.prio != eb.prio {
		return ea.prio < eb.prio
	}
	return ea.seq < eb.seq
}
