package engine

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(0)
	var got []int64
	for _, at := range []int64{5, 3, 9, 3, 7} {
		at := at
		e.Schedule(at, func(now int64) {
			if now != at {
				t.Errorf("event scheduled for %d fired at %d", at, now)
			}
			got = append(got, at)
		})
	}
	if n := e.RunUntil(10); n != 5 {
		t.Fatalf("fired %d events, want 5", n)
	}
	want := []int64{3, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 || e.Len() != 0 {
		t.Errorf("after run: now=%d len=%d", e.Now(), e.Len())
	}
}

func TestSameCycleTieBreaks(t *testing.T) {
	// Same cycle: registration order, whether an event waited in the heap
	// (scheduled beyond the wheel horizon) or in the wheel.
	e := New(0)
	var got []string
	e.Schedule(wheelSize+4, func(int64) { got = append(got, "far-first") })
	e.Schedule(wheelSize+4, func(int64) { got = append(got, "far-second") })
	e.RunUntil(8)
	e.Schedule(wheelSize+4, func(int64) { got = append(got, "near-first") })
	e.Schedule(wheelSize+4, func(int64) { got = append(got, "near-second") })
	e.RunUntil(wheelSize + 4)
	want := []string{"far-first", "far-second", "near-first", "near-second"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tie-break order = %v, want %v", got, want)
	}
}

func TestFarAndNearMerge(t *testing.T) {
	// Events far beyond the wheel horizon must interleave correctly with
	// near events as the clock advances.
	e := New(0)
	var got []int64
	for _, at := range []int64{1, 63, 64, 200, 1000, 65} {
		e.Schedule(at, func(now int64) { got = append(got, now) })
	}
	e.RunUntil(5000)
	want := []int64{1, 63, 64, 65, 200, 1000}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestCallbackSchedulesDueEvent(t *testing.T) {
	// A callback scheduling at an already-due time fires within the same
	// RunUntil call (the self-rescheduling periodic-tick pattern).
	e := New(0)
	var ticks []int64
	var tick Func
	tick = func(now int64) {
		ticks = append(ticks, now)
		if now < 50 {
			e.Schedule(now+10, tick)
		}
	}
	e.Schedule(10, tick)
	e.RunUntil(100)
	want := []int64{10, 20, 30, 40, 50}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestPeek(t *testing.T) {
	e := New(0)
	if _, ok := e.Peek(); ok {
		t.Error("empty engine has a peek")
	}
	e.Schedule(500, func(int64) {}) // far
	e.Schedule(7, func(int64) {})   // near
	if at, ok := e.Peek(); !ok || at != 7 {
		t.Errorf("peek = %d,%v want 7,true", at, ok)
	}
	e.RunUntil(7)
	if at, ok := e.Peek(); !ok || at != 500 {
		t.Errorf("peek = %d,%v want 500,true", at, ok)
	}
}

func TestMonotonicPanics(t *testing.T) {
	e := New(100)
	for name, fn := range map[string]func(){
		"schedule-past": func() { e.Schedule(99, func(int64) {}) },
		"run-backwards": func() { e.RunUntil(99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRandomizedAgainstReference(t *testing.T) {
	// Fuzz the engine against a naive reference: N events at random
	// times, fired order must match a stable sort by (at, seq).
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := New(0)
		type ref struct {
			at  int64
			seq int
		}
		var want []ref
		var got []ref
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			at := int64(rng.Intn(500))
			i := i
			want = append(want, ref{at, i})
			e.Schedule(at, func(now int64) { got = append(got, ref{now, i}) })
		}
		// Stable sort the reference by time (registration order breaks ties).
		for a := 1; a < len(want); a++ {
			for b := a; b > 0 && want[b].at < want[b-1].at; b-- {
				want[b], want[b-1] = want[b-1], want[b]
			}
		}
		e.RunUntil(500)
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestWheelBucketReuseAfterJump(t *testing.T) {
	// A fired near event must not pollute its bucket for later events
	// that hash to the same slot after a big clock jump.
	e := New(0)
	fired := 0
	e.Schedule(10, func(int64) { fired++ })
	e.RunUntil(wheelSize + 5)
	e.Schedule(wheelSize+10, func(now int64) { // bucket 10 again
		if now == wheelSize+10 {
			fired++
		}
	})
	e.RunUntil(2 * wheelSize)
	if fired != 2 {
		t.Errorf("fired %d events, want both", fired)
	}
}

// An engine reset mid-timeline — live near and far events — must run a
// new script exactly as a fresh engine does: same fire times, same
// order, same totals.
func TestResetMatchesNew(t *testing.T) {
	type fire struct {
		at int64
		id int
	}
	script := func(e *Engine, rng *rand.Rand) []fire {
		var got []fire
		for step := 0; step < 300; step++ {
			at := e.Now() + int64(rng.Intn(2000))
			id := step
			e.Schedule(at, func(now int64) { got = append(got, fire{now, id}) })
			if step%7 == 0 {
				e.RunUntil(e.Now() + int64(rng.Intn(300)))
				next, ok := e.Peek()
				got = append(got, fire{next, e.Len()})
				if !ok {
					got = append(got, fire{-1, -1})
				}
			}
		}
		return got
	}
	used := New(0)
	script(used, rand.New(rand.NewSource(1))) // leaves events pending
	if used.Len() == 0 {
		t.Fatal("the first script left nothing pending")
	}
	used.Reset(50)
	fresh := New(50)
	got := script(used, rand.New(rand.NewSource(2)))
	want := script(fresh, rand.New(rand.NewSource(2)))
	used.RunUntil(1 << 20)
	fresh.RunUntil(1 << 20)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reset engine fired %d events, fresh %d, or in another order", len(got), len(want))
	}
	if used.ScheduledTotal() != fresh.ScheduledTotal() || used.FiredTotal() != fresh.FiredTotal() {
		t.Errorf("totals: reset %d/%d, fresh %d/%d", used.ScheduledTotal(), used.FiredTotal(),
			fresh.ScheduledTotal(), fresh.FiredTotal())
	}
}

func BenchmarkScheduleNear(b *testing.B) {
	e := New(0)
	fn := func(int64) {}
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, fn)
		e.RunUntil(e.Now() + 1)
	}
}
