package sim

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

func TestRecordingKeyCoversContent(t *testing.T) {
	spec := sweepSpec()
	gen := workloads.App{Name: spec.Name, Kernels: []workloads.Spec{spec}}
	base := RecordingKey(config.C1(), workloads.Single(spec), Options{})
	if len(base) != 32 {
		t.Errorf("key length = %d, want 32 hex chars", len(base))
	}
	for name, other := range map[string]string{
		"config": RecordingKey(config.C2(), workloads.Single(spec), Options{}),
		"spec":   RecordingKey(config.C1(), workloads.Single(spec.Scale(0.5)), Options{}),
		"cycles": RecordingKey(config.C1(), workloads.Single(spec), Options{MaxCycles: 1000}),
		"warmup": RecordingKey(config.C1(), workloads.Single(spec), Options{WarmupInstructions: 1000}),
		// A one-kernel application is not its kernel's benchmark.
		"app": RecordingKey(config.C1(), gen, Options{}),
	} {
		if other == base {
			t.Errorf("%s change did not change the key", name)
		}
	}
	if again := RecordingKey(config.C1(), workloads.Single(spec), Options{}); again != base {
		t.Errorf("key not deterministic: %s vs %s", again, base)
	}
}

func TestRecordingCacheSharesAcrossCallers(t *testing.T) {
	c := NewRecordingCache(4)
	app := workloads.Single(sweepSpec())
	const callers = 8
	var wg sync.WaitGroup
	dumps := make([]string, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec, err := c.Get(context.Background(), config.C1(), app, Options{})
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			dumps[g] = bankSide(t, ReplayMany(rec, []config.GPUConfig{config.C1()})[0].Dump())
		}(g)
	}
	wg.Wait()
	for g := 1; g < callers; g++ {
		if dumps[g] != dumps[0] {
			t.Errorf("caller %d got a different recording", g)
		}
	}
	hits, misses := c.Stats()
	if hits+misses != callers {
		t.Errorf("hits %d + misses %d != %d callers", hits, misses, callers)
	}
	if misses == 0 || misses == callers {
		t.Errorf("expected some sharing: %d misses of %d", misses, callers)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

func TestRecordingCacheKeysByContent(t *testing.T) {
	c := NewRecordingCache(4)
	ctx := context.Background()
	app := workloads.Single(sweepSpec())
	if _, err := c.Get(ctx, config.C1(), app, Options{}); err != nil {
		t.Fatalf("first get: %v", err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("first get: hits=%d misses=%d, want a fresh recording", hits, misses)
	}
	if _, err := c.Get(ctx, config.C1(), app, Options{}); err != nil {
		t.Errorf("repeat get: %v", err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("repeat get not shared: hits=%d misses=%d", hits, misses)
	}
	if _, err := c.Get(ctx, config.C2(), app, Options{}); err != nil {
		t.Errorf("different config: %v", err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Errorf("different config shared a recording: hits=%d misses=%d", hits, misses)
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}
}

func TestRecordingCacheBounded(t *testing.T) {
	c := NewRecordingCache(1)
	ctx := context.Background()
	app := workloads.Single(sweepSpec())
	if _, err := c.Get(ctx, config.C1(), app, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, config.C2(), app, Options{}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want bound of 1", c.Len())
	}
	// The evicted key re-records rather than failing.
	if rec, err := c.Get(ctx, config.C1(), app, Options{}); err != nil || rec == nil {
		t.Errorf("re-get after eviction: rec=%v err=%v", rec, err)
	}
}

// TestRecordingCacheCancelHammer hammers one key from many goroutines
// whose contexts cancel at arbitrary points — leaders cancelled
// mid-recording, waiters abandoned mid-wait. Run under -race this
// exercises the leader's release path; the post-storm assertion proves
// no cancellation sequence can leave the entry pinned (a pinned entry
// would make the final Get block forever).
func TestRecordingCacheCancelHammer(t *testing.T) {
	c := NewRecordingCache(4)
	app := workloads.Single(sweepSpec())
	const callers = 24
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if g%3 != 0 {
				delay := time.Duration(rand.Intn(2000)) * time.Microsecond
				timer := time.AfterFunc(delay, cancel)
				defer timer.Stop()
			}
			rec, err := c.Get(ctx, config.C1(), app, Options{})
			if err == nil && rec == nil {
				t.Error("nil recording with nil error")
			}
		}(g)
	}
	wg.Wait()

	done := make(chan struct{})
	var rec *trace.Recording
	var err error
	go func() {
		defer close(done)
		rec, err = c.Get(context.Background(), config.C1(), app, Options{})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("post-storm Get deadlocked: cancellation left the cache entry pinned")
	}
	if err != nil || rec == nil {
		t.Fatalf("post-storm Get: rec=%v err=%v", rec != nil, err)
	}
}

// TestRecordingCacheReleasesOnPanic pins the leader-panic path: a
// recording run that panics (simulations panic on invariant violations;
// the server recovers them above this frame) must still remove the
// entry and close the ready channel. Before the fix the entry stayed in
// the map with a never-closed channel, so every later Get for the key
// blocked forever.
func TestRecordingCacheReleasesOnPanic(t *testing.T) {
	c := NewRecordingCache(4)
	bad := config.C1()
	bad.ClockHz = 0 // constructor panics on a non-positive clock
	app := workloads.Single(sweepSpec())

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the recording run to panic")
			}
		}()
		c.Get(context.Background(), bad, app, Options{})
	}()
	if c.Len() != 0 {
		t.Fatalf("panicked recording left %d pinned entries", c.Len())
	}

	// A follow-up Get must become a fresh leader (and panic in turn,
	// proving it actually ran) rather than block on the dead entry.
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		c.Get(context.Background(), bad, app, Options{})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Get after a leader panic deadlocked on the pinned entry")
	}
}

func TestRecordingCacheDoesNotCacheFailures(t *testing.T) {
	c := NewRecordingCache(4)
	app := workloads.Single(sweepSpec())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, config.C1(), app, Options{}); err == nil {
		t.Fatal("cancelled get returned nil error")
	}
	if c.Len() != 0 {
		t.Errorf("failed recording cached: %d entries", c.Len())
	}
	// A healthy caller after the failure records successfully.
	rec, err := c.Get(context.Background(), config.C1(), app, Options{})
	if hits, _ := c.Stats(); err != nil || hits != 0 || rec == nil {
		t.Errorf("retry after failure: hits=%d err=%v", hits, err)
	}
}
