package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"sttllc/internal/config"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

// RecordingKey is the content address of a reference-stream recording:
// it covers the recording configuration, the workload content hash, and
// the run-shaping options (cycle budget, warmup). Two requests with
// equal keys would record byte-identical streams, so they can share one.
func RecordingKey(cfg config.GPUConfig, app workloads.App, opts Options) string {
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		// GPUConfig is scalars and strings; this cannot fail.
		panic(fmt.Sprintf("sim: canonicalizing config: %v", err))
	}
	h := sha256.New()
	h.Write(cfgJSON)
	fmt.Fprintf(h, "|%s|%d|%d", app.Hash(), opts.MaxCycles, opts.WarmupInstructions)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// RecordingCache deduplicates recording runs across concurrent callers.
// The first caller for a key records (a full simulation); everyone else
// blocks on that in-flight run and then shares the finished, read-only
// Recording. Failed or cancelled runs are not cached — the next caller
// simply records again. The cache is bounded: beyond max entries the
// oldest recording is evicted (recordings of generated workloads are
// cheap to reproduce, so FIFO is fine here).
type RecordingCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*recEntry
	order   []string
	hits    uint64
	misses  uint64
}

type recEntry struct {
	ready chan struct{}
	rec   *trace.Recording
	err   error
}

// NewRecordingCache returns a cache holding at most max recordings;
// max <= 0 means a sensible small default.
func NewRecordingCache(max int) *RecordingCache {
	if max <= 0 {
		max = 16
	}
	return &RecordingCache{max: max, entries: make(map[string]*recEntry)}
}

// Get returns the Recording for the given application/config/options,
// recording it on first use (Stats counts which Gets shared one). The
// returned Recording is shared and must be treated as read-only.
func (c *RecordingCache) Get(ctx context.Context, cfg config.GPUConfig, app workloads.App, opts Options) (*trace.Recording, error) {
	key := RecordingKey(cfg, app, opts)
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if e.err == nil {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				return e.rec, nil
			}
			// The in-flight run failed and removed itself; record anew.
			continue
		}
		e := &recEntry{ready: make(chan struct{})}
		c.entries[key] = e
		c.order = append(c.order, key)
		c.misses++
		c.evictLocked()
		c.mu.Unlock()

		// Leader: run the recording. The release below is deferred so a
		// panicking run (simulations panic on invariant violations, and
		// callers like the server recover above this frame) still
		// removes the entry and closes ready — otherwise the entry stays
		// pinned forever and every later Get for this key blocks until
		// its own context cancels. Failed entries are poisoned (err set)
		// before the close so waiters retry instead of sharing garbage.
		finished := false
		defer func() {
			if !finished && e.err == nil {
				e.err = fmt.Errorf("sim: recording run for key %s aborted", key)
			}
			if e.err != nil {
				c.mu.Lock()
				c.removeLocked(key)
				c.mu.Unlock()
			}
			close(e.ready)
		}()
		opts.Recording = new(trace.Recording)
		s := new(Simulator)
		s.Reset(cfg, app, opts)
		_, e.err = s.RunContext(ctx)
		e.rec = opts.Recording
		finished = true
		return e.rec, e.err
	}
}

// evictLocked drops the oldest entries beyond the bound. In-flight
// entries may be evicted from the map (new callers will re-record), but
// their waiters still complete normally through the shared recEntry.
func (c *RecordingCache) evictLocked() {
	for len(c.order) > c.max {
		oldest := c.order[0]
		c.removeLocked(oldest)
	}
}

func (c *RecordingCache) removeLocked(key string) {
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// Len reports how many recordings are currently cached.
func (c *RecordingCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats reports how many Gets were served from a shared recording
// (hits) versus required a fresh recording run (misses).
func (c *RecordingCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
