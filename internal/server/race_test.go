package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/metrics"
	"sttllc/internal/sim"
	"sttllc/internal/workloads"
)

// TestConcurrentDuplicateAndDistinct hammers the service with a mix of
// duplicate and distinct real simulations from many goroutines at once.
// Run under -race this exercises every synchronization seam (dedup map,
// LRU, waiter accounting, metric callbacks racing Snapshot). Beyond not
// racing, it asserts the singleflight property — each distinct request
// key simulates at most once, duplicates join or hit the cache — and
// that every returned dump is byte-identical to a direct run of the
// same spec.
func TestConcurrentDuplicateAndDistinct(t *testing.T) {
	benches := []string{"bfs", "kmeans", "stencil"}

	// Reference dumps computed directly, one per distinct key, mirroring
	// the server's own spec wiring.
	want := make(map[string]string, len(benches))
	for _, b := range benches {
		req := tinyReq(b)
		req.normalize()
		cfg, ok := config.ByName(req.Config)
		if !ok {
			t.Fatalf("config %s unknown", req.Config)
		}
		spec, ok := workloads.ByName(b)
		if !ok {
			t.Fatalf("bench %s unknown", b)
		}
		spec = spec.Scale(req.Scale)
		spec.WarpsPerSM = req.Warps
		reg := metrics.NewRegistry(true)
		res := sim.New(cfg, spec, sim.Options{Metrics: reg}).Run()
		dump, err := json.Marshal(sim.DumpStats(res, reg))
		if err != nil {
			t.Fatal(err)
		}
		want[b] = string(dump)
	}

	s := newTestServer(t, Config{Workers: 4, QueueDepth: 64, CacheEntries: 16})
	h := s.Handler()

	const perBench = 8 // 8 duplicates of each of 3 benches, all at once
	var wg sync.WaitGroup
	errs := make(chan error, len(benches)*perBench)
	for _, b := range benches {
		for i := 0; i < perBench; i++ {
			wg.Add(1)
			go func(bench string) {
				defer wg.Done()
				body, _ := json.Marshal(tinyReq(bench))
				req := httptest.NewRequest("POST", "/v1/simulations?wait=true", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", bench, rec.Code, rec.Body.String())
					return
				}
				var st JobStatus
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					errs <- fmt.Errorf("%s: decode: %v", bench, err)
					return
				}
				if st.State != "done" || st.Result == nil {
					errs <- fmt.Errorf("%s: state %q, has result: %v", bench, st.State, st.Result != nil)
					return
				}
				got, err := json.Marshal(st.Result)
				if err != nil {
					errs <- err
					return
				}
				if string(got) != want[bench] {
					errs <- fmt.Errorf("%s: dump diverges from direct sim.New(...).Run()", bench)
				}
			}(b)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Singleflight: across 24 requests over 3 keys, each key simulated
	// exactly once; everyone else joined in flight or hit the cache.
	completed := counter(t, s, "server.jobs_completed_total")
	if completed != uint64(len(benches)) {
		t.Errorf("jobs_completed_total = %d, want %d (singleflight violated)", completed, len(benches))
	}
	joins := counter(t, s, "server.dedup_joins_total")
	hits := counter(t, s, "server.cache_hits_total")
	if joins+hits != uint64(len(benches)*(perBench-1)) {
		t.Errorf("dedup_joins(%d) + cache_hits(%d) = %d, want %d",
			joins, hits, joins+hits, len(benches)*(perBench-1))
	}
	if got := counter(t, s, "server.jobs_failed_total"); got != 0 {
		t.Errorf("jobs_failed_total = %d, want 0", got)
	}
}
