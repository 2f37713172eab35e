package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sttllc/internal/sim"
)

// TestAdmissionCounterParity scripts each admission outcome through
// both endpoints and pins the counters they leave behind: a single
// miss, a join, an LRU hit, a store hit after a restart, a sweep mixing
// fresh, joined, LRU and store cells, a live-sweep join, a sweep 429
// and a single 429.
func TestAdmissionCounterParity(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 2, StoreDir: dir}
	req := func(bench string) SimulationRequest {
		return SimulationRequest{Config: "C2", Bench: bench, Warps: 3}
	}
	want := func(s *Server, counts map[string]uint64) {
		t.Helper()
		for name, n := range counts {
			if got := counter(t, s, "server."+name); got != n {
				t.Errorf("%s = %d, want %d", name, got, n)
			}
		}
	}
	post := func(h http.Handler, path string, body any, code int) *httptest.ResponseRecorder {
		t.Helper()
		rec := doJSON(t, h, "POST", path, body)
		if rec.Code != code {
			t.Fatalf("POST %s = %d %s, want %d", path, rec.Code, rec.Body.String(), code)
		}
		return rec
	}

	s1 := New(cfg)
	started := make(chan string, 8)
	release := make(chan struct{})
	s1.runFn = blockingRun(started, release)
	h := s1.Handler()
	post(h, "/v1/simulations", req("bfs"), http.StatusAccepted) // miss
	<-started
	post(h, "/v1/simulations", req("bfs"), http.StatusOK)      // join
	post(h, "/v1/simulations", req("nw"), http.StatusAccepted) // miss, stored for the sweep below
	close(release)
	for _, b := range []string{"bfs", "nw"} {
		if _, st := get(t, h, "/v1/simulations/"+req(b).normalize().Key()+"?wait=true"); st.State != "done" {
			t.Fatalf("%s = %q, want done", b, st.State)
		}
	}
	post(h, "/v1/simulations", req("bfs"), http.StatusOK) // LRU hit
	want(s1, map[string]uint64{
		"jobs_submitted_total": 2, "cache_hits_total": 1, "cache_misses_total": 2,
		"dedup_joins_total": 1, "jobs_rejected_total": 0, "store_hits_total": 0,
		"sweep_joins_total": 0, "sweep_jobs_total": 0,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	started, release = make(chan string, 8), make(chan struct{})
	s2.runFn = blockingRun(started, release)
	h = s2.Handler()
	post(h, "/v1/simulations?wait=true", req("bfs"), http.StatusOK) // store hit
	post(h, "/v1/simulations", req("kmeans"), http.StatusAccepted)  // in flight for the sweep
	<-started
	// bfs from the LRU, nw from the store, kmeans joined, stencil fresh.
	mixed := SweepRequest{
		Configs: []SweepConfig{{Config: "C2"}},
		Benches: []string{"bfs", "nw", "kmeans", "stencil"},
		Warps:   3,
	}
	sweepID := decodeSweep(t, post(h, "/v1/sweeps", mixed, http.StatusAccepted)).ID
	post(h, "/v1/sweeps", mixed, http.StatusOK) // live-sweep join
	post(h, "/v1/sweeps", SweepRequest{         // two fresh cells, one free slot
		Configs: []SweepConfig{{Config: "C1"}, {Config: "C3"}},
		Benches: []string{"hotspot"},
		Warps:   3,
	}, http.StatusTooManyRequests)
	post(h, "/v1/simulations", req("hotspot"), http.StatusAccepted) // takes the last slot
	post(h, "/v1/simulations", req("cfd"), http.StatusTooManyRequests)
	close(release)
	if st := waitSweep(t, h, sweepID); st.State != "done" || st.Cached != 2 {
		t.Fatalf("mixed sweep = %+v, want done with 2 cached cells", st)
	}
	want(s2, map[string]uint64{
		"jobs_submitted_total": 3, "cache_hits_total": 1, "cache_misses_total": 3,
		"dedup_joins_total": 1, "jobs_rejected_total": 2, "store_hits_total": 2,
		"sweep_joins_total": 1, "sweep_jobs_total": 4,
	})
}

// TestDrainRefusesOnlyQueueSlots: a draining server refuses a
// submission only when some cell needs a queue slot, for singles and
// sweeps alike. Cells answered from the cache or by joining a live job
// are still served.
func TestDrainRefusesOnlyQueueSlots(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	started := make(chan string, 1)
	release := make(chan struct{})
	stub := stubRun(nil)
	s.runFn = func(ctx context.Context, req SimulationRequest) (*sim.StatsDump, error) {
		if req.Bench == "kmeans" {
			return blockingRun(started, release)(ctx, req)
		}
		return stub(ctx, req)
	}
	h := s.Handler()
	req := func(bench string) SimulationRequest {
		return SimulationRequest{Config: "C2", Bench: bench, Warps: 3}
	}
	sweep := func(benches ...string) SweepRequest {
		return SweepRequest{Configs: []SweepConfig{{Config: "C2"}}, Benches: benches, Warps: 3}
	}
	if rec, _ := postJSON(t, h, "/v1/simulations?wait=true", req("bfs")); rec.Code != http.StatusOK {
		t.Fatalf("cached run = %d", rec.Code)
	}
	postJSON(t, h, "/v1/simulations", req("kmeans"))
	<-started

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	for deadline := time.Now().Add(5 * time.Second); !s.Draining(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("drain never began")
		}
	}
	for _, tc := range []struct {
		name, path string
		body       any
		code       int
	}{
		{"cached single", "/v1/simulations", req("bfs"), http.StatusOK},
		{"joined single", "/v1/simulations", req("kmeans"), http.StatusOK},
		{"fresh single", "/v1/simulations", req("nw"), http.StatusServiceUnavailable},
		{"cached sweep", "/v1/sweeps", sweep("bfs"), http.StatusOK},
		{"joined sweep", "/v1/sweeps", sweep("kmeans"), http.StatusOK},
		{"cached and joined sweep", "/v1/sweeps", sweep("bfs", "kmeans"), http.StatusOK},
		{"sweep with a fresh cell", "/v1/sweeps", sweep("bfs", "nw"), http.StatusServiceUnavailable},
	} {
		rec := doJSON(t, h, "POST", tc.path, tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s while draining = %d %s, want %d", tc.name, rec.Code, rec.Body.String(), tc.code)
		}
		if rec.Code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s: 503 without Retry-After", tc.name)
		}
	}
	if n := counter(t, s, "server.jobs_submitted_total"); n != 2 {
		t.Errorf("jobs_submitted_total = %d, want 2: a draining server enqueued work", n)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v, want a clean drain", err)
	}
}

// BenchmarkAdmit measures admitLocked, the admission path both submit
// endpoints share, on cells no job or result answers: every op resolves
// each cell (in-flight map, memory LRU, disk store), counts the queue
// slots it needs and enqueues one job per cell. The server is bare (no
// workers), and the queue and in-flight map are emptied after each op,
// so every op takes the same path. One op admits one cell or one
// 5-configuration × 4-benchmark sweep grid.
func BenchmarkAdmit(b *testing.B) {
	grid := func(configs, benches []string) []cell {
		var cells []cell
		for _, c := range configs {
			for _, bench := range benches {
				cells = append(cells, newCell(SimulationRequest{Config: c, Bench: bench, Warps: 3}.normalize()))
			}
		}
		return cells
	}
	for _, tc := range []struct {
		name  string
		cells []cell
	}{
		{"single", grid([]string{"C2"}, []string{"bfs"})},
		{"sweep-5x4", grid(
			[]string{"baseline-SRAM", "baseline-STT", "C1", "C2", "C3"},
			[]string{"bfs", "hotspot", "nw", "stencil"})},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := &Server{
				inflight: make(map[string]*job, len(tc.cells)),
				finished: newJobLRU(len(tc.cells)),
				queue:    make(chan *job, len(tc.cells)),
				now:      time.Now,
			}
			cells := make([]cell, len(tc.cells))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(cells, tc.cells)
				s.mu.Lock()
				if rf := s.admitLocked(cells, true); rf != nil {
					b.Fatalf("refused: %s", rf.msg)
				}
				for range cells {
					<-s.queue
				}
				clear(s.inflight)
				s.mu.Unlock()
			}
		})
	}
}
