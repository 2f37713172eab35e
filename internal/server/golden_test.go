package server

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden HTTP bodies under testdata/")

// fakeClock returns a clock that advances 7 ms per reading, so every
// job's queue_ms and run_ms come out the same on every run.
func fakeClock() func() time.Time {
	var mu sync.Mutex
	t := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(7 * time.Millisecond)
		return t
	}
}

// handlerTransport routes client requests by host to in-process
// handlers, so a two-node fabric can have fixed node URLs (and with
// them a fixed ring).
type handlerTransport map[string]http.Handler

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t[r.URL.Host].ServeHTTP(rec, r)
	return rec.Result(), nil
}

// checkGolden checks the status and compares the body with
// testdata/<name>, or rewrites the file under -update.
func checkGolden(t *testing.T, name string, rec *httptest.ResponseRecorder, code int) {
	t.Helper()
	if rec.Code != code {
		t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("%s differs from its golden at byte %d: got %.60q, want %.60q",
			name, n, got[n:], want[n:])
	}
}

// TestGoldenHTTPBodies pins the bytes of the responses a client sees: a
// blocking simulate, a GET answered from the LRU, the list view, a
// sweep's submit, status and event stream, a disk-store hit and the
// same sweep answered from the store after a restart, and a reply
// forwarded from a ring peer. Each carries a real simulation's dump.
func TestGoldenHTTPBodies(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, StoreDir: dir})
	s1.now = fakeClock()
	h := s1.Handler()
	rec, st := postJSON(t, h, "/v1/simulations?wait=true", tinyReq("bfs"))
	checkGolden(t, "simulate.json", rec, http.StatusOK)
	rec, _ = get(t, h, "/v1/simulations/"+st.ID)
	checkGolden(t, "get_lru.json", rec, http.StatusOK)
	if rec, _ := postJSON(t, h, "/v1/simulations?wait=true", tinyReq("hotspot")); rec.Code != http.StatusOK {
		t.Fatalf("second job: %d", rec.Code)
	}
	rec, _ = get(t, h, "/v1/simulations")
	checkGolden(t, "list.json", rec, http.StatusOK)
	// C2 × bfs is the cached simulate above, C1 × bfs a fresh run.
	sweepReq := SweepRequest{
		Configs: []SweepConfig{{Config: "C1"}, {Config: "C2"}},
		Benches: []string{"bfs"},
		Scale:   0.04, Warps: 6,
	}
	rec = doJSON(t, h, "POST", "/v1/sweeps", sweepReq)
	checkGolden(t, "sweep_submit.json", rec, http.StatusAccepted)
	sweepID := decodeSweep(t, rec).ID
	rec = doJSON(t, h, "GET", "/v1/sweeps/"+sweepID+"?wait=true", nil)
	checkGolden(t, "sweep_get.json", rec, http.StatusOK)
	rec = doJSON(t, h, "GET", "/v1/sweeps/"+sweepID+"/events", nil)
	checkGolden(t, "sweep_events.ndjson", rec, http.StatusOK)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	s2.now = fakeClock()
	rec, _ = postJSON(t, s2.Handler(), "/v1/simulations?wait=true", tinyReq("bfs"))
	checkGolden(t, "store_hit.json", rec, http.StatusOK)
	rec = doJSON(t, s2.Handler(), "POST", "/v1/sweeps", sweepReq)
	checkGolden(t, "sweep_store_hit.json", rec, http.StatusOK)

	const self, peer = "http://node-a.test", "http://node-b.test"
	worker := newTestServer(t, Config{Workers: 1})
	worker.now = fakeClock()
	coord := newTestServer(t, Config{Workers: 1, Self: self, Peers: []string{peer}})
	coord.now = fakeClock()
	coord.httpc = &http.Client{Transport: handlerTransport{"node-b.test": worker.Handler()}}
	var req SimulationRequest
	for _, b := range []string{"nw", "kmeans", "stencil", "cfd", "bfs", "hotspot"} {
		if r := tinyReq(b); !coord.ring.local(r.normalize().Key()) {
			req = r
			break
		}
	}
	if req.Bench == "" {
		t.Fatal("the ring places none of the candidate requests on the peer")
	}
	rec, _ = postJSON(t, coord.Handler(), "/v1/simulations?wait=true", req)
	checkGolden(t, "forwarded.json", rec, http.StatusOK)
	if n := counter(t, coord, "server.forwarded_jobs_total"); n != 1 {
		t.Fatalf("forwarded_jobs_total = %d, want 1", n)
	}
}
