package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sttllc/internal/sim"
)

// stubRun is an instant runFn whose dumps are distinguishable per
// request and which counts local executions, so tests can tell where a
// job actually ran.
func stubRun(executed *atomic.Uint64) func(context.Context, SimulationRequest) (*sim.StatsDump, error) {
	return func(_ context.Context, req SimulationRequest) (*sim.StatsDump, error) {
		if executed != nil {
			executed.Add(1)
		}
		return &sim.StatsDump{
			Schema: sim.StatsSchema, Config: req.Config, Benchmark: req.Bench,
			Cycles: int64(req.Warps), IPC: 0.5,
		}, nil
	}
}

// fabricReqs yields n requests with distinct content addresses that all
// pass validation.
func fabricReqs(n int) []SimulationRequest {
	out := make([]SimulationRequest, n)
	for i := range out {
		out[i] = SimulationRequest{Config: "C2", Bench: "bfs", Warps: i + 1}
	}
	return out
}

func TestForwardingExecutesOnRingOwner(t *testing.T) {
	var workerRan, coordRan atomic.Uint64
	worker := newTestServer(t, Config{Workers: 2, QueueDepth: 32})
	worker.runFn = stubRun(&workerRan)
	wts := httptest.NewServer(worker.Handler())
	defer wts.Close()

	coord := newTestServer(t, Config{
		Workers: 2, QueueDepth: 32,
		Self: "http://coordinator.test", Peers: []string{wts.URL},
	})
	coord.runFn = stubRun(&coordRan)
	h := coord.Handler()

	reqs := fabricReqs(12)
	for _, r := range reqs {
		rec, st := postJSON(t, h, "/v1/simulations?wait=true", r)
		if rec.Code != http.StatusOK || st.State != "done" {
			t.Fatalf("warps=%d: %d state %q %s", r.Warps, rec.Code, st.State, rec.Body.String())
		}
		// The dump survives the forward hop intact.
		if st.Result == nil || st.Result.Cycles != int64(r.Warps) {
			t.Fatalf("warps=%d: result %+v", r.Warps, st.Result)
		}
	}

	forwarded := counter(t, coord, "server.forwarded_jobs_total")
	if forwarded == 0 {
		t.Fatal("no job was forwarded; with 12 distinct keys over 2 nodes some must land on the peer")
	}
	if forwarded == uint64(len(reqs)) {
		t.Fatal("every job was forwarded; the coordinator owns arcs too")
	}
	// Conservation: every job ran exactly once, on exactly one node.
	if workerRan.Load() != forwarded {
		t.Errorf("worker executed %d jobs, coordinator forwarded %d", workerRan.Load(), forwarded)
	}
	if coordRan.Load() != uint64(len(reqs))-forwarded {
		t.Errorf("coordinator executed %d jobs locally, want %d", coordRan.Load(), uint64(len(reqs))-forwarded)
	}
	if n := counter(t, coord, "server.forward_failovers_total"); n != 0 {
		t.Errorf("forward_failovers_total = %d with a healthy peer", n)
	}
	if n := counter(t, coord, "server.ring_nodes"); n != 2 {
		t.Errorf("ring_nodes = %d", n)
	}
}

func TestForwardFailoverRunsLocally(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // peer is configured but unreachable

	var localRan atomic.Uint64
	coord := newTestServer(t, Config{
		Workers: 2, QueueDepth: 32,
		Self: "http://coordinator.test", Peers: []string{deadURL},
	})
	coord.runFn = stubRun(&localRan)
	h := coord.Handler()

	reqs := fabricReqs(12)
	for _, r := range reqs {
		rec, st := postJSON(t, h, "/v1/simulations?wait=true", r)
		if rec.Code != http.StatusOK || st.State != "done" {
			t.Fatalf("warps=%d with dead peer: %d state %q", r.Warps, rec.Code, st.State)
		}
	}
	if localRan.Load() != uint64(len(reqs)) {
		t.Errorf("local executions = %d, want %d (failover must complete every job)", localRan.Load(), len(reqs))
	}
	if n := counter(t, coord, "server.forward_failovers_total"); n == 0 {
		t.Error("forward_failovers_total = 0; jobs owned by the dead peer must fail over")
	}
	if n := counter(t, coord, "server.forwarded_jobs_total"); n != 0 {
		t.Errorf("forwarded_jobs_total = %d with a dead peer", n)
	}
	if n := counter(t, coord, "server.jobs_failed_total"); n != 0 {
		t.Errorf("jobs_failed_total = %d; a dead peer is not a job failure", n)
	}
}

// TestForwardRejectsMalformedPeerResult: a peer's reply is validated
// where it enters the process. A "done" reply whose result is not a
// dump is a failed forward, and the job fails over to local execution.
func TestForwardRejectsMalformedPeerResult(t *testing.T) {
	peer := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"id":"x","state":"done","result":{"cycles":"many"}}`))
	})
	var localRan atomic.Uint64
	coord := newTestServer(t, Config{Workers: 1, Self: "http://node-a.test", Peers: []string{"http://node-b.test"}})
	coord.runFn = stubRun(&localRan)
	coord.httpc = &http.Client{Transport: handlerTransport{"node-b.test": peer}}
	for _, r := range fabricReqs(12) {
		if coord.ring.local(r.normalize().Key()) {
			continue
		}
		rec, st := postJSON(t, coord.Handler(), "/v1/simulations?wait=true", r)
		if rec.Code != http.StatusOK || st.Result == nil || st.Result.Cycles != int64(r.Warps) {
			t.Fatalf("warps=%d: %d %s", r.Warps, rec.Code, rec.Body.String())
		}
		if localRan.Load() != 1 || counter(t, coord, "server.forward_failovers_total") != 1 ||
			counter(t, coord, "server.forwarded_jobs_total") != 0 {
			t.Fatalf("a malformed peer result was accepted: local runs %d", localRan.Load())
		}
		return
	}
	t.Fatal("the ring places none of the requests on the peer")
}

func TestForwardedMarkerPinsExecutionLocally(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	var localRan atomic.Uint64
	s := newTestServer(t, Config{
		Workers: 2, QueueDepth: 32,
		Self: "http://node.test", Peers: []string{deadURL},
	})
	s.runFn = stubRun(&localRan)
	h := s.Handler()

	for _, r := range fabricReqs(12) {
		b, _ := json.Marshal(r)
		req := httptest.NewRequest("POST", "/v1/simulations?wait=true", bytes.NewReader(b))
		req.Header.Set(forwardedHeader, "1")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("forwarded-marked submit = %d %s", rec.Code, rec.Body.String())
		}
	}
	// The marker pins every job here: no second hop is ever attempted, so
	// no failover fires even though the ring places some jobs on the dead
	// peer. This is what makes forwarding loop-free.
	if n := counter(t, s, "server.forward_failovers_total"); n != 0 {
		t.Errorf("forward_failovers_total = %d for marked requests", n)
	}
	if localRan.Load() != 12 {
		t.Errorf("local executions = %d, want 12", localRan.Load())
	}
}

func TestSweepAcrossTwoNodeFabric(t *testing.T) {
	// End to end: a sweep submitted to the coordinator spreads over the
	// fabric, and the coordinator's disk store ends up holding every
	// result — including the forwarded ones — so a repeat sweep after
	// restart needs neither node to simulate.
	var workerRan, coordRan atomic.Uint64
	worker := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	worker.runFn = stubRun(&workerRan)
	wts := httptest.NewServer(worker.Handler())
	defer wts.Close()

	dir := t.TempDir()
	cfg := Config{
		Workers: 2, QueueDepth: 64, StoreDir: dir,
		Self: "http://coordinator.test", Peers: []string{wts.URL},
	}
	coord := New(cfg)
	coord.runFn = stubRun(&coordRan)

	sweepReq := SweepRequest{
		Configs: []SweepConfig{{Config: "C1"}, {Config: "C2"}, {Config: "C3"}},
		Benches: []string{"bfs", "kmeans"},
		Warps:   3,
	}
	rec := doJSON(t, coord.Handler(), "POST", "/v1/sweeps", sweepReq)
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		t.Fatalf("POST sweep = %d %s", rec.Code, rec.Body.String())
	}
	st := waitSweep(t, coord.Handler(), decodeSweep(t, rec).ID)
	if st.State != "done" || st.Done != 6 {
		t.Fatalf("fabric sweep = %+v", st)
	}
	if workerRan.Load()+coordRan.Load() != 6 {
		t.Errorf("executions: worker %d + coordinator %d, want 6 total", workerRan.Load(), coordRan.Load())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wts.Close() // the worker is gone for the repeat

	coord2 := newTestServer(t, cfg)
	coord2.runFn = stubRun(nil)
	rec = doJSON(t, coord2.Handler(), "POST", "/v1/sweeps", sweepReq)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat sweep = %d, want 200 fully cached", rec.Code)
	}
	st = decodeSweep(t, rec)
	if st.State != "done" || st.Cached != 6 {
		t.Fatalf("repeat sweep = %+v, want 6/6 cached", st)
	}
	if n := counter(t, coord2, "server.jobs_submitted_total"); n != 0 {
		t.Errorf("restarted coordinator submitted %d jobs, want 0", n)
	}
	if n := counter(t, coord2, "server.store_hits_total"); n != 6 {
		t.Errorf("store_hits_total = %d, want 6", n)
	}
}
