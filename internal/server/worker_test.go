package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/sim"
)

// A job that fails — by panicking, or cancelled mid-run — drops the
// worker's retained simulator; a job that succeeds keeps it.
func TestFailedJobDropsRetainedSimulator(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	retained := func() *simSlot {
		slot := new(simSlot)
		slot.reset(config.C2(), tinyReq("bfs").workload(), sim.Options{})
		return slot
	}

	slot := retained()
	s.runFn = func(context.Context, SimulationRequest) (*sim.StatsDump, error) { panic("invariant violated") }
	if _, err := s.runGuarded(context.Background(), tinyReq("bfs"), slot); err == nil || slot.sim != nil {
		t.Errorf("after a panic: err = %v, retained simulator kept = %v", err, slot.sim != nil)
	}

	s.runFn = nil
	slot = retained()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.runGuarded(ctx, tinyReq("bfs"), slot); !errors.Is(err, context.Canceled) || slot.sim != nil {
		t.Errorf("after a cancelled run: err = %v, retained simulator kept = %v", err, slot.sim != nil)
	}

	slot = retained()
	kept := slot.sim
	if _, err := s.runGuarded(context.Background(), tinyReq("bfs"), slot); err != nil || slot.sim != kept {
		t.Errorf("after a good run: err = %v, same simulator = %v", err, slot.sim == kept)
	}
}

// resultBytes cuts a job response's result, which JobStatus encodes
// last, out of the body.
func resultBytes(t *testing.T, body []byte) []byte {
	t.Helper()
	i := bytes.Index(body, []byte(`"result": `))
	if i < 0 {
		t.Fatalf("no result in %.200s", body)
	}
	return body[i:]
}

// A job that hits its timeout_ms mid-run leaves nothing behind on its
// worker: the same request without a timeout, run next on that worker,
// dumps exactly the bytes a fresh server's first run dumps.
func TestTimedOutJobThenRetryMatchesFreshServer(t *testing.T) {
	req := SimulationRequest{Config: "C2", Bench: "bfs", Scale: 3, Warps: 6}

	fresh := newTestServer(t, Config{Workers: 1})
	rec, st := postJSON(t, fresh.Handler(), "/v1/simulations?wait=true", req)
	if rec.Code != http.StatusOK || st.State != "done" {
		t.Fatalf("fresh server: %d %q", rec.Code, st.State)
	}
	want := resultBytes(t, rec.Body.Bytes())

	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	if rec, _ := postJSON(t, h, "/v1/simulations?wait=true", tinyReq("stencil")); rec.Code != http.StatusOK {
		t.Fatalf("warm-up job = %d", rec.Code)
	}
	timed := req
	timed.TimeoutMS = 1
	if rec, _ := postJSON(t, h, "/v1/simulations?wait=true", timed); rec.Code != http.StatusInternalServerError {
		t.Fatalf("timed job = %d, want 500", rec.Code)
	}
	if _, st := get(t, h, "/v1/simulations/"+req.Key()); st.State != "failed" || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("timed job = %q %q, want failed on its deadline", st.State, st.Error)
	}
	rec, st = postJSON(t, h, "/v1/simulations?wait=true", req)
	if rec.Code != http.StatusOK || st.State != "done" {
		t.Fatalf("retry: %d %q", rec.Code, st.State)
	}
	if got := resultBytes(t, rec.Body.Bytes()); !bytes.Equal(got, want) {
		t.Error("retry after a timed-out job dumps other bytes than a fresh server")
	}
}
