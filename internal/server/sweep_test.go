package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sttllc/internal/sim"
)

// doJSON issues one request against the handler and returns the raw
// recorder; sweep tests decode bodies themselves.
func doJSON(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

func decodeSweep(t *testing.T, rec *httptest.ResponseRecorder) SweepStatus {
	t.Helper()
	var st SweepStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding sweep status %q: %v", rec.Body.String(), err)
	}
	return st
}

func waitSweep(t *testing.T, h http.Handler, id string) SweepStatus {
	t.Helper()
	rec := doJSON(t, h, "GET", "/v1/sweeps/"+id+"?wait=true", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET sweep wait = %d %s", rec.Code, rec.Body.String())
	}
	return decodeSweep(t, rec)
}

// acceptanceSweep is the ISSUE acceptance grid: 8 configurations (five
// named ones plus three L3-override variants) × 2 workloads, in replay
// mode so the whole grid costs one recording per workload.
func acceptanceSweep() SweepRequest {
	return SweepRequest{
		Configs: []SweepConfig{
			{Config: "baseline-SRAM"},
			{Config: "baseline-STT"},
			{Config: "C1"},
			{Config: "C2"},
			{Config: "C3"},
			{Config: "C1", L3KB: 1536},
			{Config: "C2", L3KB: 1536},
			{Config: "C2", L3KB: 3072},
		},
		Benches: []string{"bfs", "stencil"},
		Scale:   0.04,
		Warps:   6,
		Replay:  true,
	}
}

func TestSweepMatchesIndividualSubmissions(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	h := s.Handler()
	req := acceptanceSweep()
	children, err := req.validate()
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 16 {
		t.Fatalf("grid = %d cells, want 16", len(children))
	}

	rec := doJSON(t, h, "POST", "/v1/sweeps", req)
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		t.Fatalf("POST sweep = %d %s", rec.Code, rec.Body.String())
	}
	st := decodeSweep(t, rec)
	if st.Total != 16 {
		t.Fatalf("sweep total = %d, want 16", st.Total)
	}
	st = waitSweep(t, h, st.ID)
	if st.State != "done" || st.Done != 16 || st.Failed != 0 {
		t.Fatalf("sweep = %+v, want done 16/16", st)
	}

	// The whole 8×2 grid must have cost at most one recording run per
	// workload; every cell rode the shared stream.
	if m := counter(t, s, "server.recording_misses_total"); m != 2 {
		t.Errorf("recording_misses_total = %d, want 2 (one per workload)", m)
	}
	if m := counter(t, s, "server.replay_jobs_total"); m != 16 {
		t.Errorf("replay_jobs_total = %d, want 16", m)
	}

	// Child IDs are the content addresses of the expanded requests, in
	// grid order, and every per-job dump is byte-identical to what the
	// same spec returns through POST /v1/simulations on a fresh server.
	s2 := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	for i, cr := range children {
		jb := st.Jobs[i]
		if jb.JobID != cr.Key() {
			t.Fatalf("job %d id = %s, want %s", i, jb.JobID, cr.Key())
		}
		_, got := get(t, h, "/v1/simulations/"+jb.JobID)
		if got.State != "done" || got.Result == nil {
			t.Fatalf("job %d (%s × %s): state %s", i, jb.Config, jb.Bench, got.State)
		}
		rec2, single := postJSON(t, s2.Handler(), "/v1/simulations?wait=true", cr)
		if rec2.Code != http.StatusOK || single.Result == nil {
			t.Fatalf("individual submission %d = %d %s", i, rec2.Code, rec2.Body.String())
		}
		a, _ := json.Marshal(got.Result)
		b, _ := json.Marshal(single.Result)
		if !bytes.Equal(a, b) {
			t.Errorf("job %d (%s × %s): sweep dump diverges from individual submission:\n%s\nvs\n%s",
				i, jb.Config, jb.Bench, a, b)
		}
	}
}

func TestSweepServedFromDiskAfterRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, QueueDepth: 32, StoreDir: dir}
	req := acceptanceSweep()

	s1 := New(cfg)
	rec := doJSON(t, s1.Handler(), "POST", "/v1/sweeps", req)
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		t.Fatalf("POST sweep = %d %s", rec.Code, rec.Body.String())
	}
	first := waitSweep(t, s1.Handler(), decodeSweep(t, rec).ID)
	if first.State != "done" {
		t.Fatalf("first sweep = %+v", first)
	}
	results1 := make(map[string][]byte, len(first.Jobs))
	for _, jb := range first.Jobs {
		_, st := get(t, s1.Handler(), "/v1/simulations/"+jb.JobID)
		b, _ := json.Marshal(st.Result)
		results1[jb.JobID] = b
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// A new daemon over the same store directory answers the same sweep
	// entirely from disk: no simulator invocation, no recording, every
	// child cached, terminal on submit.
	s2 := newTestServer(t, cfg)
	rec = doJSON(t, s2.Handler(), "POST", "/v1/sweeps", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat sweep after restart = %d, want 200 (fully cached)", rec.Code)
	}
	st := decodeSweep(t, rec)
	if st.State != "done" || st.Done != 16 || st.Cached != 16 {
		t.Fatalf("repeat sweep = %+v, want 16/16 cached", st)
	}
	if n := counter(t, s2, "server.jobs_submitted_total"); n != 0 {
		t.Errorf("jobs_submitted_total = %d after restart, want 0", n)
	}
	if n := counter(t, s2, "server.store_hits_total"); n != 16 {
		t.Errorf("store_hits_total = %d, want 16", n)
	}
	if n := counter(t, s2, "server.recording_misses_total"); n != 0 {
		t.Errorf("recording_misses_total = %d after restart, want 0", n)
	}
	for _, jb := range st.Jobs {
		_, got := get(t, s2.Handler(), "/v1/simulations/"+jb.JobID)
		b, _ := json.Marshal(got.Result)
		if !bytes.Equal(b, results1[jb.JobID]) {
			t.Errorf("job %s: dump from disk differs from the original run", jb.JobID)
		}
	}
}

// doneEvents returns the done job_update events of a terminal sweep's
// stream, by job ID.
func doneEvents(t *testing.T, h http.Handler, id string) map[string]SweepEvent {
	t.Helper()
	rec := doJSON(t, h, "GET", "/v1/sweeps/"+id+"/events", nil)
	out := map[string]SweepEvent{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Type == evJobUpdate && ev.State == "done" {
			out[ev.JobID] = ev
		}
	}
	return out
}

// TestSweepCachedEventsCarryStats: a done job_update carries the cell's
// ipc and cycles whether the cell ran, came from the memory LRU, or came
// from the disk store after a restart.
func TestSweepCachedEventsCarryStats(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, QueueDepth: 32, StoreDir: dir}
	req := SweepRequest{
		Configs: []SweepConfig{{Config: "C1"}, {Config: "C2"}},
		Benches: []string{"bfs", "nw"},
		Warps:   3,
	}
	s1 := New(cfg)
	s1.runFn = stubRun(nil)
	rec := doJSON(t, s1.Handler(), "POST", "/v1/sweeps", req)
	id := decodeSweep(t, rec).ID
	waitSweep(t, s1.Handler(), id)
	first := doneEvents(t, s1.Handler(), id)
	if len(first) != 4 {
		t.Fatalf("first run: %d done events, want 4", len(first))
	}
	for jid, ev := range first {
		if ev.Cached || ev.IPC != 0.5 || ev.Cycles != 3 {
			t.Fatalf("first run, job %s: %+v, want a fresh run with ipc 0.5 and 3 cycles", jid, ev)
		}
	}
	check := func(name string, s *Server) {
		t.Helper()
		rec := doJSON(t, s.Handler(), "POST", "/v1/sweeps", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: repeat sweep = %d, want 200 (fully cached)", name, rec.Code)
		}
		again := doneEvents(t, s.Handler(), id)
		if len(again) != len(first) {
			t.Fatalf("%s: %d done events, want %d", name, len(again), len(first))
		}
		for jid, ev := range again {
			if !ev.Cached || ev.IPC != first[jid].IPC || ev.Cycles != first[jid].Cycles {
				t.Errorf("%s, job %s: cached %v ipc %v cycles %d; first run had ipc %v cycles %d",
					name, jid, ev.Cached, ev.IPC, ev.Cycles, first[jid].IPC, first[jid].Cycles)
			}
		}
	}
	check("memory LRU", s1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	check("disk store", newTestServer(t, cfg))
}

func TestSweepEventsOrderedAndReplayed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 32})
	release := make(chan struct{})
	s.runFn = blockingRun(nil, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(SweepRequest{
		Configs: []SweepConfig{{Config: "C1"}, {Config: "C2"}},
		Benches: []string{"bfs", "stencil"},
	})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st SweepStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.Total != 4 {
		t.Fatalf("POST sweep = %d total %d", resp.StatusCode, st.Total)
	}

	// Subscribe while the sweep is running: the stream replays history
	// (sweep_started + the four admission job_updates) and then goes live.
	stream, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(stream.Body)
	var events []SweepEvent
	readOne := func() SweepEvent {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early after %d events: %v", len(events), sc.Err())
		}
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		return ev
	}
	for i := 0; i < 5; i++ {
		readOne()
	}
	if events[0].Type != evSweepStarted {
		t.Fatalf("first event = %q, want sweep_started", events[0].Type)
	}
	close(release) // let the grid run; the stream must now end in sweep_done
	for {
		if ev := readOne(); ev.Type == evSweepDone {
			break
		}
	}
	if sc.Scan() {
		t.Fatalf("stream continued past the terminal event: %q", sc.Text())
	}

	// One totally ordered stream: dense seq, constant total, monotone
	// progress, per-job forward-only state transitions.
	stateRank := map[string]int{"queued": 0, "running": 1, "done": 2}
	lastPerJob := map[string]int{}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d; seq must be dense from 1", i, ev.Seq)
		}
		if ev.SweepID != st.ID || ev.Total != 4 {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if i > 0 && ev.Completed < events[i-1].Completed {
			t.Fatalf("completed went backwards at event %d", i)
		}
		if ev.Type == evJobUpdate {
			r, ok := stateRank[ev.State]
			if !ok {
				t.Fatalf("event %d: unexpected state %q", i, ev.State)
			}
			if prev, seen := lastPerJob[ev.JobID]; seen && r <= prev {
				t.Fatalf("job %s went %d → %d; states must only move forward", ev.JobID, prev, r)
			}
			lastPerJob[ev.JobID] = r
		}
	}
	last := events[len(events)-1]
	if last.State != "done" || last.Completed != 4 || last.Failed != 0 {
		t.Fatalf("terminal event = %+v", last)
	}
	for id, r := range lastPerJob {
		if r != stateRank["done"] {
			t.Errorf("job %s never reached done in the stream", id)
		}
	}

	// A late subscriber replays the identical full history and gets EOF.
	late, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Body.Close()
	lsc := bufio.NewScanner(late.Body)
	n := 0
	for lsc.Scan() {
		var ev SweepEvent
		if err := json.Unmarshal(lsc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != n+1 {
			t.Fatalf("late replay seq %d at line %d", ev.Seq, n)
		}
		n++
	}
	if n != len(events) {
		t.Fatalf("late subscriber got %d events, live stream had %d", n, len(events))
	}
}

func TestSweepCancelCancelsChildren(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)
	s.runFn = blockingRun(started, release)
	h := s.Handler()

	rec := doJSON(t, h, "POST", "/v1/sweeps", SweepRequest{
		Configs: []SweepConfig{{Config: "C2"}},
		Benches: []string{"bfs", "kmeans", "stencil"},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST sweep = %d %s", rec.Code, rec.Body.String())
	}
	id := decodeSweep(t, rec).ID
	<-started // one child running, two queued

	if rec = doJSON(t, h, "DELETE", "/v1/sweeps/"+id, nil); rec.Code != http.StatusOK {
		t.Fatalf("DELETE sweep = %d", rec.Code)
	}
	st := waitSweep(t, h, id)
	if st.State != "cancelled" || st.Cancelled != 3 || st.Done != 0 {
		t.Fatalf("cancelled sweep = %+v", st)
	}
	for _, jb := range st.Jobs {
		if jb.State != "cancelled" {
			t.Errorf("child %s state = %s", jb.JobID, jb.State)
		}
	}
	if n := counter(t, s, "server.sweeps_cancelled_total"); n != 1 {
		t.Errorf("sweeps_cancelled_total = %d", n)
	}
}

func TestSweepAdmissionAllOrNothing(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)
	s.runFn = blockingRun(started, release)
	h := s.Handler()

	postJSON(t, h, "/v1/simulations", tinyReq("bfs"))
	<-started                                        // worker busy
	postJSON(t, h, "/v1/simulations", tinyReq("nw")) // 1 of 2 queue slots
	submittedBefore := counter(t, s, "server.jobs_submitted_total")

	// Two fresh cells, one free slot: the whole sweep must bounce with
	// 429 and leave no trace — no sweep object, no admitted children.
	rec := doJSON(t, h, "POST", "/v1/sweeps", SweepRequest{
		Configs: []SweepConfig{{Config: "C1"}, {Config: "C2"}},
		Benches: []string{"kmeans"},
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("oversized sweep = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if n := counter(t, s, "server.sweeps_submitted_total"); n != 0 {
		t.Errorf("sweeps_submitted_total = %d after rejection", n)
	}
	if n := counter(t, s, "server.jobs_submitted_total"); n != submittedBefore {
		t.Errorf("rejected sweep admitted children: submitted %d → %d", submittedBefore, n)
	}

	// A sweep that fits in the remaining slot — one fresh cell, one cell
	// joining the in-flight bfs job — is admitted.
	rec = doJSON(t, h, "POST", "/v1/sweeps", SweepRequest{
		Configs: []SweepConfig{{Config: "C2"}},
		Benches: []string{"bfs", "kmeans"},
		Scale:   0.04, Warps: 6,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("fitting sweep = %d %s, want 202", rec.Code, rec.Body.String())
	}
}

func TestSweepJoinsLiveIdenticalSweep(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)
	s.runFn = blockingRun(started, release)
	h := s.Handler()

	body := SweepRequest{
		Configs: []SweepConfig{{Config: "C2"}},
		Benches: []string{"bfs", "kmeans"},
	}
	rec := doJSON(t, h, "POST", "/v1/sweeps", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("first POST = %d", rec.Code)
	}
	id := decodeSweep(t, rec).ID

	rec = doJSON(t, h, "POST", "/v1/sweeps", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("identical live sweep = %d, want 200 join", rec.Code)
	}
	if got := decodeSweep(t, rec).ID; got != id {
		t.Fatalf("join returned sweep %s, want %s", got, id)
	}
	if n := counter(t, s, "server.sweep_joins_total"); n != 1 {
		t.Errorf("sweep_joins_total = %d", n)
	}
	if n := counter(t, s, "server.sweeps_submitted_total"); n != 1 {
		t.Errorf("sweeps_submitted_total = %d", n)
	}
}

func TestSweepChildDedupsAgainstInflightSingle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	started := make(chan string, 4)
	release := make(chan struct{})
	s.runFn = blockingRun(started, release)
	h := s.Handler()

	_, single := postJSON(t, h, "/v1/simulations", tinyReq("bfs"))
	<-started

	rec := doJSON(t, h, "POST", "/v1/sweeps", SweepRequest{
		Configs: []SweepConfig{{Config: "C2"}},
		Benches: []string{"bfs", "kmeans"},
		Scale:   0.04, Warps: 6,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST sweep = %d", rec.Code)
	}
	st := decodeSweep(t, rec)
	if st.Jobs[0].JobID != single.ID {
		t.Fatalf("sweep child id %s, inflight single id %s; identical specs must share a job", st.Jobs[0].JobID, single.ID)
	}
	if n := counter(t, s, "server.dedup_joins_total"); n != 1 {
		t.Errorf("dedup_joins_total = %d", n)
	}
	close(release)
	if st = waitSweep(t, h, st.ID); st.State != "done" || st.Done != 2 {
		t.Fatalf("sweep = %+v", st)
	}
}

func TestSweepBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	cases := []struct {
		name string
		body string
	}{
		{"no configs", `{"benches":["bfs"]}`},
		{"no workloads", `{"configs":["C2"]}`},
		{"unknown config", `{"configs":["C9"],"benches":["bfs"]}`},
		{"unknown bench", `{"configs":["C2"],"benches":["nope"]}`},
		{"duplicate cells", `{"configs":["C2","C2"],"benches":["bfs"]}`},
		{"unknown field top-level", `{"configs":["C2"],"benches":["bfs"],"bogus":1}`},
		{"unknown field in config object", `{"configs":[{"config":"C2","bogus":1}],"benches":["bfs"]}`},
		{"replay app", `{"configs":["C2"],"apps":["srad-pipeline"],"replay":true}`},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400 (%s)", tc.name, rec.Code, rec.Body.String())
		}
	}

	// The grid cap rejects before expansion.
	var big SweepRequest
	for i := 0; i < 513; i++ {
		big.Configs = append(big.Configs, SweepConfig{Config: "C2", L3KB: 768 + i})
	}
	big.Benches = []string{"bfs", "kmeans"}
	rec := doJSON(t, h, "POST", "/v1/sweeps", big)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "per-sweep limit") {
		t.Errorf("oversized grid = %d %s, want 400 with limit message", rec.Code, rec.Body.String())
	}
}

func TestSweepConfigUnmarshalForms(t *testing.T) {
	var req SweepRequest
	blob := `{"configs":["C1",{"config":"C2","l3_kb":1536,"l3_ways":16}],"benches":["bfs"]}`
	if err := json.Unmarshal([]byte(blob), &req); err != nil {
		t.Fatal(err)
	}
	if req.Configs[0].Config != "C1" || req.Configs[1].L3KB != 1536 || req.Configs[1].L3Ways != 16 {
		t.Fatalf("parsed configs = %+v", req.Configs)
	}
	children, err := req.validate()
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 || children[1].L3KB != 1536 {
		t.Fatalf("expanded = %+v", children)
	}
}

// TestSweepAdmissionPinsStoreReads is the deterministic repro for the
// counted-slots race. A store entry that is indexed but unreadable at
// admission time (a corrupt record, or one evicted by a concurrent
// worker's write) needs a queue slot like any fresh cell. Admission
// reads and pins every cached answer under the same lock hold as the
// slot count, so with a full queue the sweep bounces with 429 instead
// of admitting a cell it has no slot for.
func TestSweepAdmissionPinsStoreReads(t *testing.T) {
	dir := t.TempDir()

	// Seed the store with one completed dump, then corrupt its record on
	// disk after restart: the index still lists the entry but any read
	// quarantines it (get == nil).
	seed := New(Config{Workers: 1, StoreDir: dir})
	seed.runFn = func(_ context.Context, req SimulationRequest) (*sim.StatsDump, error) {
		return &sim.StatsDump{Schema: sim.StatsSchema, Config: req.Config, Benchmark: req.Bench}, nil
	}
	if rec, _ := postJSON(t, seed.Handler(), "/v1/simulations?wait=true", tinyReq("bfs")); rec.Code != http.StatusOK {
		t.Fatalf("seed run = %d", rec.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := seed.Shutdown(ctx); err != nil {
		t.Fatalf("seed shutdown: %v", err)
	}

	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, StoreDir: dir})
	id := tinyReq("bfs").normalize().Key()
	if s.store.len() != 1 {
		t.Fatal("seeded dump not indexed after restart")
	}
	corruptRecord(t, s.store, id)

	// Occupy the worker and the only queue slot, so free == 0.
	started := make(chan string, 4)
	release := make(chan struct{})
	s.runFn = blockingRun(started, release)
	h := s.Handler()
	postJSON(t, h, "/v1/simulations", tinyReq("kmeans"))
	<-started
	postJSON(t, h, "/v1/simulations", tinyReq("nw"))

	// A one-cell sweep whose cell the index claims is cached: the
	// read-time quarantine means it actually needs a slot, and none is
	// free — the whole sweep must bounce, admitting nothing.
	rec := doJSON(t, h, "POST", "/v1/sweeps", SweepRequest{
		Configs: []SweepConfig{{Config: "C2"}},
		Benches: []string{"bfs"},
		Scale:   0.04, Warps: 6,
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("sweep over a corrupt store entry = %d %s, want 429", rec.Code, rec.Body.String())
	}
	if n := counter(t, s, "server.sweeps_submitted_total"); n != 0 {
		t.Errorf("sweeps_submitted_total = %d after rejection, want 0", n)
	}
	if n := counter(t, s, "server.store_quarantined_total"); n != 1 {
		t.Errorf("store_quarantined_total = %d, want 1 (resolution must read, not guess)", n)
	}

	// Once slots free up, the same sweep is admitted and re-runs the
	// lost cell instead of failing it (release is closed, so blockingRun
	// now completes jobs immediately).
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for counter(t, s, "server.queue_depth") != 0 || counter(t, s, "server.jobs_running") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the queue to drain")
		}
		time.Sleep(time.Millisecond)
	}
	rec = doJSON(t, h, "POST", "/v1/sweeps", SweepRequest{
		Configs: []SweepConfig{{Config: "C2"}},
		Benches: []string{"bfs"},
		Scale:   0.04, Warps: 6,
	})
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		t.Fatalf("retry sweep = %d %s", rec.Code, rec.Body.String())
	}
	st := waitSweep(t, h, decodeSweep(t, rec).ID)
	if st.State != "done" || st.Done != 1 || st.Failed != 0 {
		t.Fatalf("retry sweep = %+v, want 1/1 done", st)
	}
}

// TestSweepAdmissionStormNoSpuriousFailures races sweep admission
// against concurrent single submissions with a tiny finished LRU and a
// tiny disk-store budget, so cache and store entries are constantly
// evicted between any count and any commit. Under -race this also
// checks the locking; functionally it asserts the all-or-nothing
// promise — an admitted sweep never contains a child that failed with
// "queue full during admission", and with a runFn that cannot fail,
// every admitted sweep completes.
func TestSweepAdmissionStormNoSpuriousFailures(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 2, QueueDepth: 4, CacheEntries: 2,
		StoreDir: t.TempDir(), StoreBudget: 2 << 10, // a handful of entries: constant eviction
	})
	s.runFn = func(_ context.Context, req SimulationRequest) (*sim.StatsDump, error) {
		time.Sleep(200 * time.Microsecond)
		return &sim.StatsDump{Schema: sim.StatsSchema, Config: req.Config, Benchmark: req.Bench}, nil
	}
	h := s.Handler()

	configs := []string{"C1", "C2", "C3"}
	benches := []string{"bfs", "kmeans", "stencil", "nw"}
	var mu sync.Mutex
	seen := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				if w%2 == 0 {
					// Singles churn the queue, the LRU, and the store from
					// outside the sweep path.
					r := tinyReq(benches[(w+i)%len(benches)])
					r.Config = configs[i%len(configs)]
					postJSON(t, h, "/v1/simulations?wait=true", r)
					continue
				}
				rec := doJSON(t, h, "POST", "/v1/sweeps", SweepRequest{
					Configs: []SweepConfig{{Config: configs[(w+i)%3]}, {Config: configs[(w+i+1)%3]}},
					Benches: []string{benches[i%4], benches[(i+1)%4]},
					Scale:   0.04, Warps: 6,
				})
				switch rec.Code {
				case http.StatusAccepted, http.StatusOK:
					if id := decodeSweep(t, rec).ID; id != "" {
						mu.Lock()
						seen[id] = true
						mu.Unlock()
					}
				case http.StatusTooManyRequests:
					// Whole-sweep rejection is the correct overload answer.
				default:
					t.Errorf("sweep POST = %d %s", rec.Code, rec.Body.String())
				}
			}
		}(w)
	}
	wg.Wait()

	for id := range seen {
		st := waitSweep(t, h, id)
		if st.State != "done" {
			t.Errorf("admitted sweep %s ended %q (%d done, %d failed): %+v", id, st.State, st.Done, st.Failed, st)
		}
		for _, jb := range st.Jobs {
			if jb.Error == "queue full during admission" {
				t.Errorf("sweep %s child %s lost its counted slot", id, jb.JobID)
			}
		}
	}
}

// TestSweepFabricStressRace hammers the whole surface — sweep submit,
// event streaming, cancellation, overlapping singles, the disk store —
// from many goroutines. Its value is under -race: it must expose no data
// race and no deadlock.
func TestSweepFabricStressRace(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 128, CacheEntries: 32, StoreDir: t.TempDir()})
	s.runFn = func(ctx context.Context, req SimulationRequest) (*sim.StatsDump, error) {
		time.Sleep(time.Millisecond)
		return &sim.StatsDump{Schema: sim.StatsSchema, Config: req.Config, Benchmark: req.Bench}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	configs := []string{"C1", "C2", "C3", "baseline-SRAM"}
	benchSets := [][]string{{"bfs"}, {"bfs", "kmeans"}, {"stencil", "nw"}, {"kmeans", "stencil"}}
	ids := make(chan string, 256)

	var submitters sync.WaitGroup
	for w := 0; w < 6; w++ {
		submitters.Add(1)
		go func(w int) {
			defer submitters.Done()
			for i := 0; i < 8; i++ {
				body, _ := json.Marshal(SweepRequest{
					Configs: []SweepConfig{{Config: configs[(w+i)%len(configs)]}, {Config: configs[(w+i+1)%len(configs)]}},
					Benches: benchSets[(w*3+i)%len(benchSets)],
					Warps:   w%3 + 1,
				})
				resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				var st SweepStatus
				json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if st.ID != "" {
					ids <- st.ID
				}
			}
		}(w)
	}

	var consumers sync.WaitGroup
	for c := 0; c < 4; c++ {
		consumers.Add(1)
		go func(c int) {
			defer consumers.Done()
			for id := range ids {
				switch c % 2 {
				case 0: // stream the sweep's events to EOF
					resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
					if err != nil {
						continue
					}
					sc := bufio.NewScanner(resp.Body)
					prev := 0
					for sc.Scan() {
						var ev SweepEvent
						if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Seq != prev+1 {
							t.Errorf("sweep %s: seq %d after %d", id, ev.Seq, prev)
						}
						prev++
					}
					resp.Body.Close()
				case 1: // cancel it (may already be terminal — fine)
					req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sweeps/"+id, nil)
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
				}
			}
		}(c)
	}

	submitters.Wait()
	close(ids)
	consumers.Wait()

	// Every tracked sweep must still reach a terminal state.
	resp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sweeps []SweepStatus `json:"sweeps"`
	}
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	for _, sw := range list.Sweeps {
		st := waitSweep(t, s.Handler(), sw.ID)
		if st.State == "running" {
			t.Errorf("sweep %s still running after wait", st.ID)
		}
	}
	if n := counter(t, s, "server.sweeps_submitted_total"); n == 0 {
		t.Error("stress run submitted no sweeps")
	}
}
