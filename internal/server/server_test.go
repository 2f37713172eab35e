package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/metrics"
	"sttllc/internal/sim"
	"sttllc/internal/workloads"
)

// tinyReq is a request small enough to simulate in tens of
// milliseconds; vary the benchmark for distinct keys.
func tinyReq(bench string) SimulationRequest {
	return SimulationRequest{Config: "C2", Bench: bench, Scale: 0.04, Warps: 6}
}

// newTestServer builds a service and tears it down with the test.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func postJSON(t *testing.T, h http.Handler, path string, body any) (*httptest.ResponseRecorder, JobStatus) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var st JobStatus
	if rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("decoding %q: %v", rec.Body.String(), err)
		}
	}
	return rec, st
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, JobStatus) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	var st JobStatus
	if rec.Code == http.StatusOK && strings.HasPrefix(path, "/v1/simulations/") {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("decoding %q: %v", rec.Body.String(), err)
		}
	}
	return rec, st
}

func counter(t *testing.T, s *Server, name string) uint64 {
	t.Helper()
	v, ok := s.Metrics().Value(name)
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	return v
}

func TestSubmitPollResult(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	h := s.Handler()
	req := tinyReq("bfs")

	rec, st := postJSON(t, h, "/v1/simulations", req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST = %d %s, want 202", rec.Code, rec.Body.String())
	}
	if st.ID != req.Key() {
		t.Errorf("job id = %q, want content address %q", st.ID, req.Key())
	}

	rec, st = get(t, h, "/v1/simulations/"+st.ID+"?wait=true")
	if rec.Code != http.StatusOK || st.State != "done" {
		t.Fatalf("GET wait = %d state %q, want 200 done", rec.Code, st.State)
	}
	if st.Result == nil || st.Result.Schema != sim.StatsSchema {
		t.Fatalf("result missing or wrong schema: %+v", st.Result)
	}

	// The service's dump must be byte-identical to what `sttsim
	// -stats-json` produces for the same parameters: same spec scaling,
	// same options, same enabled registry.
	spec, _ := workloads.ByName("bfs")
	spec = spec.Scale(0.04)
	spec.WarpsPerSM = 6
	cfg, _ := config.ByName("C2")
	reg := metrics.NewRegistry(true)
	want := sim.DumpStats(sim.New(cfg, spec, sim.Options{Metrics: reg}).Run(), reg)
	gotJSON, _ := json.Marshal(st.Result)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("service dump diverges from direct sim.New(...).Run() dump:\n%s\nvs\n%s", gotJSON, wantJSON)
	}

	// So is an application's, warmup included: the budget runs across
	// the kernel boundary, and the warmed dump is not the unwarmed one.
	app, _ := workloads.AppByName("srad-pipeline")
	for i := range app.Kernels {
		app.Kernels[i] = app.Kernels[i].Scale(0.04)
		app.Kernels[i].WarpsPerSM = 6
	}
	cold := sim.RunApp(cfg, app, sim.Options{}).Final
	appReq := SimulationRequest{Config: "C2", App: app.Name, Scale: 0.04, Warps: 6,
		Warmup: cold.Kernels[0].Instructions + cold.Kernels[1].Instructions/2}
	var dumps [2][]byte
	for i, warmup := range []uint64{0, appReq.Warmup} {
		appReq.Warmup = warmup
		rec, st := postJSON(t, h, "/v1/simulations?wait=true", appReq)
		if rec.Code != http.StatusOK || st.State != "done" {
			t.Fatalf("app job (warmup %d) = %d state %q, want 200 done", warmup, rec.Code, st.State)
		}
		reg := metrics.NewRegistry(true)
		want := sim.DumpStats(sim.RunApp(cfg, app, sim.Options{Metrics: reg, WarmupInstructions: warmup}).Final, reg)
		dumps[i], _ = json.Marshal(st.Result)
		if wantJSON, _ := json.Marshal(want); !bytes.Equal(dumps[i], wantJSON) {
			t.Errorf("app job (warmup %d) dump diverges from sim.RunApp:\n%s\nvs\n%s", warmup, dumps[i], wantJSON)
		}
	}
	if bytes.Equal(dumps[0], dumps[1]) {
		t.Error("app job ignored its warmup: warmed and unwarmed dumps are identical")
	}
}

func TestCacheHitSecondRequest(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	req := tinyReq("bfs")

	rec, st := postJSON(t, h, "/v1/simulations?wait=true", req)
	if rec.Code != http.StatusOK || st.State != "done" {
		t.Fatalf("first POST wait = %d state %q", rec.Code, st.State)
	}
	if st.Cached {
		t.Errorf("first response claims cached")
	}
	if hits := counter(t, s, "server.cache_hits_total"); hits != 0 {
		t.Fatalf("cache_hits before second request = %d", hits)
	}

	rec, st2 := postJSON(t, h, "/v1/simulations", req)
	if rec.Code != http.StatusOK || st2.State != "done" {
		t.Fatalf("second POST = %d state %q, want immediate done", rec.Code, st2.State)
	}
	if !st2.Cached {
		t.Errorf("second response not marked cached")
	}
	if hits := counter(t, s, "server.cache_hits_total"); hits != 1 {
		t.Errorf("cache_hits = %d, want 1", hits)
	}
	if subs := counter(t, s, "server.jobs_submitted_total"); subs != 1 {
		t.Errorf("jobs_submitted = %d, want 1 (second request must not simulate)", subs)
	}
	a, _ := json.Marshal(st.Result)
	b, _ := json.Marshal(st2.Result)
	if !bytes.Equal(a, b) {
		t.Errorf("cached result differs from computed result")
	}
}

// blockingRun replaces runFn with a run that parks until its context is
// cancelled or release is closed, making queue/cancel timing
// deterministic.
func blockingRun(started chan<- string, release <-chan struct{}) func(context.Context, SimulationRequest) (*sim.StatsDump, error) {
	return func(ctx context.Context, req SimulationRequest) (*sim.StatsDump, error) {
		if started != nil {
			started <- req.Bench
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return &sim.StatsDump{Schema: sim.StatsSchema, Config: req.Config, Benchmark: req.Bench}, nil
		}
	}
}

func TestQueueFull429(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)
	s.runFn = blockingRun(started, release)
	h := s.Handler()

	rec, _ := postJSON(t, h, "/v1/simulations", tinyReq("bfs"))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("first POST = %d", rec.Code)
	}
	<-started // the lone worker is now parked inside job 1

	rec, _ = postJSON(t, h, "/v1/simulations", tinyReq("stencil"))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("second POST = %d, want 202 (queued)", rec.Code)
	}
	rec, _ = postJSON(t, h, "/v1/simulations", tinyReq("nw"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third POST = %d %s, want 429", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Errorf("429 without Retry-After header")
	}
	if rej := counter(t, s, "server.jobs_rejected_total"); rej != 1 {
		t.Errorf("jobs_rejected = %d, want 1", rej)
	}
}

func TestCancelRunningJobFreesWorker(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	started := make(chan string, 4)
	release := make(chan struct{})
	s.runFn = blockingRun(started, release)
	h := s.Handler()

	_, st := postJSON(t, h, "/v1/simulations", tinyReq("bfs"))
	<-started

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/simulations/"+st.ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE = %d", rec.Code)
	}
	rec, got := get(t, h, "/v1/simulations/"+st.ID+"?wait=true")
	if rec.Code != http.StatusConflict && got.State != "cancelled" {
		// wait on a terminal non-done job returns its terminal code.
		t.Fatalf("after cancel: %d %q", rec.Code, got.State)
	}

	// The freed worker slot must pick up new work: this one completes.
	close(release)
	rec, st2 := postJSON(t, h, "/v1/simulations?wait=true", tinyReq("stencil"))
	if rec.Code != http.StatusOK || st2.State != "done" {
		t.Fatalf("post-cancel job = %d state %q, want done", rec.Code, st2.State)
	}
	if n := counter(t, s, "server.jobs_cancelled_total"); n != 1 {
		t.Errorf("jobs_cancelled = %d, want 1", n)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)
	s.runFn = blockingRun(started, release)
	h := s.Handler()

	postJSON(t, h, "/v1/simulations", tinyReq("bfs"))
	<-started
	_, queued := postJSON(t, h, "/v1/simulations", tinyReq("stencil"))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/simulations/"+queued.ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE = %d", rec.Code)
	}
	_, got := get(t, h, "/v1/simulations/"+queued.ID)
	if got.State != "cancelled" {
		t.Fatalf("queued job state after cancel = %q", got.State)
	}
	select {
	case b := <-started:
		t.Errorf("cancelled queued job ran anyway (%s)", b)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestDedupJoinsInflight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	started := make(chan string, 4)
	release := make(chan struct{})
	s.runFn = blockingRun(started, release)
	h := s.Handler()

	_, st1 := postJSON(t, h, "/v1/simulations", tinyReq("bfs"))
	<-started
	rec, st2 := postJSON(t, h, "/v1/simulations", tinyReq("bfs"))
	if rec.Code != http.StatusOK {
		t.Fatalf("duplicate POST = %d, want 200 (joined)", rec.Code)
	}
	if st1.ID != st2.ID {
		t.Errorf("duplicate request got a different job: %q vs %q", st1.ID, st2.ID)
	}
	if n := counter(t, s, "server.dedup_joins_total"); n != 1 {
		t.Errorf("dedup_joins = %d, want 1", n)
	}
	if n := counter(t, s, "server.jobs_submitted_total"); n != 1 {
		t.Errorf("jobs_submitted = %d, want 1", n)
	}
	close(release)
}

func TestClientDisconnectCancelsSoleWaiter(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)
	s.runFn = blockingRun(started, release)

	// A real HTTP server so the request context actually dies with the
	// connection.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(tinyReq("bfs"))
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulations?wait=true", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	<-started // job is running, client is the sole waiter
	cancel()  // client walks away
	if err := <-errCh; err == nil {
		t.Fatalf("expected client-side cancellation error")
	}

	// The abandoned job must be cancelled and its worker slot freed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if counter(t, s, "server.jobs_cancelled_total") == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not cancelled after sole waiter disconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAsyncSubmissionSurvivesPollerDisconnect(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	started := make(chan string, 4)
	release := make(chan struct{})
	s.runFn = blockingRun(started, release)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Async submit pins the job.
	rec, st := postJSON(t, s.Handler(), "/v1/simulations", tinyReq("bfs"))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST = %d", rec.Code)
	}
	<-started

	// A poller attaches with wait=true and disconnects; the job must
	// keep running.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/simulations/"+st.ID+"?wait=true", nil)
	go http.DefaultClient.Do(req)
	time.Sleep(20 * time.Millisecond)
	cancel()
	time.Sleep(20 * time.Millisecond)
	if n := counter(t, s, "server.jobs_cancelled_total"); n != 0 {
		t.Fatalf("async job cancelled by poller disconnect")
	}
	close(release)
	_, got := get(t, s.Handler(), "/v1/simulations/"+st.ID+"?wait=true")
	if got.State != "done" {
		t.Errorf("async job state = %q, want done", got.State)
	}
}

func TestJobDeadlineFailsJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultTimeout: 20 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	s.runFn = blockingRun(nil, release)
	h := s.Handler()

	rec, st := postJSON(t, h, "/v1/simulations?wait=true", tinyReq("bfs"))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("deadline-exceeded job = %d, want 500", rec.Code)
	}
	if st.State != "" && st.State != "failed" {
		t.Errorf("state = %q", st.State)
	}
	_, got := get(t, h, "/v1/simulations/"+tinyReq("bfs").Key())
	if got.State != "failed" || !strings.Contains(got.Error, "deadline") {
		t.Errorf("job = %q error %q, want failed/deadline", got.State, got.Error)
	}
	// Deadline failures must not poison the cache: a retry resubmits.
	rec, _ = postJSON(t, h, "/v1/simulations", tinyReq("bfs"))
	if rec.Code != http.StatusAccepted {
		t.Errorf("retry after failure = %d, want 202 (fresh job)", rec.Code)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	for name, req := range map[string]SimulationRequest{
		"no config":      {Bench: "bfs"},
		"unknown config": {Config: "C9", Bench: "bfs"},
		"unknown bench":  {Config: "C1", Bench: "nope"},
		"bench and app":  {Config: "C1", Bench: "bfs", App: "srad-pipeline"},
		"neither":        {Config: "C1"},
		"negative scale": {Config: "C1", Bench: "bfs", Scale: -1},
	} {
		rec, _ := postJSON(t, h, "/v1/simulations", req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: POST = %d, want 400", name, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/simulations/deadbeef", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET unknown id = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/simulations/deadbeef", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("DELETE unknown id = %d, want 404", rec.Code)
	}
}

func TestHealthReadyAndDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	started := make(chan string, 1)
	release := make(chan struct{})
	s.runFn = blockingRun(started, release)
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d", rec.Code)
	}

	postJSON(t, h, "/v1/simulations", tinyReq("bfs"))
	<-started

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	// readyz flips as soon as the drain begins.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never began")
		}
		time.Sleep(time.Millisecond)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", rec.Code)
	}
	// New submissions are refused during the drain.
	rec, _ = postJSON(t, h, "/v1/simulations", tinyReq("stencil"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("POST while draining = %d, want 503", rec.Code)
	}
	// The in-flight job completes and the drain resolves cleanly.
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v, want nil (clean drain)", err)
	}
	_, got := get(t, h, "/v1/simulations/"+tinyReq("bfs").Key())
	if got.State != "done" {
		t.Errorf("drained job state = %q, want done", got.State)
	}
}

func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	s := New(Config{Workers: 1})
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	s.runFn = blockingRun(started, release) // never finishes on its own
	postJSON(t, s.Handler(), "/v1/simulations", tinyReq("bfs"))
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	_, got := get(t, s.Handler(), "/v1/simulations/"+tinyReq("bfs").Key())
	if got.State != "cancelled" {
		t.Errorf("job after forced drain = %q, want cancelled", got.State)
	}
}

func TestRequestKeyCanonicalization(t *testing.T) {
	base := SimulationRequest{Config: "C2", Bench: "bfs"}
	same := []SimulationRequest{
		{Config: "C2", Bench: "bfs", Scale: 1.0},
		{Config: "C2", Bench: "bfs", TimeoutMS: 30000},
		{Config: "C2", Bench: "bfs", Scale: 1.0, TimeoutMS: 5},
	}
	for i, r := range same {
		if r.Key() != base.Key() {
			t.Errorf("equivalent request %d keys differently", i)
		}
	}
	diff := []SimulationRequest{
		{Config: "C1", Bench: "bfs"},
		{Config: "C2", Bench: "stencil"},
		{Config: "C2", Bench: "bfs", Scale: 0.5},
		{Config: "C2", Bench: "bfs", Warps: 8},
		{Config: "C2", Bench: "bfs", MaxCycles: 1000},
		{Config: "C2", Bench: "bfs", Warmup: 100},
		{Config: "C2", App: "srad-pipeline"},
		{Config: "C2", App: "srad-pipeline", Warmup: 100},
	}
	seen := map[string]int{base.Key(): -1}
	for i, r := range diff {
		k := r.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("requests %d and %d collide on key %s", prev, i, k)
		}
		seen[k] = i
	}
}

func TestListJobs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	postJSON(t, h, "/v1/simulations?wait=true", tinyReq("bfs"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/simulations", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("list = %d", rec.Code)
	}
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 1 || out.Jobs[0].State != "done" {
		t.Errorf("jobs = %+v, want one done job", out.Jobs)
	}
	if out.Jobs[0].Result != nil {
		t.Errorf("list view must not inline results")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newJobLRU(2)
	mk := func(id string) *job { return &job{id: id, state: jobDone} }
	c.put(mk("a"))
	c.put(mk("b"))
	c.get("a") // refresh a; b is now LRU
	c.put(mk("c"))
	if c.get("b") != nil {
		t.Errorf("b survived eviction")
	}
	if c.get("a") == nil || c.get("c") == nil {
		t.Errorf("a or c evicted wrongly")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// BenchmarkStatusResponse measures the server's own work per job
// response around a real, metrics-carrying dump. "fresh" submits a new
// request whose run returns the dump at once, so each iteration encodes
// the result, stores it and writes the response; "cached" repeats one
// request, answered from the job LRU.
func BenchmarkStatusResponse(b *testing.B) {
	probe := New(Config{Workers: 1})
	dump, err := probe.runSimulation(context.Background(), tinyReq("bfs"), &simSlot{})
	probe.Shutdown(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	submit := func(b *testing.B, h http.Handler, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulations?wait=true", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("submit = %d %s", rec.Code, rec.Body.String())
		}
	}
	b.Run("fresh", func(b *testing.B) {
		s := New(Config{Workers: 1, StoreDir: b.TempDir(), StoreBudget: 16 << 20})
		defer s.Shutdown(context.Background())
		s.runFn = func(context.Context, SimulationRequest) (*sim.StatsDump, error) { return dump, nil }
		bodies := make([][]byte, b.N)
		for i := range bodies {
			req := tinyReq("bfs")
			req.MaxCycles = int64(i + 1)
			bodies[i], _ = json.Marshal(req)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(b, s.Handler(), bodies[i])
		}
	})
	b.Run("cached", func(b *testing.B) {
		s := New(Config{Workers: 1})
		defer s.Shutdown(context.Background())
		s.runFn = func(context.Context, SimulationRequest) (*sim.StatsDump, error) { return dump, nil }
		body, _ := json.Marshal(tinyReq("bfs"))
		submit(b, s.Handler(), body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(b, s.Handler(), body)
		}
	})
}
