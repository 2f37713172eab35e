package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/ingest"
	"sttllc/internal/metrics"
	"sttllc/internal/sim"
	"sttllc/internal/workloads/gen"
)

const fixtureLog = "../ingest/testdata/gpgpusim_small.log"

func fixtureBytes(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(fixtureLog)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func uploadTrace(t *testing.T, h http.Handler, body []byte, query string) (int, TraceStatus) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/traces"+query, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var st TraceStatus
	if rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("decoding %q: %v", rec.Body.String(), err)
		}
	}
	return rec.Code, st
}

// tinyGen is a generator spec small enough to simulate in tens of
// milliseconds.
func tinyGen(seed uint64) *gen.AppSpec {
	fx := func(v float64) gen.Dist { return gen.Dist{Fixed: &v} }
	return &gen.AppSpec{
		Name: "t", Seed: seed,
		InstrPerWarp: fx(200), WarpsPerSM: fx(4),
	}
}

// TestTraceUploadSimulateByteIdentical is the ingestion acceptance
// path: a GPGPU-Sim-style log uploads, simulates through the server,
// and the dump is byte-identical to replaying the same imported
// recording locally (which is what `stttrace -import`/`-replay` do).
func TestTraceUploadSimulateByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	h := s.Handler()

	code, tst := uploadTrace(t, h, fixtureBytes(t), "")
	if code != http.StatusCreated {
		t.Fatalf("upload = %d, want 201", code)
	}
	if tst.ID == "" || tst.Records != 60 || tst.Phases != 2 {
		t.Fatalf("trace status = %+v, want 60 records over 2 phases", tst)
	}

	// Content-addressed dedup: the same content re-uploaded (even with a
	// different workload label default path) lands on the same ID.
	code, dup := uploadTrace(t, h, fixtureBytes(t), "")
	if code != http.StatusOK || !dup.Dedup || dup.ID != tst.ID {
		t.Fatalf("re-upload = %d %+v, want 200 dedup on %s", code, dup, tst.ID)
	}
	if got := counter(t, s, "server.trace_dedup_total"); got != 1 {
		t.Errorf("trace_dedup_total = %d, want 1", got)
	}

	rec, st := postJSON(t, h, "/v1/simulations?wait=true",
		SimulationRequest{Config: "C2", Trace: tst.ID})
	if rec.Code != http.StatusOK || st.State != "done" {
		t.Fatalf("trace job = %d state %q body %s, want 200 done", rec.Code, st.State, rec.Body.String())
	}

	f, err := os.Open(fixtureLog)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	local, err := ingest.Import(f, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if local.WorkloadHash != tst.ID {
		t.Fatalf("server trace id %s != local import hash %s", tst.ID, local.WorkloadHash)
	}
	cfg, _ := config.ByName("C2")
	want := sim.ReplayMany(local, []config.GPUConfig{cfg})[0].Dump()
	gotJSON, _ := json.Marshal(st.Result)
	wantJSON, _ := json.Marshal(&want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("server trace dump diverges from local replay:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
	if got := counter(t, s, "server.trace_jobs_total"); got != 1 {
		t.Errorf("trace_jobs_total = %d, want 1", got)
	}

	// GET endpoints see the registered trace.
	grec := httptest.NewRecorder()
	h.ServeHTTP(grec, httptest.NewRequest("GET", "/v1/traces/"+tst.ID, nil))
	if grec.Code != http.StatusOK {
		t.Errorf("GET trace = %d, want 200", grec.Code)
	}
	lrec := httptest.NewRecorder()
	h.ServeHTTP(lrec, httptest.NewRequest("GET", "/v1/traces", nil))
	if lrec.Code != http.StatusOK || !bytes.Contains(lrec.Body.Bytes(), []byte(tst.ID)) {
		t.Errorf("GET traces = %d %s, want listing with %s", lrec.Code, lrec.Body.String(), tst.ID)
	}
}

func TestTraceUploadAndRequestErrors(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxTraces: 1})
	h := s.Handler()

	if code, _ := uploadTrace(t, h, []byte("kernel\n"), ""); code != http.StatusBadRequest {
		t.Errorf("garbage upload = %d, want 400", code)
	}

	code, tst := uploadTrace(t, h, fixtureBytes(t), "")
	if code != http.StatusCreated {
		t.Fatalf("upload = %d, want 201", code)
	}

	// Registry full: a second distinct trace bounces, a duplicate of the
	// first still dedups.
	if code, _ := uploadTrace(t, h, []byte("10 0 ST 0x1000 256\n"), ""); code != http.StatusTooManyRequests {
		t.Errorf("upload past MaxTraces = %d, want 429", code)
	}
	if code, _ := uploadTrace(t, h, fixtureBytes(t), ""); code != http.StatusOK {
		t.Errorf("duplicate upload at capacity = %d, want 200 dedup", code)
	}

	// Unknown trace ID at submission.
	rec, _ := postJSON(t, h, "/v1/simulations", SimulationRequest{Config: "C2", Trace: "deadbeef"})
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown trace job = %d, want 404", rec.Code)
	}

	// Execution-shaping knobs have no meaning on a replayed stream.
	for _, bad := range []SimulationRequest{
		{Config: "C2", Trace: tst.ID, Scale: 0.5},
		{Config: "C2", Trace: tst.ID, Warps: 4},
		{Config: "C2", Trace: tst.ID, Warmup: 100},
		{Config: "C2", Trace: tst.ID, MaxCycles: 100},
		{Config: "C2", Trace: tst.ID, Replay: true},
		{Config: "C4", Trace: tst.ID},
		{Config: "C2", Trace: tst.ID, Bench: "bfs"},
		{Config: "C2"},
	} {
		if rec, _ := postJSON(t, h, "/v1/simulations", bad); rec.Code != http.StatusBadRequest {
			t.Errorf("request %+v = %d, want 400", bad, rec.Code)
		}
	}
}

// TestTracePersistence: with a StoreDir, uploaded traces survive a
// restart and serve jobs from the re-registered copy.
func TestTracePersistence(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, StoreDir: dir})
	code, tst := uploadTrace(t, s1.Handler(), fixtureBytes(t), "")
	if code != http.StatusCreated || !tst.Persisted {
		t.Fatalf("upload = %d persisted=%v, want 201 persisted", code, tst.Persisted)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s1.Shutdown(ctx)

	s2 := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	if got := counter(t, s2, "server.traces_registered"); got != 1 {
		t.Fatalf("traces_registered after restart = %d, want 1", got)
	}
	rec, st := postJSON(t, s2.Handler(), "/v1/simulations?wait=true",
		SimulationRequest{Config: "C1", Trace: tst.ID})
	if rec.Code != http.StatusOK || st.State != "done" {
		t.Fatalf("trace job after restart = %d state %q, want 200 done", rec.Code, st.State)
	}
}

// TestGenRequestMatchesLocalRun: an inline generator spec runs through
// the service and produces the exact dump the same deterministic draw
// produces locally.
func TestGenRequestMatchesLocalRun(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	spec := tinyGen(42)

	rec, st := postJSON(t, s.Handler(), "/v1/simulations?wait=true",
		SimulationRequest{Config: "C1", Gen: spec})
	if rec.Code != http.StatusOK || st.State != "done" {
		t.Fatalf("gen job = %d state %q body %s, want 200 done", rec.Code, st.State, rec.Body.String())
	}
	if st.Result.Instructions == 0 {
		t.Error("generated workload ran no instructions")
	}

	app, err := spec.App()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := config.ByName("C1")
	reg := metrics.NewRegistry(true)
	want := sim.DumpStats(sim.RunApp(cfg, app, sim.Options{Metrics: reg}).Final, reg)
	gotJSON, _ := json.Marshal(st.Result)
	wantJSON, _ := json.Marshal(&want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("server gen dump diverges from local run:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
	if got := counter(t, s, "server.gen_jobs_total"); got != 1 {
		t.Errorf("gen_jobs_total = %d, want 1", got)
	}

	// Invalid generator specs are rejected up front.
	bad := &gen.AppSpec{WriteFrac: gen.Dist{Min: 0.9, Max: 0.1}}
	if rec, _ := postJSON(t, s.Handler(), "/v1/simulations", SimulationRequest{Config: "C1", Gen: bad}); rec.Code != http.StatusBadRequest {
		t.Errorf("invalid gen spec = %d, want 400", rec.Code)
	}
}

// TestSweepGeneratedFamilyAndTraces sweeps a configuration axis across
// a generated family plus an uploaded trace — the mixed-workload grid
// the ingestion subsystem exists to enable.
func TestSweepGeneratedFamilyAndTraces(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 16})
	h := s.Handler()

	_, tst := uploadTrace(t, h, fixtureBytes(t), "")
	if tst.ID == "" {
		t.Fatal("upload failed")
	}

	body, _ := json.Marshal(map[string]any{
		"configs": []string{"C1", "C2"},
		"traces":  []string{tst.ID},
		"gen":     gen.FamilySpec{AppSpec: *tinyGen(7), Count: 2},
	})
	req := httptest.NewRequest("POST", "/v1/sweeps?wait=true", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d %s", rec.Code, rec.Body.String())
	}
	var sst SweepStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &sst); err != nil {
		t.Fatal(err)
	}

	// Wait for the sweep, then check the grid: 2 configs × (1 trace + 2
	// family members) = 6 children, all done, with per-flavor labels.
	wrec := httptest.NewRecorder()
	h.ServeHTTP(wrec, httptest.NewRequest("GET", "/v1/sweeps/"+sst.ID+"?wait=true", nil))
	if err := json.Unmarshal(wrec.Body.Bytes(), &sst); err != nil {
		t.Fatal(err)
	}
	if sst.State != "done" || sst.Total != 6 || sst.Done != 6 {
		t.Fatalf("sweep = %+v, want 6/6 done", sst)
	}
	genNames := map[string]bool{}
	traceCells := 0
	for _, j := range sst.Jobs {
		switch {
		case j.Trace != "":
			traceCells++
			if j.Trace != tst.ID {
				t.Errorf("trace cell names %q, want %q", j.Trace, tst.ID)
			}
		case j.Gen != "":
			genNames[j.Gen] = true
		default:
			t.Errorf("cell %+v has no workload label", j)
		}
	}
	if traceCells != 2 || len(genNames) != 2 {
		t.Errorf("got %d trace cells, gen members %v; want 2 and 2 distinct", traceCells, genNames)
	}

	// Unknown trace in a sweep grid.
	body, _ = json.Marshal(map[string]any{"configs": []string{"C1"}, "traces": []string{"beef"}})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body)))
	if rec.Code != http.StatusNotFound {
		t.Errorf("sweep over unknown trace = %d, want 404", rec.Code)
	}
}
