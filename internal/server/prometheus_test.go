package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sttllc/internal/metrics"
)

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"sim.l2_requests":   "sttllc_sim_l2_requests",
		"bank[3].writes":    "sttllc_bank_3__writes",
		"engine:depth":      "sttllc_engine:depth",
		"jobs_running":      "sttllc_jobs_running",
		"weird name-total%": "sttllc_weird_name_total_",
		"UPPER.Case_OK":     "sttllc_UPPER_Case_OK",
	}
	for in, want := range cases {
		if got := promName("sttllc", in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusGolden fixes the full text exposition for a small
// hand-built registry: sorted scalar families with counter/gauge typing
// inferred from the _total suffix, then histograms with cumulative le
// buckets, +Inf, and _count.
func TestWritePrometheusGolden(t *testing.T) {
	reg := metrics.NewRegistry(true)
	c := reg.NewCounter("sim.requests_total")
	c.Add(7)
	g := reg.Scope().Gauge("queue.depth")
	g.Set(3)
	reg.Scope().Func("engine.events_fired_total", func() uint64 { return 42 })
	h := reg.NewHistogram("bank.latency", 10, 20, 40)
	for _, v := range []int64{5, 15, 15, 39, 1000} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, reg, "sttllc"); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	const want = `# TYPE sttllc_engine_events_fired_total counter
sttllc_engine_events_fired_total 42
# TYPE sttllc_queue_depth gauge
sttllc_queue_depth 3
# TYPE sttllc_sim_requests_total counter
sttllc_sim_requests_total 7
# TYPE sttllc_bank_latency histogram
sttllc_bank_latency_bucket{le="10"} 1
sttllc_bank_latency_bucket{le="20"} 3
sttllc_bank_latency_bucket{le="40"} 4
sttllc_bank_latency_bucket{le="+Inf"} 5
sttllc_bank_latency_count 5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMetricsEndpoint scrapes a live server's /metrics and checks the
// service families are present, well-typed, and reflect job activity.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	h := s.Handler()
	rr, st := postJSON(t, h, "/v1/simulations?wait=true", tinyReq("bfs"))
	if rr.Code != http.StatusOK || st.State != "done" {
		t.Fatalf("seed job: status %d state %q, body %s", rr.Code, st.State, rr.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE sttllc_server_jobs_submitted_total counter\nsttllc_server_jobs_submitted_total 1\n",
		"# TYPE sttllc_server_jobs_completed_total counter\nsttllc_server_jobs_completed_total 1\n",
		"# TYPE sttllc_server_jobs_running gauge\nsttllc_server_jobs_running 0\n",
		"sttllc_server_jobs_cached 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}
