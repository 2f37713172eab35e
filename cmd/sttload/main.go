// Command sttload is a replayable traffic generator for the sttserve
// fabric: it drives a daemon (or a multi-node coordinator) with a
// seeded, deterministic mix of simulation requests — and optionally
// whole sweeps — at fixed concurrency for a fixed duration, then
// reports jobs/sec, cache hit rate, and client-observed latency
// quantiles as an sttllc-bench-serve/v1 JSON document.
//
//	sttload -addr http://127.0.0.1:8080 -duration 10s -concurrency 8 \
//	        -configs C1,C2,C3 -benches bfs,stencil -scale 0.05 -replay \
//	        -seed 1 -o serve.json
//
// Replayability: worker w's request sequence is drawn from its own
// rand.Source seeded with (seed, w), independent of response timing —
// two runs with the same flags issue the same request multiset, so a
// regression can be re-driven exactly. Admission rejections (429/503)
// are counted but are not failures: they are the server's admission
// control doing its job under saturation. The process exits non-zero
// if any job *failed* (simulation error, transport error, malformed
// reply), which is what CI gates on — shared runners are too noisy to
// gate latency.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type jobSpec struct {
	Config    string  `json:"config"`
	Bench     string  `json:"bench"`
	Scale     float64 `json:"scale,omitempty"`
	Warps     int     `json:"warps,omitempty"`
	Replay    bool    `json:"replay,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

type sweepSpec struct {
	Configs   []string `json:"configs"`
	Benches   []string `json:"benches"`
	Scale     float64  `json:"scale,omitempty"`
	Warps     int      `json:"warps,omitempty"`
	Replay    bool     `json:"replay,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

// outcome is one request's classified result plus its latency.
type outcome struct {
	class     string // done, cached, rejected, failed
	latencyMS float64
}

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "daemon base URL")
		duration    = flag.Duration("duration", 10*time.Second, "load duration")
		concurrency = flag.Int("concurrency", 8, "concurrent client workers")
		configs     = flag.String("configs", "baseline-SRAM,baseline-STT,C1,C2,C3", "comma-separated configuration axis")
		benches     = flag.String("benches", "bfs,stencil", "comma-separated benchmark axis")
		scale       = flag.Float64("scale", 0.05, "per-job workload scale")
		warps       = flag.Int("warps", 6, "per-job warp override (0 = benchmark default)")
		replay      = flag.Bool("replay", false, "submit replay-mode jobs (trace-once/replay-many)")
		sweepEvery  = flag.Int("sweep-every", 0, "every Nth request per worker submits the whole grid as one sweep (0 = never)")
		timeout     = flag.Duration("job-timeout", 2*time.Minute, "per-request client timeout")
		seed        = flag.Int64("seed", 1, "traffic seed; same seed + flags = same request sequence")
		out         = flag.String("o", "", "write the JSON report here as well as stdout")
		allowFail   = flag.Bool("allow-failures", false, "exit 0 even when jobs failed")
	)
	flag.Parse()

	cfgAxis := splitCSV(*configs)
	benchAxis := splitCSV(*benches)
	if len(cfgAxis) == 0 || len(benchAxis) == 0 {
		fmt.Fprintln(os.Stderr, "sttload: -configs and -benches must be non-empty")
		os.Exit(2)
	}

	client := &http.Client{Timeout: *timeout}
	before, err := scrapeMetrics(client, *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sttload: scraping %s/metrics: %v\n", *addr, err)
		os.Exit(1)
	}

	deadline := time.Now().Add(*duration)
	results := make(chan outcome, 1024)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Worker-private source: the sequence depends only on
			// (seed, w), never on response timing.
			rng := rand.New(rand.NewSource(*seed<<16 + int64(w)))
			for i := 0; time.Now().Before(deadline); i++ {
				if *sweepEvery > 0 && i%*sweepEvery == *sweepEvery-1 {
					results <- runSweep(client, *addr, sweepSpec{
						Configs: cfgAxis, Benches: benchAxis,
						Scale: *scale, Warps: *warps, Replay: *replay,
						TimeoutMS: timeout.Milliseconds(),
					})
					continue
				}
				results <- runJob(client, *addr, jobSpec{
					Config: cfgAxis[rng.Intn(len(cfgAxis))],
					Bench:  benchAxis[rng.Intn(len(benchAxis))],
					Scale:  *scale, Warps: *warps, Replay: *replay,
					TimeoutMS: timeout.Milliseconds(),
				})
			}
		}(w)
	}
	go func() { wg.Wait(); close(results) }()

	counts := map[string]int{}
	var latencies []float64
	for r := range results {
		counts[r.class]++
		if r.class == "done" || r.class == "cached" {
			latencies = append(latencies, r.latencyMS)
		}
	}
	elapsed := time.Since(start)

	after, err := scrapeMetrics(client, *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sttload: scraping after run: %v\n", err)
		os.Exit(1)
	}

	report := buildReport(*addr, *seed, *concurrency, elapsed, counts, latencies, before, after)
	enc, _ := json.MarshalIndent(report, "", "  ")
	fmt.Println(string(enc))
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sttload: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if counts["failed"] > 0 && !*allowFail {
		fmt.Fprintf(os.Stderr, "sttload: %d jobs failed\n", counts["failed"])
		os.Exit(1)
	}
}

func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// runJob submits one blocking simulation and classifies the reply.
func runJob(client *http.Client, addr string, spec jobSpec) outcome {
	body, _ := json.Marshal(spec)
	t0 := time.Now()
	resp, err := client.Post(addr+"/v1/simulations?wait=true", "application/json", bytes.NewReader(body))
	lat := float64(time.Since(t0).Microseconds()) / 1000
	if err != nil {
		return outcome{class: "failed", latencyMS: lat}
	}
	defer resp.Body.Close()
	var st struct {
		State  string `json:"state"`
		Cached bool   `json:"cached"`
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable:
		return outcome{class: "rejected", latencyMS: lat}
	case resp.StatusCode != http.StatusOK:
		return outcome{class: "failed", latencyMS: lat}
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.State != "done" {
		return outcome{class: "failed", latencyMS: lat}
	}
	if st.Cached {
		return outcome{class: "cached", latencyMS: lat}
	}
	return outcome{class: "done", latencyMS: lat}
}

// runSweep submits the whole grid as one sweep and blocks on its
// terminal state; the sweep counts as a single (large) request.
func runSweep(client *http.Client, addr string, spec sweepSpec) outcome {
	body, _ := json.Marshal(spec)
	t0 := time.Now()
	resp, err := client.Post(addr+"/v1/sweeps", "application/json", bytes.NewReader(body))
	lat := func() float64 { return float64(time.Since(t0).Microseconds()) / 1000 }
	if err != nil {
		return outcome{class: "failed", latencyMS: lat()}
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable:
		return outcome{class: "rejected", latencyMS: lat()}
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		return outcome{class: "failed", latencyMS: lat()}
	case derr != nil:
		return outcome{class: "failed", latencyMS: lat()}
	}
	if st.State == "running" {
		wresp, err := client.Get(addr + "/v1/sweeps/" + st.ID + "?wait=true")
		if err != nil {
			return outcome{class: "failed", latencyMS: lat()}
		}
		derr = json.NewDecoder(wresp.Body).Decode(&st)
		wresp.Body.Close()
		if wresp.StatusCode != http.StatusOK || derr != nil {
			return outcome{class: "failed", latencyMS: lat()}
		}
	}
	if st.State != "done" {
		return outcome{class: "failed", latencyMS: lat()}
	}
	return outcome{class: "done", latencyMS: lat()}
}

// scrapeMetrics pulls the scalar counters from /metrics; the report
// carries before/after deltas of the interesting ones.
func scrapeMetrics(client *http.Client, addr string) (map[string]uint64, error) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	out := map[string]uint64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseUint(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func buildReport(addr string, seed int64, concurrency int, elapsed time.Duration,
	counts map[string]int, latencies []float64, before, after map[string]uint64) map[string]any {
	sort.Float64s(latencies)
	total := counts["done"] + counts["cached"] + counts["rejected"] + counts["failed"]
	served := counts["done"] + counts["cached"]

	delta := func(name string) uint64 {
		full := "sttllc_server_" + name
		return after[full] - before[full]
	}
	hits, misses := delta("cache_hits_total"), delta("cache_misses_total")
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	return map[string]any{
		"schema":         "sttllc-bench-serve/v1",
		"addr":           addr,
		"seed":           seed,
		"concurrency":    concurrency,
		"duration_s":     elapsed.Seconds(),
		"requests":       total,
		"done":           counts["done"],
		"cached":         counts["cached"],
		"rejected":       counts["rejected"],
		"failed":         counts["failed"],
		"jobs_per_sec":   float64(served) / elapsed.Seconds(),
		"cache_hit_rate": hitRate,
		"latency_ms": map[string]float64{
			"p50": quantile(latencies, 0.50),
			"p90": quantile(latencies, 0.90),
			"p99": quantile(latencies, 0.99),
			"max": quantile(latencies, 1.00),
		},
		"server_delta": map[string]uint64{
			"jobs_submitted_total":    delta("jobs_submitted_total"),
			"jobs_completed_total":    delta("jobs_completed_total"),
			"jobs_failed_total":       delta("jobs_failed_total"),
			"jobs_rejected_total":     delta("jobs_rejected_total"),
			"cache_hits_total":        hits,
			"cache_misses_total":      misses,
			"store_hits_total":        delta("store_hits_total"),
			"dedup_joins_total":       delta("dedup_joins_total"),
			"sweeps_submitted_total":  delta("sweeps_submitted_total"),
			"recording_misses_total":  delta("recording_misses_total"),
			"forwarded_jobs_total":    delta("forwarded_jobs_total"),
			"forward_failovers_total": delta("forward_failovers_total"),
		},
	}
}
