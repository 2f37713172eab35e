// Package server turns the simulator into a long-running service: an
// HTTP/JSON daemon that accepts simulation requests, runs them on a
// bounded worker pool with admission control, deduplicates identical
// in-flight requests onto one job, caches completed results by content
// address, and exposes its own and the simulator's counters in
// Prometheus text format.
//
//	POST   /v1/simulations        submit (202; ?wait=true blocks until done)
//	GET    /v1/simulations/{id}   poll one job (?wait=true blocks)
//	DELETE /v1/simulations/{id}   cancel a queued or running job
//	GET    /v1/simulations        list known jobs
//	POST   /v1/sweeps             submit a configuration × workload grid (see sweep.go)
//	GET    /v1/sweeps[/{id}]      list sweeps / one sweep's status (?wait=true blocks)
//	GET    /v1/sweeps/{id}/events NDJSON progress stream (see stream.go)
//	DELETE /v1/sweeps/{id}        cancel a sweep's outstanding jobs
//	POST   /v1/traces             upload an external trace (see traces.go)
//	GET    /v1/traces[/{id}]      list / inspect uploaded traces
//	GET    /metrics               Prometheus exposition
//	GET    /healthz, /readyz      liveness / readiness (503 while draining)
//
// Results are the same StatsDump that `sttsim -stats-json` emits, byte
// for byte — sttllc-stats/v1, or v2 for multi-tier (L3) hierarchies:
// the service is a caching, cancellable front end over the exact CLI
// semantics.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sttllc/internal/metrics"
	"sttllc/internal/sim"
)

// Config tunes a Server. The zero value picks service defaults.
type Config struct {
	// Workers is the number of concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of accepted-but-not-started jobs;
	// submissions beyond it are rejected with 429 (0 = 16).
	QueueDepth int
	// CacheEntries bounds the terminal-job LRU, which doubles as the
	// result cache (0 = 256).
	CacheEntries int
	// DefaultTimeout bounds a job's wall time when the request names
	// none (0 = 5m; negative = unlimited).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeouts (0 = 30m).
	MaxTimeout time.Duration
	// StoreDir roots the disk-backed result store ("" = memory only).
	// With a store, completed dumps persist across restarts and repeat
	// queries are answered from disk instead of re-simulated.
	StoreDir string
	// StoreBudget bounds the store's payload bytes (0 = 256MB); least
	// recently used results are evicted beyond it.
	StoreBudget int64
	// MaxTraces bounds the uploaded-trace registry (0 = 64); uploads
	// beyond it are rejected with 429. Traces are never evicted — jobs
	// reference them by ID, and a vanished trace would strand requests.
	MaxTraces int
	// Self and Peers enable the multi-node mode: Self is this node's
	// advertised base URL (e.g. "http://10.0.0.1:8080"), Peers the other
	// nodes'. Job ownership is consistent-hashed over Self ∪ Peers; a
	// job owned elsewhere is forwarded to its owner, with retry and
	// failover to local execution when the owner is unreachable. Peers
	// without Self is a configuration error.
	Self  string
	Peers []string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Minute
	}
	if c.MaxTraces <= 0 {
		c.MaxTraces = 64
	}
	return c
}

// Server is one simulation service instance. Create with New; it is
// ready (workers running) on return.
type Server struct {
	cfg Config
	mux *http.ServeMux
	reg *metrics.Registry

	// runFn, when set, executes every job in place of runSimulation;
	// tests substitute controllable stand-ins.
	runFn func(ctx context.Context, req SimulationRequest) (*sim.StatsDump, error)
	// now stamps job lifecycle times (time.Now; tests pin it so the
	// queue_ms and run_ms of a response are reproducible).
	now func() time.Time

	// recordings shares reference-stream recordings across replay jobs:
	// K jobs sweeping K configurations over one workload cost one
	// recording run plus K cheap replays (see sim.RecordingCache).
	recordings *sim.RecordingCache
	replayJobs atomic.Uint64

	// store persists completed dumps across restarts (nil = memory
	// only); ring and httpc drive the multi-node forwarding path (ring
	// nil = single node).
	store *diskStore
	ring  *ring
	httpc *http.Client

	// Scrape-safe counters: workers add with atomics, the registry
	// reads through Load closures, so /metrics never races a job.
	submitted    atomic.Uint64
	completed    atomic.Uint64
	failed       atomic.Uint64
	cancelledN   atomic.Uint64
	rejected     atomic.Uint64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	dedupJoins   atomic.Uint64
	simCycles    atomic.Uint64
	simInstr     atomic.Uint64
	running      atomic.Int64
	drainingFlag atomic.Bool

	// Ingestion: uploaded traces and generated-workload jobs.
	tracesUploaded atomic.Uint64
	traceDedup     atomic.Uint64
	traceJobs      atomic.Uint64
	genJobs        atomic.Uint64

	sweepsSubmitted atomic.Uint64
	sweepsCompleted atomic.Uint64
	sweepsFailed    atomic.Uint64
	sweepsCancelled atomic.Uint64
	sweepJoins      atomic.Uint64
	sweepChildrenN  atomic.Uint64
	forwarded       atomic.Uint64
	forwardFailover atomic.Uint64

	mu             sync.Mutex
	inflight       map[string]*job // queued or running, by id
	finished       *jobLRU         // terminal, by id; doubles as result cache
	queue          chan *job
	wg             sync.WaitGroup
	sweeps         map[string]*sweep          // live and recent sweeps, by id
	finishedSweeps []string                   // terminal sweeps, oldest first
	watch          map[string]map[*sweep]bool // job id → sweeps tracking it
	traces         map[string]*traceEntry     // uploaded traces, by content address
}

// New builds a Server and starts its worker pool. Configuration that
// cannot possibly serve — an unopenable store directory, peers without
// a self address — panics, like every other constructor in this
// codebase: a daemon that cannot persist or route must not boot
// half-working.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		reg:        metrics.NewRegistry(true),
		inflight:   make(map[string]*job),
		finished:   newJobLRU(cfg.CacheEntries),
		queue:      make(chan *job, cfg.QueueDepth),
		recordings: sim.NewRecordingCache(cfg.CacheEntries),
		sweeps:     make(map[string]*sweep),
		watch:      make(map[string]map[*sweep]bool),
		traces:     make(map[string]*traceEntry),
		httpc:      &http.Client{},
		now:        time.Now,
	}
	if cfg.StoreDir != "" {
		st, err := openStore(cfg.StoreDir, cfg.StoreBudget)
		if err != nil {
			panic("server: " + err.Error())
		}
		s.store = st
		s.loadTraces()
	}
	if len(cfg.Peers) > 0 {
		if cfg.Self == "" {
			panic("server: Peers configured without Self")
		}
		s.ring = newRing(cfg.Self, cfg.Peers)
	}
	s.registerMetrics()
	s.routes()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Metrics returns the server's registry (own counters plus aggregates
// over completed simulations) — the same registry /metrics exposes.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

func (s *Server) registerMetrics() {
	r := s.reg.Scope()
	r.Func("server.jobs_submitted_total", s.submitted.Load)
	r.Func("server.jobs_completed_total", s.completed.Load)
	r.Func("server.jobs_failed_total", s.failed.Load)
	r.Func("server.jobs_cancelled_total", s.cancelledN.Load)
	r.Func("server.jobs_rejected_total", s.rejected.Load)
	r.Func("server.cache_hits_total", s.cacheHits.Load)
	r.Func("server.cache_misses_total", s.cacheMisses.Load)
	r.Func("server.dedup_joins_total", s.dedupJoins.Load)
	r.Func("server.sim_cycles_total", s.simCycles.Load)
	r.Func("server.sim_instructions_total", s.simInstr.Load)
	r.Func("server.jobs_running", func() uint64 {
		if n := s.running.Load(); n > 0 {
			return uint64(n)
		}
		return 0
	})
	r.Func("server.queue_depth", func() uint64 { return uint64(len(s.queue)) })
	r.Func("server.jobs_cached", func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(s.finished.len())
	})
	// Replay-mode observability: how many jobs rode a recording instead
	// of a full simulation, how many recordings exist, and how often a
	// replay job found its workload's stream already recorded.
	r.Func("server.replay_jobs_total", s.replayJobs.Load)
	r.Func("server.recordings_cached", func() uint64 {
		return uint64(s.recordings.Len())
	})
	r.Func("server.recording_hits_total", func() uint64 {
		hits, _ := s.recordings.Stats()
		return hits
	})
	r.Func("server.recording_misses_total", func() uint64 {
		_, misses := s.recordings.Stats()
		return misses
	})
	// Ingestion: uploaded traces, content-address dedup, and the two
	// new job flavors (trace replays and generated workloads).
	r.Func("server.traces_uploaded_total", s.tracesUploaded.Load)
	r.Func("server.trace_dedup_total", s.traceDedup.Load)
	r.Func("server.trace_jobs_total", s.traceJobs.Load)
	r.Func("server.gen_jobs_total", s.genJobs.Load)
	r.Func("server.traces_registered", func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(len(s.traces))
	})
	// Sweep fabric: batched grids, their children, and live joins.
	r.Func("server.sweeps_submitted_total", s.sweepsSubmitted.Load)
	r.Func("server.sweeps_completed_total", s.sweepsCompleted.Load)
	r.Func("server.sweeps_failed_total", s.sweepsFailed.Load)
	r.Func("server.sweeps_cancelled_total", s.sweepsCancelled.Load)
	r.Func("server.sweep_joins_total", s.sweepJoins.Load)
	r.Func("server.sweep_jobs_total", s.sweepChildrenN.Load)
	r.Func("server.sweeps_tracked", func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(len(s.sweeps))
	})
	// Disk store: zero-valued when persistence is off, so dashboards
	// and scrapers see a uniform surface either way.
	r.Func("server.store_hits_total", func() uint64 {
		if s.store == nil {
			return 0
		}
		return s.store.hits.Load()
	})
	r.Func("server.store_misses_total", func() uint64 {
		if s.store == nil {
			return 0
		}
		return s.store.misses.Load()
	})
	r.Func("server.store_writes_total", func() uint64 {
		if s.store == nil {
			return 0
		}
		return s.store.writes.Load()
	})
	r.Func("server.store_evictions_total", func() uint64 {
		if s.store == nil {
			return 0
		}
		return s.store.evictions.Load()
	})
	r.Func("server.store_quarantined_total", func() uint64 {
		if s.store == nil {
			return 0
		}
		return s.store.quarantined.Load()
	})
	r.Func("server.store_entries", func() uint64 { return uint64(s.store.len()) })
	r.Func("server.store_bytes", func() uint64 { return uint64(s.store.bytes()) })
	// Multi-node: jobs executed by their ring owner vs. rescued locally.
	r.Func("server.forwarded_jobs_total", s.forwarded.Load)
	r.Func("server.forward_failovers_total", s.forwardFailover.Load)
	r.Func("server.ring_nodes", func() uint64 {
		if s.ring == nil {
			return 1
		}
		return uint64(len(s.ring.points) / ringPoints)
	})
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulations", s.handleSubmit)
	mux.HandleFunc("GET /v1/simulations", s.handleList)
	mux.HandleFunc("GET /v1/simulations/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/simulations/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.drainingFlag.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	})
	s.mux = mux
}

// Handler returns the service's HTTP handler, for mounting on any
// http.Server (or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// JobStatus is the wire form of one job, returned by every endpoint.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Cached marks a response answered from the result cache rather
	// than a run performed for this request.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// QueueMS and RunMS time the job's life; zero until the respective
	// phase ends.
	QueueMS int64          `json:"queue_ms,omitempty"`
	RunMS   int64          `json:"run_ms,omitempty"`
	Result  *sim.StatsDump `json:"result,omitempty"`
}

// status is one job's response: the JobStatus fields, with the result
// kept as the job's encoded dump until writeStatus splices it in.
type status struct {
	JobStatus
	dump []byte
}

// statusLocked snapshots j; the caller holds s.mu.
func statusLocked(j *job, cached bool) status {
	st := JobStatus{ID: j.id, State: j.state.String(), Cached: cached, Error: j.errMsg}
	if !j.started.IsZero() {
		st.QueueMS = j.started.Sub(j.submitted).Milliseconds()
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		st.RunMS = j.finished.Sub(j.started).Milliseconds()
	}
	if j.state == jobDone {
		return status{st, j.res.dump}
	}
	return status{JobStatus: st}
}

// bufPool recycles response buffers; a job response is ~12 KB.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// writeStatus writes st exactly as writeJSON would write the JobStatus
// with its Result set, without decoding the dump: the other fields go
// through encoding/json, and the encoded dump, which the process
// already trusts, is spliced in as the last field by appendIndent.
func writeStatus(w http.ResponseWriter, code int, st status) {
	if st.dump == nil {
		writeJSON(w, code, st.JobStatus)
		return
	}
	head, _ := json.MarshalIndent(st.JobStatus, "", "  ") // Result is nil: strings and integers always marshal
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	b := append((*bp)[:0], head[:len(head)-len("\n}")]...) // reopen the object
	b = append(b, ",\n  \"result\": "...)
	b = appendIndent(b, st.dump, "  ", "  ")
	b = append(b, "\n}\n"...)
	*bp = b
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds request bodies; simulation requests are a few
// hundred bytes of scalars.
const maxBodyBytes = 1 << 20

func wantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// cell is one canonical request on its way through admitLocked.
// Resolution pins the cell's answer in job (an in-flight job to join or
// a done job from the memory LRU) or res (a result read and verified
// from the disk store); a cell with neither needs a queue slot. After
// commit, job is the cell's job and the flags say how it was answered.
type cell struct {
	req SimulationRequest
	id  string // req.Key()

	job *job
	res *result

	cached bool // answered from the memory LRU or the disk store
	queued bool // enqueued as a fresh job
}

func newCell(req SimulationRequest) cell { return cell{req: req, id: req.Key()} }

// refusal is why admitLocked turned a whole submission away. Handlers
// word their own 429; needed and free size it.
type refusal struct {
	code         int
	retryAfter   int // seconds; 0 = no Retry-After header
	msg          string
	needed, free int
}

var refuseDraining = &refusal{code: http.StatusServiceUnavailable, retryAfter: 5, msg: "server is draining"}

func (rf *refusal) write(w http.ResponseWriter) {
	if rf.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(rf.retryAfter))
	}
	writeError(w, rf.code, "%s", rf.msg)
}

// admitLocked is the one admission path: POST /v1/simulations admits
// one cell, POST /v1/sweeps its whole grid, all or nothing. It resolves
// every cell to its pinned answer, counts the cells that need a queue
// slot, and refuses the submission if that count cannot be served —
// while draining, or beyond the free queue slots. Cells answered by a
// join or a cache never need a slot, so a draining server still serves
// them. Only then does it commit: join, adopt a cached result, or
// enqueue. hold pins joined and enqueued jobs against client-disconnect
// cancellation (async submissions and sweep cells). The caller holds
// s.mu throughout, so the commit cannot disagree with the count: a
// pinned job or result cannot vanish, workers finalize under the same
// mutex, and only this function enqueues — workers can only drain the
// queue meanwhile, so the free count cannot shrink.
func (s *Server) admitLocked(cells []cell, hold bool) *refusal {
	for _, c := range cells {
		// Registry membership is server state, so it is checked here
		// rather than in the static validator. Traces are never deleted:
		// a trace present now is present when the job runs.
		if c.req.Trace != "" && s.traces[c.req.Trace] == nil {
			return &refusal{code: http.StatusNotFound, msg: fmt.Sprintf("unknown trace %q", c.req.Trace)}
		}
	}
	needed := 0
	for i := range cells {
		c := &cells[i]
		if c.job = s.inflight[c.id]; c.job != nil {
			continue
		}
		if j := s.finished.get(c.id); j != nil && j.state == jobDone {
			c.job = j
			continue
		}
		if c.res = s.store.get(c.id); c.res == nil {
			needed++
		}
	}
	if needed > 0 && s.drainingFlag.Load() {
		return refuseDraining
	}
	if free := cap(s.queue) - len(s.queue); needed > free {
		// Admission control: reject now rather than letting latency
		// grow without bound.
		s.rejected.Add(1)
		return &refusal{code: http.StatusTooManyRequests, needed: needed, free: free}
	}
	for i := range cells {
		c := &cells[i]
		switch {
		case c.job != nil && !c.job.terminal():
			// Singleflight: an identical request is already queued or
			// running — join it instead of simulating twice.
			s.dedupJoins.Add(1)
			if hold {
				c.job.asyncHold = true
			}
		case c.job != nil:
			// Content-addressed cache hit. Re-put so pollers can fetch it
			// by ID even if an earlier cell's store adoption evicted it.
			s.cacheHits.Add(1)
			s.finished.put(c.job)
			c.cached = true
		case c.res != nil:
			// Disk-store hit: a completed dump from before the last
			// restart, or evicted from the LRU since. The LRU adopts it as
			// a terminal job so pollers can fetch it by ID.
			now := s.now()
			c.job = &job{
				id: c.id, req: c.req, state: jobDone, res: *c.res,
				done: make(chan struct{}), submitted: now, started: now, finished: now,
			}
			close(c.job.done)
			s.finished.put(c.job)
			c.cached = true
		default:
			c.job = &job{
				id:        c.id,
				req:       c.req,
				state:     jobQueued,
				done:      make(chan struct{}),
				asyncHold: hold,
				submitted: s.now(),
			}
			s.queue <- c.job // cannot block: the free-slot check above reserved it
			s.inflight[c.id] = c.job
			s.submitted.Add(1)
			s.cacheMisses.Add(1)
			c.queued = true
		}
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SimulationRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	req = req.normalize()
	// A peer already routed this job here; execute locally no matter
	// what the ring says, so forwarding can never loop.
	req.noForward = r.Header.Get(forwardedHeader) != ""
	wait := wantWait(r)
	cells := []cell{newCell(req)}

	s.mu.Lock()
	if rf := s.admitLocked(cells, !wait); rf != nil {
		s.mu.Unlock()
		if rf.code == http.StatusTooManyRequests {
			// The hint scales with the backlog a retrying client is behind.
			rf.retryAfter = 1 + len(s.queue)/s.cfg.Workers
			rf.msg = fmt.Sprintf("job queue full (%d queued)", s.cfg.QueueDepth)
		}
		rf.write(w)
		return
	}
	c := cells[0]
	if wait && !c.cached {
		s.waitLocked(w, r, c.job)
		return
	}
	st := statusLocked(c.job, c.cached)
	s.mu.Unlock()
	writeStatus(w, admittedCode(c.queued), st)
}

// admittedCode is the status of an admitted submission: 202 when it
// enqueued work, 200 when joins and caches answered all of it.
func admittedCode(queued bool) int {
	if queued {
		return http.StatusAccepted
	}
	return http.StatusOK
}

// waitLocked blocks until j reaches a terminal state or the client
// disconnects, then writes the outcome. Entered holding s.mu; releases
// it. A disconnecting waiter that was the job's last live interest
// cancels the job — its worker slot goes back to requests somebody
// still wants.
func (s *Server) waitLocked(w http.ResponseWriter, r *http.Request, j *job) {
	j.waiters++
	done := j.done
	s.mu.Unlock()
	select {
	case <-done:
		s.mu.Lock()
		j.waiters--
		st := statusLocked(j, false)
		s.mu.Unlock()
		code := http.StatusOK
		if j.state != jobDone {
			code = statusForTerminal(j.state)
		}
		writeStatus(w, code, st)
	case <-r.Context().Done():
		s.mu.Lock()
		j.waiters--
		abandoned := j.waiters == 0 && !j.asyncHold && !j.terminal()
		s.mu.Unlock()
		if abandoned {
			s.cancelJob(j.id)
		}
	}
}

func statusForTerminal(st jobState) int {
	switch st {
	case jobCancelled:
		return http.StatusConflict
	case jobFailed:
		return http.StatusInternalServerError
	}
	return http.StatusOK
}

func (s *Server) lookup(id string) *job {
	if j := s.inflight[id]; j != nil {
		return j
	}
	return s.finished.get(id)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.lookup(id)
	if j == nil {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if wantWait(r) && !j.terminal() {
		s.waitLocked(w, r, j)
		return
	}
	st := statusLocked(j, false)
	s.mu.Unlock()
	writeStatus(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.lookup(id)
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	s.cancelJob(id)
	s.mu.Lock()
	st := statusLocked(j, false)
	s.mu.Unlock()
	writeStatus(w, http.StatusOK, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.inflight)+s.finished.len())
	// Index view: states only, no results.
	for _, j := range s.inflight {
		out = append(out, statusLocked(j, false).JobStatus)
	}
	for _, el := range s.finished.entries {
		out = append(out, statusLocked(el.Value.(*job), false).JobStatus)
	}
	s.mu.Unlock()
	// Deterministic order for clients and tests.
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, s.reg, "sttllc")
}

// cancelJob cancels the identified job: a queued job is finalized
// immediately (its worker never picks it up), a running one has its
// context cancelled and is finalized by its worker at the simulator's
// next periodic check. Terminal jobs are left as they are.
func (s *Server) cancelJob(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.inflight[id]
	if j == nil {
		return
	}
	switch j.state {
	case jobQueued:
		j.state = jobCancelled
		j.errMsg = "cancelled before start"
		j.finished = s.now()
		delete(s.inflight, id)
		s.finished.put(j)
		s.cancelledN.Add(1)
		close(j.done)
		s.sweepJobChangedLocked(j)
	case jobRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// effectiveTimeout resolves a request's wall-time bound against the
// server's default and cap.
func (s *Server) effectiveTimeout(req SimulationRequest) time.Duration {
	if req.TimeoutMS > 0 {
		to := time.Duration(req.TimeoutMS) * time.Millisecond
		if to > s.cfg.MaxTimeout {
			to = s.cfg.MaxTimeout
		}
		return to
	}
	if s.cfg.DefaultTimeout < 0 {
		return 0
	}
	return s.cfg.DefaultTimeout
}

// worker runs queued jobs on one retained simulator (see simSlot).
func (s *Server) worker() {
	defer s.wg.Done()
	var slot simSlot
	for j := range s.queue {
		s.runJob(j, &slot)
	}
}

func (s *Server) runJob(j *job, slot *simSlot) {
	s.mu.Lock()
	if j.state != jobQueued {
		// Cancelled while queued; already finalized.
		s.mu.Unlock()
		return
	}
	j.state = jobRunning
	j.started = s.now()
	var ctx context.Context
	var cancel context.CancelFunc
	if to := s.effectiveTimeout(j.req); to > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), to)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	j.cancel = cancel
	s.sweepJobChangedLocked(j)
	s.mu.Unlock()

	s.running.Add(1)
	var res result
	var err error
	// Uploaded trace bytes live on this node, not on the ring: a
	// forwarded trace job would fail on a peer that never saw the
	// upload, so trace jobs always execute locally.
	if s.ring != nil && !j.req.noForward && j.req.Trace == "" && !s.ring.local(j.id) {
		// The ring placed this job on a peer: its cache and store are
		// the authority for this arc of the ID space. A dead or draining
		// owner is not a failure — the job runs here instead.
		res, err = s.forward(ctx, s.ring.owner(j.id), j.req)
		if err != nil {
			if ctx.Err() != nil {
				err = ctx.Err()
			} else {
				s.forwardFailover.Add(1)
				res, err = s.runGuarded(ctx, j.req, slot)
			}
		}
	} else {
		res, err = s.runGuarded(ctx, j.req, slot)
	}
	s.running.Add(-1)
	cancel()
	if err == nil {
		// Persist before publishing: a crash after this point loses no
		// completed work. Store IO happens outside s.mu.
		s.store.put(j.id, res.dump)
	}

	s.mu.Lock()
	delete(s.inflight, j.id)
	j.cancel = nil
	j.finished = s.now()
	switch {
	case err == nil:
		j.state = jobDone
		j.res = res
		s.completed.Add(1)
		if res.Cycles > 0 {
			s.simCycles.Add(uint64(res.Cycles))
		}
		s.simInstr.Add(res.Instructions)
	case errors.Is(err, context.Canceled):
		// Partial results never enter the cache; the job record does,
		// so pollers learn its fate.
		j.state = jobCancelled
		j.errMsg = "cancelled"
		s.cancelledN.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		j.state = jobFailed
		j.errMsg = "deadline exceeded"
		s.failed.Add(1)
	default:
		j.state = jobFailed
		j.errMsg = err.Error()
		s.failed.Add(1)
	}
	s.finished.put(j)
	close(j.done)
	s.sweepJobChangedLocked(j)
	s.mu.Unlock()
}

// runGuarded runs a job here and encodes its dump, shielding the worker
// pool from a panicking simulation (a violated invariant panics by
// design): the job fails, the worker and the daemon live on. A job that
// fails for any reason — a panic, a cancellation or deadline mid-run —
// also drops the worker's retained simulator, so no state it left
// behind can reach the next job.
func (s *Server) runGuarded(ctx context.Context, req SimulationRequest, slot *simSlot) (res result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = result{}, fmt.Errorf("simulation panicked: %v", v)
		}
		if err != nil {
			slot.sim = nil
		}
	}()
	var dump *sim.StatsDump
	if s.runFn != nil {
		dump, err = s.runFn(ctx, req)
	} else {
		dump, err = s.runSimulation(ctx, req, slot)
	}
	if err != nil {
		return result{}, err
	}
	return encodeResult(dump)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.drainingFlag.Load() }

// Shutdown drains the service: intake stops (submissions get 503,
// readyz flips), queued and running jobs run to completion, workers
// exit. If ctx expires first, every remaining job is cancelled — they
// stop at the simulator's next periodic check — the drain completes,
// and ctx's error is returned to signal the unclean (but still orderly)
// exit. Once the workers are gone the result store is closed, releasing
// its directory to a successor. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	// Both returns below follow the workers' exit. A failed close is
	// dropped like every other store error: persistence is best-effort,
	// and a lost result is re-simulated on demand.
	defer s.store.close()
	s.mu.Lock()
	if !s.drainingFlag.Swap(true) {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for _, j := range s.inflight {
		if j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}
