// Batched sweeps: one POST /v1/sweeps names a configuration × workload
// grid and the server expands it into content-addressed child jobs.
// Children are ordinary jobs — they dedup against in-flight singles,
// hit the memory LRU and the disk store, and (in replay mode) share
// one reference-stream recording per workload through the
// sim.RecordingCache — so a sweep is exactly as cheap as the fabric
// can make it, and its per-job dumps are byte-identical to what the
// same specs return through POST /v1/simulations.
//
//	POST   /v1/sweeps              submit a grid (202; 200 if it queued nothing)
//	GET    /v1/sweeps              list sweeps
//	GET    /v1/sweeps/{id}         sweep status (?wait=true blocks)
//	GET    /v1/sweeps/{id}/events  NDJSON progress stream (see stream.go)
//	DELETE /v1/sweeps/{id}         cancel every outstanding child
//
// Admission is all-or-nothing and goes through admitLocked, the same
// path as a single submission: the whole grid is refused (429, or 503
// while draining) when the children that need queue slots cannot have
// them, so a half-admitted grid never wedges the fabric.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"sttllc/internal/workloads/gen"
)

// maxSweepJobs bounds one sweep's grid; beyond it the request is
// rejected outright rather than expanded.
const maxSweepJobs = 1024

// maxFinishedSweeps bounds how many terminal sweeps stay queryable.
const maxFinishedSweeps = 64

// SweepRequest is the body of POST /v1/sweeps: a grid of configurations
// × workloads plus shared per-job knobs. Every (config, workload) cell
// becomes one child SimulationRequest.
type SweepRequest struct {
	// Configs lists the configuration axis. Each entry is either a bare
	// configuration name ("C2") or an object carrying hierarchy/DRAM
	// overrides ({"config":"C2","l3_kb":1536}).
	Configs []SweepConfig `json:"configs"`
	// Benches, Apps, Traces, and Gen list the workload axis; at least
	// one must be non-empty. Traces name uploaded traces by content
	// address; Gen expands to Count generated family members, each an
	// independent deterministic draw from the spec.
	Benches []string        `json:"benches,omitempty"`
	Apps    []string        `json:"apps,omitempty"`
	Traces  []string        `json:"traces,omitempty"`
	Gen     *gen.FamilySpec `json:"gen,omitempty"`
	// Shared child-job knobs, applied to every cell (same semantics as
	// the SimulationRequest fields of the same names).
	Scale     float64 `json:"scale,omitempty"`
	Warps     int     `json:"warps,omitempty"`
	MaxCycles int64   `json:"max_cycles,omitempty"`
	Warmup    uint64  `json:"warmup,omitempty"`
	Replay    bool    `json:"replay,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

// SweepConfig is one point on the configuration axis.
type SweepConfig struct {
	Config       string `json:"config"`
	L3KB         int    `json:"l3_kb,omitempty"`
	L3Ways       int    `json:"l3_ways,omitempty"`
	L3Variant    string `json:"l3_variant,omitempty"`
	DRAMBanks    int    `json:"dram_banks,omitempty"`
	DRAMRowBytes int    `json:"dram_row_bytes,omitempty"`
}

// UnmarshalJSON accepts either a bare config-name string or the full
// object form. The object form rejects unknown fields itself, because
// the request decoder's DisallowUnknownFields does not reach into
// custom unmarshalers.
func (c *SweepConfig) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		return json.Unmarshal(b, &c.Config)
	}
	type bare SweepConfig // no methods: avoids unmarshal recursion
	var v bare
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return err
	}
	*c = SweepConfig(v)
	return nil
}

// workloadCells is the size of the workload axis: named benchmarks and
// applications, uploaded traces, and generated family members.
func (r SweepRequest) workloadCells() int {
	n := len(r.Benches) + len(r.Apps) + len(r.Traces)
	if r.Gen != nil {
		n += r.Gen.Count
	}
	return n
}

// expand materializes the grid as canonical child requests,
// configuration-major so the order is deterministic and documented;
// within one configuration the workload order is benches, apps,
// traces, generated members.
func (r SweepRequest) expand() []SimulationRequest {
	out := make([]SimulationRequest, 0, len(r.Configs)*r.workloadCells())
	for _, c := range r.Configs {
		base := SimulationRequest{
			Config:       c.Config,
			L3KB:         c.L3KB,
			L3Ways:       c.L3Ways,
			L3Variant:    c.L3Variant,
			DRAMBanks:    c.DRAMBanks,
			DRAMRowBytes: c.DRAMRowBytes,
			Scale:        r.Scale,
			Warps:        r.Warps,
			MaxCycles:    r.MaxCycles,
			Warmup:       r.Warmup,
			Replay:       r.Replay,
			TimeoutMS:    r.TimeoutMS,
		}
		for _, b := range r.Benches {
			cr := base
			cr.Bench = b
			out = append(out, cr.normalize())
		}
		for _, a := range r.Apps {
			cr := base
			cr.App = a
			out = append(out, cr.normalize())
		}
		for _, t := range r.Traces {
			cr := base
			cr.Trace = t
			out = append(out, cr.normalize())
		}
		if r.Gen != nil {
			for i := 0; i < r.Gen.Count; i++ {
				cr := base
				member := r.Gen.Member(i)
				cr.Gen = &member
				out = append(out, cr.normalize())
			}
		}
	}
	return out
}

// validate rejects malformed grids; each cell is checked with the
// single-request validator so a sweep can never admit a job a direct
// POST would refuse. Duplicate cells are rejected — they would be two
// sweep children sharing one job, which makes progress accounting lie.
func (r SweepRequest) validate() ([]SimulationRequest, error) {
	if len(r.Configs) == 0 {
		return nil, fmt.Errorf("configs must name at least one configuration")
	}
	if r.Gen != nil {
		// Family bounds are checked before the grid is sized: Count is
		// part of the cell arithmetic below.
		if err := r.Gen.Validate(); err != nil {
			return nil, fmt.Errorf("invalid generator spec: %w", err)
		}
	}
	if r.workloadCells() == 0 {
		return nil, fmt.Errorf("at least one of benches, apps, traces, or gen is required")
	}
	if n := len(r.Configs) * r.workloadCells(); n > maxSweepJobs {
		return nil, fmt.Errorf("grid of %d jobs exceeds the per-sweep limit of %d", n, maxSweepJobs)
	}
	children := r.expand()
	seen := make(map[string]int, len(children))
	for i, cr := range children {
		if err := cr.validate(); err != nil {
			return nil, fmt.Errorf("grid cell %d (%s × %s): %v", i, cr.Config, cr.workloadLabel(), err)
		}
		k := cr.Key()
		if prev, dup := seen[k]; dup {
			return nil, fmt.Errorf("grid cells %d and %d are identical", prev, i)
		}
		seen[k] = i
	}
	return children, nil
}

// sweepKey is the sweep's content address: the hash of its ordered
// child-job content addresses. Two sweeps asking for the same grid in
// the same order converge on one ID (and, while one is live, on one
// sweep).
func sweepKey(children []SimulationRequest) string {
	h := sha256.New()
	for _, cr := range children {
		fmt.Fprintf(h, "%s\n", cr.Key())
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// sweepState is a sweep's lifecycle position. A sweep is terminal once
// every child is; the terminal flavor reports the worst child outcome
// (failed > cancelled > done).
type sweepState int

const (
	sweepRunning sweepState = iota
	sweepDone
	sweepFailed
	sweepCancelled
)

func (s sweepState) String() string {
	switch s {
	case sweepRunning:
		return "running"
	case sweepDone:
		return "done"
	case sweepFailed:
		return "failed"
	case sweepCancelled:
		return "cancelled"
	}
	return "unknown"
}

// sweep tracks one submitted grid. All fields are guarded by the
// Server's mutex; notify is replaced (old channel closed) on every
// event append, which is how streamers and waiters learn of progress.
type sweep struct {
	id    string
	state sweepState
	// total is the grid size, fixed at submission — children fills up to
	// it as the submit handler records each admitted cell, so event
	// stamping and the finish check use total, not len(children).
	total    int
	children []*sweepChild
	byJob    map[string]*sweepChild

	done, failed, cancelled, cached int

	events []SweepEvent
	notify chan struct{}

	submitted, finished time.Time
}

// sweepChild is one grid cell's record. It mirrors the child job's
// state at the last notification; the job itself may already have been
// evicted from the LRU by the time a client asks.
type sweepChild struct {
	jobID  string
	config string
	bench  string
	app    string
	trace  string
	gen    string // generated member name, e.g. "mix-3"
	state  jobState
	cached bool
	errMsg string
}

func (sw *sweep) terminal() bool { return sw.state != sweepRunning }

func (sw *sweep) terminalChildren() int { return sw.done + sw.failed + sw.cancelled }

// SweepStatus is the wire form of one sweep.
type SweepStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Total     int    `json:"total"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	Cancelled int    `json:"cancelled"`
	// Cached counts children answered from the memory LRU or the disk
	// store instead of a run performed for this sweep.
	Cached int              `json:"cached"`
	Jobs   []SweepJobStatus `json:"jobs,omitempty"`
}

// SweepJobStatus is one grid cell in a SweepStatus. Results are not
// inlined — fetch them per job at /v1/simulations/{job_id}.
type SweepJobStatus struct {
	JobID  string `json:"job_id"`
	Config string `json:"config"`
	Bench  string `json:"bench,omitempty"`
	App    string `json:"app,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Gen    string `json:"gen,omitempty"`
	State  string `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// sweepStatusLocked snapshots sw; the caller holds s.mu.
func sweepStatusLocked(sw *sweep, withJobs bool) SweepStatus {
	st := SweepStatus{
		ID:        sw.id,
		State:     sw.state.String(),
		Total:     sw.total,
		Done:      sw.done,
		Failed:    sw.failed,
		Cancelled: sw.cancelled,
		Cached:    sw.cached,
	}
	if withJobs {
		st.Jobs = make([]SweepJobStatus, len(sw.children))
		for i, c := range sw.children {
			st.Jobs[i] = SweepJobStatus{
				JobID:  c.jobID,
				Config: c.config,
				Bench:  c.bench,
				App:    c.app,
				Trace:  c.trace,
				Gen:    c.gen,
				State:  c.state.String(),
				Cached: c.cached,
				Error:  c.errMsg,
			}
		}
	}
	return st
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding sweep: %v", err)
		return
	}
	children, err := req.validate()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid sweep: %v", err)
		return
	}
	id := sweepKey(children)
	noForward := r.Header.Get(forwardedHeader) != ""
	cells := make([]cell, len(children))
	for i, cr := range children {
		cr.noForward = noForward
		cells[i] = newCell(cr)
	}

	s.mu.Lock()
	if sw := s.sweeps[id]; sw != nil && !sw.terminal() {
		// An identical grid is already in flight: join it. Its children
		// are the same content-addressed jobs this expansion would make.
		s.sweepJoins.Add(1)
		st := sweepStatusLocked(sw, true)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
		return
	}
	if rf := s.admitLocked(cells, true); rf != nil {
		s.mu.Unlock()
		if rf.code == http.StatusTooManyRequests {
			rf.retryAfter = 1 + rf.needed/s.cfg.Workers
			rf.msg = fmt.Sprintf("sweep needs %d queue slots, %d free", rf.needed, rf.free)
		}
		rf.write(w)
		return
	}

	sw := &sweep{
		id:        id,
		state:     sweepRunning,
		total:     len(cells),
		byJob:     make(map[string]*sweepChild, len(cells)),
		notify:    make(chan struct{}),
		submitted: time.Now(),
	}
	s.sweeps[id] = sw
	s.sweepsSubmitted.Add(1)
	s.sweepChildrenN.Add(uint64(len(cells)))
	s.appendSweepEventLocked(sw, SweepEvent{Type: evSweepStarted})
	queued := false
	for _, c := range cells {
		child := &sweepChild{
			jobID: c.id, config: c.req.Config, bench: c.req.Bench, app: c.req.App, trace: c.req.Trace,
			state: c.job.state, cached: c.cached,
		}
		if c.req.Gen != nil {
			child.gen = genName(c.req.Gen)
		}
		sw.children = append(sw.children, child)
		sw.byJob[c.id] = child
		if c.job.terminal() {
			sw.recordTerminalLocked(child, c.job)
		} else {
			s.watchJobLocked(c.id, sw)
		}
		queued = queued || c.queued
		s.appendSweepEventLocked(sw, jobUpdateEvent(child, c.job))
	}
	s.maybeFinishSweepLocked(sw)
	st := sweepStatusLocked(sw, true)
	s.mu.Unlock()
	writeJSON(w, admittedCode(queued), st)
}

// jobUpdateEvent is the job_update event for child after it mirrored
// j; a done cell carries its IPC and cycles.
func jobUpdateEvent(child *sweepChild, j *job) SweepEvent {
	ev := SweepEvent{
		Type: evJobUpdate, JobID: child.jobID,
		Config: child.config, Bench: child.bench, App: child.app,
		Trace: child.trace, Gen: child.gen,
		State: child.state.String(), Cached: child.cached,
		Error: child.errMsg,
	}
	if child.state == jobDone {
		ev.IPC, ev.Cycles = j.res.IPC, j.res.Cycles
	}
	return ev
}

// watchJobLocked subscribes sw to jobID's state changes. Caller holds
// s.mu.
func (s *Server) watchJobLocked(jobID string, sw *sweep) {
	m := s.watch[jobID]
	if m == nil {
		m = make(map[*sweep]bool, 1)
		s.watch[jobID] = m
	}
	m[sw] = true
}

// sweepJobChangedLocked fans a job state change out to every sweep
// watching it. Called under s.mu at each job transition (queued →
// running, and into any terminal state).
func (s *Server) sweepJobChangedLocked(j *job) {
	watchers := s.watch[j.id]
	if len(watchers) == 0 {
		return
	}
	for sw := range watchers {
		child := sw.byJob[j.id]
		if child == nil || child.state == j.state || terminalState(child.state) {
			continue
		}
		if terminalState(j.state) {
			sw.recordTerminalLocked(child, j)
		} else {
			child.state = j.state
		}
		s.appendSweepEventLocked(sw, jobUpdateEvent(child, j))
		s.maybeFinishSweepLocked(sw)
	}
	if terminalState(j.state) {
		delete(s.watch, j.id)
	}
}

func terminalState(st jobState) bool {
	return st == jobDone || st == jobFailed || st == jobCancelled
}

// recordTerminalLocked folds a terminal job into a child cell and the
// sweep's counters. Caller holds s.mu.
func (sw *sweep) recordTerminalLocked(child *sweepChild, j *job) {
	child.state = j.state
	child.errMsg = j.errMsg
	switch j.state {
	case jobDone:
		sw.done++
		if child.cached {
			sw.cached++
		}
	case jobFailed:
		sw.failed++
	case jobCancelled:
		sw.cancelled++
	}
}

// maybeFinishSweepLocked finalizes sw once every child is terminal:
// terminal state, sweep_done event, finished-sweep bookkeeping. Caller
// holds s.mu.
func (s *Server) maybeFinishSweepLocked(sw *sweep) {
	if sw.terminal() || sw.terminalChildren() < sw.total {
		return
	}
	switch {
	case sw.failed > 0:
		sw.state = sweepFailed
		s.sweepsFailed.Add(1)
	case sw.cancelled > 0:
		sw.state = sweepCancelled
		s.sweepsCancelled.Add(1)
	default:
		sw.state = sweepDone
		s.sweepsCompleted.Add(1)
	}
	sw.finished = time.Now()
	s.appendSweepEventLocked(sw, SweepEvent{
		Type: evSweepDone, State: sw.state.String(),
	})
	s.finishedSweeps = append(s.finishedSweeps, sw.id)
	for len(s.finishedSweeps) > maxFinishedSweeps {
		oldest := s.finishedSweeps[0]
		s.finishedSweeps = s.finishedSweeps[1:]
		// Only evict the object we enqueued: a live resubmission may
		// have replaced a terminal sweep under the same ID.
		if old := s.sweeps[oldest]; old != nil && old.terminal() {
			delete(s.sweeps, oldest)
		}
	}
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sw := s.sweeps[id]
	if sw == nil {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	if wantWait(r) {
		for !sw.terminal() {
			ch := sw.notify
			s.mu.Unlock()
			select {
			case <-ch:
			case <-r.Context().Done():
				return
			}
			s.mu.Lock()
		}
	}
	st := sweepStatusLocked(sw, true)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSweepList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]SweepStatus, 0, len(s.sweeps))
	for _, sw := range s.sweeps {
		out = append(out, sweepStatusLocked(sw, false))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": out})
}

// handleSweepCancel cancels every outstanding child of the sweep. A
// child shared with another live sweep (or a direct submission) is
// cancelled for everyone — job identity is content-addressed, there is
// only one run to stop.
func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sw := s.sweeps[id]
	if sw == nil {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	var pending []string
	for _, c := range sw.children {
		if !terminalState(c.state) {
			pending = append(pending, c.jobID)
		}
	}
	s.mu.Unlock()

	// cancelJob takes s.mu itself; each cancellation notifies the sweep
	// through the normal watch path, and the last one finalizes it.
	for _, jid := range pending {
		s.cancelJob(jid)
	}

	s.mu.Lock()
	st := sweepStatusLocked(sw, true)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}
