// Trace ingestion endpoints: the service accepts arbitrary external
// workloads as uploaded reference streams and replays them into any
// configuration.
//
//	POST /v1/traces        upload a trace (sttllc-trace/v1 NDJSON,
//	                       GPGPU-Sim-style log, or binary recording;
//	                       auto-detected). 201 with the trace's content
//	                       address; re-uploading the same content is a
//	                       200 dedup hit on the same ID.
//	GET  /v1/traces        list registered traces
//	GET  /v1/traces/{id}   one trace's metadata
//
// Trace IDs are content addresses (ingest.HashRecording), so a
// simulation request naming a trace is itself content-addressed: the
// same trace bytes simulated under the same configuration hit the
// result cache and the disk store exactly like builtin workloads.
// With a StoreDir, uploaded traces persist under <dir>/traces and are
// re-registered on restart.
package server

import (
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sttllc/internal/ingest"
	"sttllc/internal/trace"
)

// maxTraceBodyBytes bounds one trace upload. Traces are real payloads,
// not scalar requests, so the cap is far above maxBodyBytes.
const maxTraceBodyBytes = 32 << 20

// traceEntry is one registered trace. rec is immutable after
// registration; the bookkeeping fields are guarded by the Server mutex.
type traceEntry struct {
	rec       *trace.Recording
	uploaded  time.Time
	persisted bool
}

// TraceStatus is the wire form of one registered trace.
type TraceStatus struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Config   string `json:"config,omitempty"`
	Records  int    `json:"records"`
	Phases   int    `json:"phases"`
	EndCycle int64  `json:"end_cycle"`
	// Persisted marks a trace written through to the disk store; it
	// survives a restart.
	Persisted bool `json:"persisted,omitempty"`
	// Dedup marks an upload response answered by an already-registered
	// trace with the same content.
	Dedup bool `json:"dedup,omitempty"`
}

// traceStatusLocked snapshots e; the caller holds s.mu.
func traceStatusLocked(id string, e *traceEntry) TraceStatus {
	return TraceStatus{
		ID:        id,
		Workload:  e.rec.Workload,
		Config:    e.rec.Config,
		Records:   len(e.rec.Records),
		Phases:    len(e.rec.Phases),
		EndCycle:  e.rec.EndCycle,
		Persisted: e.persisted,
	}
}

// getTrace returns the identified trace's recording, or nil. Traces are
// never deleted, so a non-nil result stays valid without the lock.
func (s *Server) getTrace(id string) *trace.Recording {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.traces[id]; e != nil {
		return e.rec
	}
	return nil
}

func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	if s.drainingFlag.Load() {
		refuseDraining.write(w)
		return
	}
	q := r.URL.Query()
	opts := ingest.Options{Workload: q.Get("workload")}
	switch q.Get("fold_sm") {
	case "1", "true", "yes":
		opts.FoldSM = true
	}
	body := http.MaxBytesReader(w, r.Body, maxTraceBodyBytes)
	rec, err := ingest.Import(body, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "importing trace: %v", err)
		return
	}
	id := rec.WorkloadHash

	s.mu.Lock()
	if e := s.traces[id]; e != nil {
		// Content-addressed dedup: the registry already holds these exact
		// accesses, whatever syntax they arrived in this time.
		s.traceDedup.Add(1)
		st := traceStatusLocked(id, e)
		s.mu.Unlock()
		st.Dedup = true
		writeJSON(w, http.StatusOK, st)
		return
	}
	if len(s.traces) >= s.cfg.MaxTraces {
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests,
			"trace registry full (%d traces)", s.cfg.MaxTraces)
		return
	}
	e := &traceEntry{rec: rec, uploaded: time.Now()}
	s.traces[id] = e
	s.mu.Unlock()

	persisted, err := s.persistTrace(id, rec)
	s.mu.Lock()
	if err != nil {
		// A trace promised durable must be durable: drop the registration
		// and report the failure rather than serve a trace a restart
		// would lose.
		delete(s.traces, id)
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, "persisting trace: %v", err)
		return
	}
	e.persisted = persisted
	s.tracesUploaded.Add(1)
	st := traceStatusLocked(id, e)
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e := s.traces[id]
	if e == nil {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown trace %q", id)
		return
	}
	st := traceStatusLocked(id, e)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleTraceList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]TraceStatus, 0, len(s.traces))
	for id, e := range s.traces {
		out = append(out, traceStatusLocked(id, e))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	writeJSON(w, http.StatusOK, map[string]any{"traces": out})
}

// tracesDir roots persisted traces; "" when persistence is off.
func (s *Server) tracesDir() string {
	if s.cfg.StoreDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.StoreDir, "traces")
}

// persistTrace writes rec to the trace store via temp+rename, so a
// crash mid-write never leaves a half-trace behind a valid name.
// Reports whether the trace was persisted (false without a StoreDir).
func (s *Server) persistTrace(id string, rec *trace.Recording) (bool, error) {
	dir := s.tracesDir()
	if dir == "" {
		return false, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	tmp, err := os.CreateTemp(dir, "."+id+".tmp*")
	if err != nil {
		return false, err
	}
	defer os.Remove(tmp.Name())
	if err := trace.WriteRecording(tmp, rec); err != nil {
		tmp.Close()
		return false, err
	}
	if err := tmp.Close(); err != nil {
		return false, err
	}
	return true, os.Rename(tmp.Name(), filepath.Join(dir, id+".rec"))
}

// loadTraces re-registers persisted traces at boot. Each file is
// re-imported — which re-validates and re-hashes it — and a file whose
// content no longer matches its name is skipped, not served: a corrupt
// trace must not masquerade under a healthy content address.
func (s *Server) loadTraces() {
	dir := s.tracesDir()
	if dir == "" {
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return // no trace dir yet: nothing persisted
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".rec") {
			continue
		}
		id := strings.TrimSuffix(name, ".rec")
		if len(s.traces) >= s.cfg.MaxTraces {
			return
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		rec, err := ingest.Import(f, ingest.Options{})
		f.Close()
		if err != nil || rec.WorkloadHash != id {
			continue
		}
		s.traces[id] = &traceEntry{rec: rec, uploaded: time.Now(), persisted: true}
	}
}
