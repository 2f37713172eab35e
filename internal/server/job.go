package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/metrics"
	"sttllc/internal/sim"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

// jobState is one job's position in its lifecycle. Transitions only
// move forward: queued → running → one of the terminal states, or
// queued → cancelled directly when a DELETE lands before a worker picks
// the job up.
type jobState int

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobFailed
	jobCancelled
)

func (s jobState) String() string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	case jobFailed:
		return "failed"
	case jobCancelled:
		return "cancelled"
	}
	return "unknown"
}

// job is one deduplicated simulation: every identical request submitted
// while it is in flight shares it. All fields except done are guarded
// by the Server's mutex; done is closed exactly once, under that mutex,
// when the job reaches a terminal state.
type job struct {
	id  string // == SimulationRequest.Key()
	req SimulationRequest

	state  jobState
	res    result // set iff state == jobDone
	errMsg string // set for jobFailed/jobCancelled

	done   chan struct{}
	cancel context.CancelFunc // non-nil while running

	// Interest accounting for client-disconnect cancellation. An async
	// submission (fire-and-forget POST) pins the job: it must complete
	// even with nobody connected. Synchronous interest is the count of
	// live ?wait=true connections; when the last one disconnects and
	// nothing pins the job, the run is cancelled to free its worker
	// slot for requests somebody still wants.
	asyncHold bool
	waiters   int

	submitted time.Time
	started   time.Time
	finished  time.Time
}

func (j *job) terminal() bool {
	return j.state == jobDone || j.state == jobFailed || j.state == jobCancelled
}

// result is a completed job's dump in the one form the server keeps:
// the compact JSON that json.Marshal writes for the sim.StatsDump,
// encoded or validated once, plus the scalars the server reads without
// decoding it. The job LRU and the disk store hold these bytes, and
// responses splice them in (see writeStatus).
type result struct {
	dump []byte
	summary
}

// summary is the part of a dump the server itself reads: sweep events
// carry IPC and cycles, and the simulated-work counters add cycles and
// instructions.
type summary struct {
	Cycles       int64   `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`
}

// encodeResult encodes a dump this process computed.
func encodeResult(d *sim.StatsDump) (result, error) {
	b, err := d.AppendJSON(nil)
	if err != nil {
		return result{}, fmt.Errorf("encoding result: %w", err)
	}
	return result{b, summary{d.Cycles, d.Instructions, d.IPC}}, nil
}

// decodeResult validates dump bytes that enter from outside the
// process — a v1 store file, a peer's reply — by decoding them as a
// sim.StatsDump, and returns them compacted. This is the only place a
// dump is decoded.
func decodeResult(b []byte) (result, error) {
	b = bytes.TrimSpace(b)
	if len(b) == 0 || b[0] != '{' {
		return result{}, errors.New("result is not a JSON object")
	}
	var d sim.StatsDump
	if err := json.Unmarshal(b, &d); err != nil {
		return result{}, err
	}
	var buf bytes.Buffer
	json.Compact(&buf, b) // cannot fail: Unmarshal has just parsed b
	return result{buf.Bytes(), summary{d.Cycles, d.Instructions, d.IPC}}, nil
}

// readSummary reads the scalars of a dump the store holds. The bytes
// were encoded or validated when they entered the process, and the
// scalars lead every encoded dump, so this stops after a few tokens
// instead of decoding the counters. Any syntax error on the way is
// returned; keys it never reaches are not checked.
func readSummary(b []byte) (summary, error) {
	var s summary
	dec := json.NewDecoder(bytes.NewReader(b))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return s, errors.New("result is not a JSON object")
	}
	for found := 0; found < 3 && dec.More(); {
		key, err := dec.Token()
		if err != nil {
			return s, err
		}
		dst, want := any(new(json.RawMessage)), true
		switch key {
		case "cycles":
			dst = &s.Cycles
		case "instructions":
			dst = &s.Instructions
		case "ipc":
			dst = &s.IPC
		default:
			want = false
		}
		if err := dec.Decode(dst); err != nil {
			return s, err
		}
		if want {
			found++
		}
	}
	return s, nil
}

// workload materializes a request's execution-driven workload — its
// benchmark as a one-kernel application, the named catalog application,
// or a fresh deterministic draw from the inline generator spec — with
// the scale and warp overrides applied to every kernel as sttsim applies
// them. The replay path records its first kernel, so it records exactly
// the stream the full run would generate. Every source was validated
// before enqueue, so failure here is a server bug.
func (r SimulationRequest) workload() workloads.App {
	var app workloads.App
	switch {
	case r.Bench != "":
		spec, ok := workloads.ByName(r.Bench)
		if !ok {
			panic("server: job with unknown benchmark " + r.Bench)
		}
		app = workloads.Single(spec)
	case r.Gen != nil:
		var err error
		if app, err = r.Gen.App(); err != nil {
			panic("server: job with invalid generator spec: " + err.Error())
		}
	default:
		var ok bool
		if app, ok = workloads.AppByName(r.App); !ok {
			panic("server: job with unknown application " + r.App)
		}
	}
	for i := range app.Kernels {
		if r.Scale > 0 && r.Scale != 1.0 {
			app.Kernels[i] = app.Kernels[i].Scale(r.Scale)
		}
		if r.Warps > 0 {
			app.Kernels[i].WarpsPerSM = r.Warps
		}
	}
	return app
}

// simSlot is a worker's retained simulator. Gen, app and bench jobs
// Reset it rather than build a new one, so a worker pays the
// simulator's construction once; replays build their own bank-only
// simulators. nil until the first such job, and again after a failed
// one (see runGuarded).
type simSlot struct{ sim *sim.Simulator }

// reset returns the slot's simulator rebuilt for app on cfg.
func (w *simSlot) reset(cfg config.GPUConfig, app workloads.App, opts sim.Options) *sim.Simulator {
	if w.sim == nil {
		w.sim = new(sim.Simulator)
	}
	w.sim.Reset(cfg, app, opts)
	return w.sim
}

// runSimulation executes one job on the worker's slot. Trace and replay
// jobs replay a recording into the requested configuration: the
// uploaded trace, exactly the pass `stttrace -replay` makes, or the
// benchmark's reference stream, recorded once under the canonical
// baseline configuration and shared through s.recordings, so N
// configurations of one workload cost one full simulation plus N cheap
// bank passes. Everything else — catalog workloads and generated specs
// alike — runs exactly the way cmd/sttsim does: same spec scaling, same
// option wiring, an enabled metrics registry, so the dump is
// byte-identical to `sttsim -stats-json` for the same parameters.
// Cancellation stops a run at the simulator's next periodic check; the
// partial result is discarded (partial dumps must never enter the
// cache).
func (s *Server) runSimulation(ctx context.Context, req SimulationRequest, slot *simSlot) (*sim.StatsDump, error) {
	cfg, err := req.gpuConfig()
	if err != nil {
		// validate() runs before enqueue; reaching this is a server bug.
		panic("server: job with invalid config: " + err.Error())
	}
	var rec *trace.Recording
	switch {
	case req.Trace != "":
		// Registered at admission; the registry never deletes.
		if rec = s.getTrace(req.Trace); rec == nil {
			return nil, fmt.Errorf("unknown trace %q", req.Trace)
		}
		s.traceJobs.Add(1)
	case req.Replay:
		opts := sim.Options{MaxCycles: req.MaxCycles, WarmupInstructions: req.Warmup}
		if rec, err = s.recordings.Get(ctx, config.BaselineSRAM(), req.workload(), opts); err != nil {
			return nil, err
		}
		s.replayJobs.Add(1)
	}
	if rec != nil {
		d := sim.ReplayMany(rec, []config.GPUConfig{cfg})[0].Dump()
		return &d, nil
	}
	if req.Gen != nil {
		s.genJobs.Add(1)
	}
	reg := metrics.NewRegistry(true)
	opts := sim.Options{MaxCycles: req.MaxCycles, WarmupInstructions: req.Warmup, Metrics: reg}
	r, err := slot.reset(cfg, req.workload(), opts).RunContext(ctx)
	if err != nil {
		return nil, err
	}
	d := sim.DumpStats(r, reg)
	return &d, nil
}
