// Request schema and canonicalization for the simulation service. A
// SimulationRequest mirrors the knobs of `sttsim`: one configuration,
// one benchmark or application, the scale/warps/cycle-budget overrides.
// Requests are content-addressed — two requests asking for the same
// simulation canonicalize to the same key regardless of JSON field
// order, defaulted fields, or per-request timeouts — which is what the
// result cache and the singleflight dedup key on.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"sttllc/internal/config"
	"sttllc/internal/workloads"
	"sttllc/internal/workloads/gen"
)

// SimulationRequest is the body of POST /v1/simulations.
type SimulationRequest struct {
	// Config names a GPU configuration: any name in config.Extended()
	// (baseline-SRAM, baseline-STT, C1, C2, C3, C1-L3, C2-L3, C4).
	Config string `json:"config"`
	// Bench names one benchmark; App names one multi-kernel
	// application; Trace names an uploaded trace by its content address
	// (POST /v1/traces); Gen carries an inline parametric workload spec
	// sampled at run time. Exactly one of the four must be set.
	Bench string       `json:"bench,omitempty"`
	App   string       `json:"app,omitempty"`
	Trace string       `json:"trace,omitempty"`
	Gen   *gen.AppSpec `json:"gen,omitempty"`
	// Scale multiplies per-warp instruction counts (0 or 1 = paper
	// scale).
	Scale float64 `json:"scale,omitempty"`
	// Warps overrides warp jobs per SM (0 = benchmark default).
	Warps int `json:"warps,omitempty"`
	// MaxCycles aborts the run after this many cycles (0 = none).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Warmup runs this many instructions before statistics start (0 =
	// none). For an application or generated workload the budget counts
	// across kernel boundaries from its start, as sttsim's -warmup does.
	Warmup uint64 `json:"warmup,omitempty"`
	// L3KB stacks an STT-MRAM L3 tier of this capacity (KB across all
	// banks) behind the named configuration's L2 (0 = the configuration's
	// own hierarchy, which may itself include an L3 for the *-L3 names).
	L3KB int `json:"l3_kb,omitempty"`
	// L3Ways sets the L3 associativity (0 = the default 8); only
	// meaningful with L3KB.
	L3Ways int `json:"l3_ways,omitempty"`
	// L3Variant picks the L3 cell flavor: "read-tuned" (default) or
	// "write-tuned"; only meaningful with L3KB.
	L3Variant string `json:"l3_variant,omitempty"`
	// DRAMBanks and DRAMRowBytes override each bank's memory channel
	// geometry (0 = the paper's 8 banks / 2KB rows).
	DRAMBanks    int `json:"dram_banks,omitempty"`
	DRAMRowBytes int `json:"dram_row_bytes,omitempty"`
	// TimeoutMS bounds the run's wall time. It is an execution limit,
	// not part of the simulation: it is excluded from the cache key,
	// and the server clamps it to its configured maximum. 0 means the
	// server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Replay opts the job into trace-driven evaluation (benchmarks
	// only): the benchmark's L2 reference stream is recorded once under
	// the canonical baseline configuration — shared across every replay
	// job naming the same workload content — and replayed into the
	// requested configuration. Replay dumps carry bank and power
	// statistics only (no SMs run, so IPC is zero) and are trace-driven
	// approximations of a full run (DESIGN.md §13). Off by default;
	// default jobs keep their execution-driven, CLI-identical semantics
	// and their historical cache keys.
	Replay bool `json:"replay,omitempty"`
	// Adaptive enables the C4 online reconfiguration controller on the
	// named configuration's two-part L2 (execution-driven runs only).
	// Off by default, so legacy requests keep their historical cache
	// keys; naming the C4 configuration enables it without this knob.
	Adaptive bool `json:"adaptive,omitempty"`
	// AdaptiveEpochCycles overrides the controller's sampling period
	// (0 = the default epoch); only meaningful with Adaptive.
	AdaptiveEpochCycles int64 `json:"adaptive_epoch_cycles,omitempty"`

	// noForward pins execution to this node even when the consistent-
	// hash ring places the job on a peer. Set for requests that arrive
	// with the forwarded marker (loop prevention). Unexported and
	// unserialized: it is routing state, not simulation identity, so it
	// can never perturb the content address.
	noForward bool
}

// normalize maps every equivalent request onto one canonical form: the
// defaulted scale spellings collapse (0, 1.0 → 1). The execution
// timeout stays, for the job runner to apply; Key drops it, since it
// cannot change a completed run's result.
func (r SimulationRequest) normalize() SimulationRequest {
	if r.Scale <= 0 || r.Scale == 1.0 {
		r.Scale = 1
	}
	if r.Warps < 0 {
		r.Warps = 0
	}
	// Hierarchy and DRAM overrides: spellings of the default collapse to
	// the zero field, so requests that predate these knobs keep their
	// historical cache keys.
	if r.L3KB == 0 {
		r.L3Ways = 0
		r.L3Variant = ""
	} else {
		if r.L3Ways == config.BaseL2Ways {
			r.L3Ways = 0
		}
		if r.L3Variant == string(config.CellReadTuned) {
			r.L3Variant = ""
		}
	}
	if r.DRAMBanks == 8 {
		r.DRAMBanks = 0
	}
	if r.DRAMRowBytes == 2048 {
		r.DRAMRowBytes = 0
	}
	// Adaptive knobs: the epoch override is only meaningful when the
	// knob is on, and the default epoch spelled out collapses to the
	// zero field, so pre-C4 requests keep their historical cache keys.
	if !r.Adaptive {
		r.AdaptiveEpochCycles = 0
	} else if r.AdaptiveEpochCycles == config.DefaultAdaptiveEpochCycles {
		r.AdaptiveEpochCycles = 0
	}
	return r
}

// gpuConfig resolves the named configuration and applies the request's
// hierarchy and DRAM overrides, validating the result. This is the one
// place a request becomes a concrete GPUConfig, so the job runner and
// the request validator cannot disagree about what will run.
func (r SimulationRequest) gpuConfig() (config.GPUConfig, error) {
	g, ok := config.ByName(r.Config)
	if !ok {
		return config.GPUConfig{}, fmt.Errorf("unknown config %q", r.Config)
	}
	if r.L3KB > 0 {
		v := config.CellVariant(r.L3Variant)
		if v == "" {
			v = config.CellReadTuned
		}
		g = config.WithL3(g, r.L3KB<<10, r.L3Ways, v)
	}
	if r.DRAMBanks > 0 {
		g.DRAM.Banks = r.DRAMBanks
	}
	if r.DRAMRowBytes > 0 {
		g.DRAM.RowBytes = r.DRAMRowBytes
	}
	if r.Adaptive {
		g.Adaptive.Enabled = true
		if r.AdaptiveEpochCycles > 0 {
			g.Adaptive.EpochCycles = r.AdaptiveEpochCycles
		}
	}
	if err := g.Validate(); err != nil {
		return config.GPUConfig{}, err
	}
	return g, nil
}

// validate rejects requests that name unknown configurations or
// workloads, or that name both (or neither) of bench and app.
func (r SimulationRequest) validate() error {
	if r.Config == "" {
		return fmt.Errorf("missing config")
	}
	if r.L3KB < 0 || r.L3Ways < 0 {
		return fmt.Errorf("l3_kb and l3_ways must be >= 0")
	}
	if r.DRAMBanks < 0 || r.DRAMRowBytes < 0 {
		return fmt.Errorf("dram_banks and dram_row_bytes must be >= 0")
	}
	if r.AdaptiveEpochCycles < 0 {
		return fmt.Errorf("adaptive_epoch_cycles must be >= 0")
	}
	g, err := r.gpuConfig()
	if err != nil {
		return err
	}
	if r.Replay && g.Adaptive.Enabled {
		// The controller rides the execution-driven event engine; a
		// replay would silently run unadapted, so reject it instead.
		return fmt.Errorf("replay does not support adaptive reconfiguration")
	}
	sources := 0
	for _, set := range []bool{r.Bench != "", r.App != "", r.Trace != "", r.Gen != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("exactly one of bench, app, trace, or gen is required")
	}
	switch {
	case r.Bench != "":
		if _, ok := workloads.ByName(r.Bench); !ok {
			return fmt.Errorf("unknown benchmark %q", r.Bench)
		}
	case r.App != "":
		if _, ok := workloads.AppByName(r.App); !ok {
			return fmt.Errorf("unknown application %q", r.App)
		}
	case r.Gen != nil:
		if err := r.Gen.Validate(); err != nil {
			return fmt.Errorf("invalid generator spec: %w", err)
		}
	default: // Trace
		// Whether the trace exists is server state, checked at submission.
		// Statically, reject the knobs that have no meaning on a replayed
		// stream: no SMs run, so execution shaping cannot apply.
		switch {
		case r.Scale != 0 && r.Scale != 1:
			return fmt.Errorf("scale does not apply to trace jobs")
		case r.Warps != 0:
			return fmt.Errorf("warps does not apply to trace jobs")
		case r.Warmup != 0:
			return fmt.Errorf("warmup does not apply to trace jobs")
		case r.MaxCycles != 0:
			return fmt.Errorf("max_cycles does not apply to trace jobs")
		case r.Replay:
			return fmt.Errorf("trace jobs are already trace-driven; replay does not apply")
		case g.Adaptive.Enabled:
			return fmt.Errorf("trace replay does not support adaptive reconfiguration")
		}
	}
	if r.Replay && (r.App != "" || r.Gen != nil) {
		return fmt.Errorf("replay supports benchmarks only")
	}
	if r.Scale < 0 {
		return fmt.Errorf("scale must be >= 0")
	}
	if r.MaxCycles < 0 {
		return fmt.Errorf("max_cycles must be >= 0")
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0")
	}
	return nil
}

// genName labels a generated workload the way gen.AppSpec.App names
// it: family name (default "gen") plus member index.
func genName(g *gen.AppSpec) string {
	name := g.Name
	if name == "" {
		name = "gen"
	}
	return fmt.Sprintf("%s-%d", name, g.Index)
}

// workloadLabel names the request's workload source for listings,
// sweep cells, and error messages.
func (r SimulationRequest) workloadLabel() string {
	switch {
	case r.Bench != "":
		return r.Bench
	case r.App != "":
		return r.App
	case r.Trace != "":
		return "trace:" + r.Trace
	case r.Gen != nil:
		return genName(r.Gen)
	}
	return ""
}

// Key returns the request's content address: the hex SHA-256 of the
// canonical JSON encoding of the normalized request. Struct fields
// marshal in declaration order, so the encoding — and therefore the
// key — is deterministic. The key doubles as the job ID, which is what
// makes identical requests observably converge on one job.
func (r SimulationRequest) Key() string {
	n := r.normalize()
	n.TimeoutMS = 0
	b, err := json.Marshal(n)
	if err != nil {
		// A struct of scalars cannot fail to marshal.
		panic(fmt.Sprintf("server: canonicalizing request: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}
