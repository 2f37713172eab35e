// Recording: run a workload once while capturing its L2-side reference
// stream as a trace.Recording — the record-once half of the
// record-once/replay-many sweep idiom (the GPGPU-Sim/Accel-Sim
// trace-driven flow). The recording carries the workload's content hash
// (so caches can share it across jobs), the warmup boundary, the final
// cycle, and — for applications — one phase marker per kernel launch.
package sim

import (
	"context"

	"sttllc/internal/config"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

// Record runs one benchmark on one configuration while capturing its L2
// reference stream, returning the live Result alongside the Recording.
// The Result is exactly what New(cfg, spec, opts).Run() would have
// produced; recording does not perturb the simulation.
func Record(cfg config.GPUConfig, spec workloads.Spec, opts Options) (Result, *trace.Recording) {
	r, rec, _ := RecordContext(context.Background(), cfg, spec, opts)
	return r, rec
}

// RecordContext is Record with cancellation (see Simulator.RunContext). A
// cancelled run yields the partial result and the stream recorded so
// far; partial recordings should not enter shared caches.
func RecordContext(ctx context.Context, cfg config.GPUConfig, spec workloads.Spec, opts Options) (Result, *trace.Recording, error) {
	rec := &trace.Recording{
		Workload:     spec.Name,
		WorkloadHash: spec.Hash(),
		Config:       cfg.Name,
		Phases:       []trace.Phase{{Name: spec.Name, Index: 0, Cycle: 0}},
	}
	opts.TraceSink = func(r trace.Record) { rec.Records = append(rec.Records, r) }
	s := New(cfg, spec, opts)
	s.onWarmupReset = func(now int64) {
		rec.WarmupIndex = len(rec.Records)
		rec.WarmupCycle = now
	}
	r, err := s.RunContext(ctx)
	rec.EndCycle = endCycle(r, rec, opts)
	return r, rec, err
}

// RecordAppContext is Record for multi-kernel applications: one
// recording spanning every kernel, with a phase marker at each launch.
// Cancellation behaves as in RunAppContext.
func RecordAppContext(ctx context.Context, cfg config.GPUConfig, app workloads.App, opts Options) (AppResult, *trace.Recording, error) {
	rec := &trace.Recording{
		Workload:     app.Name,
		WorkloadHash: app.Hash(),
		Config:       cfg.Name,
	}
	opts.TraceSink = func(r trace.Record) { rec.Records = append(rec.Records, r) }
	if len(app.Kernels) == 0 {
		panic("sim: application has no kernels")
	}
	s := New(cfg, app.Kernels[0], opts)
	s.onKernelLaunch = func(name string, now int64) {
		rec.Phases = append(rec.Phases, trace.Phase{
			Name: name, Index: len(rec.Records), Cycle: now,
		})
	}
	ar, err := s.RunAppContext(ctx, app)
	rec.EndCycle = ar.Cycles
	return ar, rec, err
}

// endCycle reconstructs the recording run's final cycle. A warmed-up
// run reports Cycles over the measured window only, so the absolute end
// is the warmup boundary plus that window.
func endCycle(r Result, rec *trace.Recording, opts Options) int64 {
	if opts.WarmupInstructions > 0 {
		return rec.WarmupCycle + r.Cycles
	}
	return r.Cycles
}
