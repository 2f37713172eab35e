package sim

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/metrics"
	"sttllc/internal/workloads"
)

// eventCounts runs s under ctx with a fresh enabled registry and returns
// its engine.events_scheduled and engine.events_fired counters.
func eventCounts(t *testing.T, cfg config.GPUConfig, spec workloads.Spec, opts Options, ctx context.Context) (sched, fired uint64) {
	t.Helper()
	opts.Metrics = metrics.NewRegistry(true)
	if _, err := New(cfg, spec, opts).RunContext(ctx); err != nil {
		t.Fatalf("%s/%s: %v", spec.Name, cfg.Name, err)
	}
	sched, ok1 := opts.Metrics.Value("engine.events_scheduled")
	fired, ok2 := opts.Metrics.Value("engine.events_fired")
	if !ok1 || !ok2 {
		t.Fatal("engine event counters are not registered")
	}
	return sched, fired
}

// wakeDigest pins engine.events_scheduled and engine.events_fired over
// every benchmark on the five paper configurations, plus a warmed run, a
// MaxCycles run, a cancellable run that completes and a 70-SM run. The
// counters count SM wakes (a wake to the cycle already pending is not a
// new one, a moved wake counts once, every firing counts once) and the
// C4 epochs, never the cancellation poll or the observer ticks.
const wakeDigest = 0x6d3a4feb4bb5a77e

func TestEngineEventCountsDigest(t *testing.T) {
	var lines []string
	add := func(label string, sched, fired uint64) {
		lines = append(lines, fmt.Sprintf("%s %d %d", label, sched, fired))
	}
	bg := context.Background()
	cfgs := []config.GPUConfig{config.BaselineSRAM(), config.BaselineSTT(), config.C1(), config.C2(), config.C3()}
	for _, spec := range workloads.All() {
		spec = spec.Scale(0.02)
		spec.WarpsPerSM = 6
		for _, cfg := range cfgs {
			sched, fired := eventCounts(t, cfg, spec, Options{}, bg)
			add(spec.Name+"/"+cfg.Name, sched, fired)
		}
	}

	hotspot := goldenSpec(t, "hotspot")
	total := New(config.C1(), hotspot, Options{}).Run().Instructions
	sched, fired := eventCounts(t, config.C1(), hotspot, Options{WarmupInstructions: total / 2}, bg)
	add("hotspot/C1/warmup", sched, fired)

	bfs := goldenSpec(t, "bfs")
	full := New(config.C2(), bfs, Options{}).Run().Cycles
	sched, fired = eventCounts(t, config.C2(), bfs, Options{MaxCycles: full / 2}, bg)
	add("bfs/C2/maxcycles", sched, fired)

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	sched, fired = eventCounts(t, config.C1(), bfs, Options{}, ctx)
	if ws, wf := eventCounts(t, config.C1(), bfs, Options{}, bg); ws != sched || wf != fired {
		t.Errorf("cancellable run counted %d/%d events, plain run %d/%d", sched, fired, ws, wf)
	}
	add("bfs/C1/cancellable", sched, fired)

	sched, fired = eventCounts(t, manySMs(config.C1()), bfs, Options{}, bg)
	add("bfs/C1/70sms", sched, fired)

	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	if got := h.Sum64(); got != wakeDigest {
		t.Errorf("engine event counts digest = %#x, want %#x; counts:\n%s", got, uint64(wakeDigest), strings.Join(lines, "\n"))
	}
}

// manySMs widens cfg past one 64-bit word of SMs, so the drive loop's
// due masks and wake scan span several words.
func manySMs(cfg config.GPUConfig) config.GPUConfig {
	cfg.NumSMs = 70
	return cfg
}
