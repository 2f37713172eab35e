package experiments

import (
	"fmt"

	"sttllc/internal/config"
	"sttllc/internal/metrics"
	"sttllc/internal/sim"
)

// StatsDumps runs every benchmark on every named configuration with a
// full metrics registry attached and returns the machine-readable
// dumps, ordered configuration-major then suite order — the "runs"
// experiment behind `sttexp -exp runs`.
// Each run owns a private registry and is its own task of forEachTask,
// so the whole grid fans out at once.
func StatsDumps(p Params, configs []string) []sim.StatsDump {
	if len(configs) == 0 {
		configs = []string{"baseline-SRAM", "baseline-STT", "C1", "C2", "C3"}
	}
	cfgs := make([]config.GPUConfig, len(configs))
	for i, name := range configs {
		cfg, ok := config.ByName(name)
		if !ok {
			panic(fmt.Sprintf("experiments: unknown configuration %q", name))
		}
		cfgs[i] = cfg
	}
	specs := p.specs()
	dumps := make([]sim.StatsDump, len(cfgs)*len(specs))
	forEachTask(p, specs, cfgs, func(si, ci int) {
		reg := metrics.NewRegistry(true)
		opts := p.opts()
		opts.Metrics = reg
		res, _ := sim.New(cfgs[ci], specs[si], opts).RunContext(p.ctx())
		dumps[ci*len(specs)+si] = sim.DumpStats(res, reg)
	})
	return dumps
}
