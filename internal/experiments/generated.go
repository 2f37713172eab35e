// Generated-family sweeps: the parametric workload generator
// (internal/workloads/gen) plugged into the experiment harness, so a
// declarative distribution family can be swept across configurations
// exactly like the builtin suite. Members are independent deterministic
// draws — the whole sweep reproduces from (spec, seed) alone.
package experiments

import (
	"fmt"
	"strings"

	"sttllc/internal/config"
	"sttllc/internal/sim"
	"sttllc/internal/workloads/gen"
)

// GeneratedRow is one (configuration × generated member) measurement.
type GeneratedRow struct {
	Config string  `json:"config"`
	App    string  `json:"app"`
	Hash   string  `json:"hash"` // workloads.App content address
	IPC    float64 `json:"ipc"`
	Cycles int64   `json:"cycles"`
	L2Hit  float64 `json:"l2_hit"`
	PowerW float64 `json:"power_w"`
}

// GeneratedSweep draws the family and runs every member through every
// named configuration (nil = the Fig. 8 set), app-major so each
// member's rows sit together. Scale and WarpsPerSM apply to the
// sampled kernels the way they apply to catalog workloads; a cancelled
// Context cuts the sweep short with the rows finished so far.
func GeneratedSweep(p Params, family gen.FamilySpec, configNames []string) ([]GeneratedRow, error) {
	if configNames == nil {
		configNames = Fig8Configs
	}
	cfgs := make([]config.GPUConfig, len(configNames))
	for i, name := range configNames {
		g, ok := config.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown configuration %q", name)
		}
		cfgs[i] = g
	}
	apps, err := family.Apps()
	if err != nil {
		return nil, err
	}
	var rows []GeneratedRow
	for _, app := range apps {
		for i := range app.Kernels {
			app.Kernels[i] = app.Kernels[i].Scale(p.scale())
			if p.WarpsPerSM > 0 {
				app.Kernels[i].WarpsPerSM = p.WarpsPerSM
			}
		}
		for _, cfg := range cfgs {
			if p.ctx().Err() != nil {
				return rows, p.ctx().Err()
			}
			ar, err := sim.New(cfg, app.Kernels[0], p.opts()).RunAppContext(p.ctx(), app)
			if err != nil {
				return rows, err
			}
			d := ar.Final.Dump()
			rows = append(rows, GeneratedRow{
				Config: cfg.Name,
				App:    app.Name,
				Hash:   app.Hash(),
				IPC:    ar.IPC,
				Cycles: ar.Cycles,
				L2Hit:  d.L2.HitRate,
				PowerW: d.Power.TotalW,
			})
		}
	}
	return rows, nil
}

// FormatGeneratedSweep renders the sweep as a text table.
func FormatGeneratedSweep(rows []GeneratedRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Generated-family sweep (deterministic draws; id = content address)\n")
	fmt.Fprintf(&b, "%-16s %-14s %-10s %10s %12s %7s %9s\n",
		"app", "config", "id", "IPC", "cycles", "L2hit", "power")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-14s %-10s %10.4f %12d %6.3f %8.3fW\n",
			r.App, r.Config, r.Hash[:10], r.IPC, r.Cycles, r.L2Hit, r.PowerW)
	}
	return b.String()
}
