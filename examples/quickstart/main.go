// Quickstart: build the proposed two-part STT-RAM L2 configuration (C1),
// run one GPGPU kernel on it and on the SRAM baseline, and compare IPC
// and L2 power — the paper's headline comparison in a dozen lines.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"sttllc/internal/config"
	"sttllc/internal/sim"
	"sttllc/internal/workloads"
)

func main() {
	// Pick a cache-friendly benchmark (the kind the paper's region 3/4
	// groups) and scale it down so the example runs in a second.
	spec, _ := workloads.ByName("nw")
	spec = spec.Scale(0.25)

	base := sim.New(config.BaselineSRAM(), spec, sim.Options{}).Run()
	c1 := sim.New(config.C1(), spec, sim.Options{}).Run()

	fmt.Printf("benchmark: %s (%s)\n\n", spec.Name, spec.Description)
	fmt.Printf("%-16s %10s %12s %12s %12s\n", "config", "IPC", "L2 hit", "dyn power", "total power")
	for _, r := range []sim.Result{base, c1} {
		fmt.Printf("%-16s %10.3f %11.1f%% %11.3fW %11.3fW\n",
			r.Config, r.IPC, r.Bank.HitRate()*100, r.DynamicPowerW, r.TotalPowerW)
	}
	fmt.Printf("\nC1 speedup over SRAM baseline: %.2fx\n", c1.IPC/base.IPC)
	fmt.Printf("C1 total L2 power vs baseline: %.2fx\n", c1.TotalPowerW/base.TotalPowerW)
	fmt.Printf("\ntwo-part machinery: %.0f%% of writes served by the LR part, %d migrations, %d refreshes\n",
		c1.Bank.LRWriteShare()*100, c1.Bank.MigrationsToLR, c1.Bank.Refreshes)
}
