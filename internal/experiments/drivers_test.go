package experiments

import (
	"math"
	"strings"
	"testing"

	"sttllc/internal/workloads/gen"
)

// finitePositive reports whether x is a usable ratio or measurement.
func finitePositive(x float64) bool {
	return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x)
}

// bodyLines returns the lines of a formatted table that mention s.
func bodyLines(table, s string) int {
	n := 0
	for _, line := range strings.Split(table, "\n") {
		if strings.Contains(line, s) {
			n++
		}
	}
	return n
}

func TestAdaptivePolicySweepSmoke(t *testing.T) {
	benches := []string{"bfs", "stencil"}
	rows := AdaptivePolicySweep(tiny(benches...))
	if len(rows) != len(benches) {
		t.Fatalf("rows = %d, want %d", len(rows), len(benches))
	}
	fixed := adaptiveFixedConfigs()
	for i, r := range rows {
		if r.Benchmark != benches[i] {
			t.Errorf("row %d benchmark = %q, want %q", i, r.Benchmark, benches[i])
		}
		if len(r.FixedEnergyJ) != len(fixed) {
			t.Errorf("%s: %d fixed energies, want %d", r.Benchmark, len(r.FixedEnergyJ), len(fixed))
		}
		for name, e := range r.FixedEnergyJ {
			if !finitePositive(e) {
				t.Errorf("%s: fixed %s energy = %v", r.Benchmark, name, e)
			}
			if e < r.FixedBestEnergyJ {
				t.Errorf("%s: %s (%v J) beats the reported best %s (%v J)",
					r.Benchmark, name, e, r.FixedBest, r.FixedBestEnergyJ)
			}
		}
		if got, ok := r.FixedEnergyJ[r.FixedBest]; !ok || got != r.FixedBestEnergyJ {
			t.Errorf("%s: fixed-best %q = %v J, not in the fixed set", r.Benchmark, r.FixedBest, r.FixedBestEnergyJ)
		}
		for name, x := range map[string]float64{
			"adaptive energy": r.AdaptiveEnergyJ, "energy ratio": r.EnergyRatio, "speedup": r.Speedup,
		} {
			if !finitePositive(x) {
				t.Errorf("%s: %s = %v", r.Benchmark, name, x)
			}
		}
		if r.EnergyRatio != r.AdaptiveEnergyJ/r.FixedBestEnergyJ {
			t.Errorf("%s: energy ratio %v != %v / %v", r.Benchmark, r.EnergyRatio, r.AdaptiveEnergyJ, r.FixedBestEnergyJ)
		}
	}
	out := FormatAdaptivePolicySweep(rows)
	for _, r := range rows {
		if bodyLines(out, r.Benchmark+" ") != 1 {
			t.Errorf("formatted sweep does not print %s exactly once:\n%s", r.Benchmark, out)
		}
	}
	if !strings.Contains(out, "workloads\n") || !strings.Contains(out, "/2 workloads") {
		t.Errorf("formatted sweep lacks the win summary:\n%s", out)
	}
}

func TestGeneratedSweepSmoke(t *testing.T) {
	instr, warps := 200.0, 4.0
	family := gen.FamilySpec{
		AppSpec: gen.AppSpec{
			Name:         "smoke",
			Seed:         3,
			InstrPerWarp: gen.Dist{Fixed: &instr},
			WarpsPerSM:   gen.Dist{Fixed: &warps},
		},
		Count: 2,
	}
	configs := []string{"C1", "C2"}
	rows, err := GeneratedSweep(tiny(), family, configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != family.Count*len(configs) {
		t.Fatalf("rows = %d, want %d", len(rows), family.Count*len(configs))
	}
	for i, r := range rows {
		// App-major: each member's rows sit together, in config order.
		if want := configs[i%len(configs)]; r.Config != want {
			t.Errorf("row %d config = %q, want %q", i, r.Config, want)
		}
		if i%len(configs) > 0 && (r.App != rows[i-1].App || r.Hash != rows[i-1].Hash) {
			t.Errorf("row %d: member %s/%s split from its previous row", i, r.App, r.Hash)
		}
		if !finitePositive(r.IPC) || !finitePositive(r.PowerW) || r.Cycles <= 0 {
			t.Errorf("bad generated row: %+v", r)
		}
		if r.L2Hit < 0 || r.L2Hit > 1 {
			t.Errorf("row %d: L2 hit rate %v out of [0,1]", i, r.L2Hit)
		}
	}
	if rows[0].Hash == rows[len(configs)].Hash {
		t.Error("the two family members drew the same app")
	}
	out := FormatGeneratedSweep(rows)
	for _, r := range rows {
		if bodyLines(out, r.Hash[:10]) != len(configs) {
			t.Errorf("formatted sweep does not print %d rows for %s:\n%s", len(configs), r.Hash[:10], out)
		}
	}
	if _, err := GeneratedSweep(tiny(), family, []string{"no-such-config"}); err == nil {
		t.Error("unknown configuration accepted")
	}
}

func TestStatsDumpsSmoke(t *testing.T) {
	configs := []string{"C1", "C2"}
	benches := []string{"bfs", "hotspot"}
	dumps := StatsDumps(tiny(benches...), configs)
	if len(dumps) != len(configs)*len(benches) {
		t.Fatalf("dumps = %d, want %d", len(dumps), len(configs)*len(benches))
	}
	for i, d := range dumps {
		// Configuration-major, then suite order.
		if cfg, bench := configs[i/len(benches)], benches[i%len(benches)]; d.Config != cfg || d.Benchmark != bench {
			t.Errorf("dump %d = %s/%s, want %s/%s", i, d.Config, d.Benchmark, cfg, bench)
		}
		if !finitePositive(d.IPC) || d.Cycles <= 0 || d.Instructions == 0 {
			t.Errorf("dump %d: bad run totals %+v", i, d)
		}
		if !finitePositive(d.Power.TotalW) || d.L2.Reads+d.L2.Writes == 0 {
			t.Errorf("dump %d: no L2 activity or power", i)
		}
		if len(d.Counters) == 0 {
			t.Errorf("dump %d: no registry counters", i)
		}
	}
}
