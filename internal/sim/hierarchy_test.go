package sim

import (
	"bytes"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/metrics"
	"sttllc/internal/workloads"
)

// A stacked configuration must flow end-to-end: tier roll-ups in the
// Result, the v2 schema in the dump, and the L3 actually absorbing
// traffic between the L2 and DRAM.
func TestStackedL3RunEndToEnd(t *testing.T) {
	cfg, ok := config.ByName("C2-L3")
	if !ok {
		t.Fatal("C2-L3 configuration missing")
	}
	// A busier spec than the golden one: at 0.1 scale with six warps per
	// SM the L2 takes capacity misses (not just cold misses), which is
	// what gives the L3 reuse to capture.
	spec, ok := workloads.ByName("bfs")
	if !ok {
		t.Fatal("bfs missing from suite")
	}
	spec = spec.Scale(0.1)
	spec.WarpsPerSM = 6
	reg := metrics.NewRegistry(true)
	res := New(cfg, spec, Options{Metrics: reg}).Run()

	if len(res.Tiers) != 3 {
		t.Fatalf("tier roll-ups = %d rows, want 3 (l2, l3, dram): %+v", len(res.Tiers), res.Tiers)
	}
	l2, l3, dr := res.Tiers[0], res.Tiers[1], res.Tiers[2]
	if l2.Level != "l2" || l3.Level != "l3" || dr.Level != "dram" {
		t.Fatalf("tier levels = %q/%q/%q", l2.Level, l3.Level, dr.Level)
	}
	// Traffic must thin monotonically down the stack: the L3 only sees
	// L2 misses and writebacks, DRAM only L3 misses and writebacks.
	if l3.Reads == 0 || l3.Reads >= l2.Reads+l2.Writes {
		t.Errorf("L3 reads = %d vs L2 traffic %d", l3.Reads, l2.Reads+l2.Writes)
	}
	if dr.Reads >= l3.Reads {
		t.Errorf("DRAM reads %d not reduced below L3 reads %d — L3 absorbed nothing",
			dr.Reads, l3.Reads)
	}
	for _, tier := range []TierResult{l2, l3} {
		if tier.HitRate <= 0 || tier.HitRate >= 1 {
			t.Errorf("%s hit rate = %v, want in (0,1)", tier.Level, tier.HitRate)
		}
		if tier.DynamicEnergyJ <= 0 || tier.LeakageW <= 0 {
			t.Errorf("%s energy/leakage = %v/%v, want positive",
				tier.Level, tier.DynamicEnergyJ, tier.LeakageW)
		}
	}

	dump := DumpStats(res, reg)
	if dump.Schema != StatsSchemaV2 {
		t.Errorf("stacked dump schema = %q, want %q", dump.Schema, StatsSchemaV2)
	}
	if len(dump.Tiers) != 3 {
		t.Errorf("dump tiers = %d, want 3", len(dump.Tiers))
	}
	// The per-tier metrics registered under the l3.* namespace.
	if _, ok := reg.Value("l3.bank0.reads"); !ok {
		t.Error("l3.bank0.reads not registered for the stacked tier")
	}
}

// Two-level configurations must be untouched by the tier abstraction:
// no tier rows, and the dump stays on the v1 schema byte-for-byte (the
// golden test pins the exact bytes; this pins the reason).
func TestSingleTierStaysV1(t *testing.T) {
	res := New(config.C2(), exportSpec(t), Options{}).Run()
	if res.Tiers != nil {
		t.Fatalf("single-tier run grew tier rows: %+v", res.Tiers)
	}
	dump := DumpStats(res, nil)
	if dump.Schema != StatsSchema {
		t.Errorf("single-tier schema = %q, want %q", dump.Schema, StatsSchema)
	}
	var buf bytes.Buffer
	if err := dump.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"tiers"`)) {
		t.Error("single-tier dump serialized a tiers field")
	}
}
