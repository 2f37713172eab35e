package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/metrics"
)

// adaptiveGoldenCfg is the golden C4 configuration: the stock
// controller with an epoch short enough that the golden workload
// crosses several boundaries and actually transitions.
func adaptiveGoldenCfg() config.GPUConfig {
	g := config.C4()
	// The golden workload retires in ~4000 cycles; a 500-cycle epoch
	// gives the controller several boundaries inside it.
	g.Adaptive.EpochCycles = 500
	return g
}

// The adaptive golden pins a C4 run end to end: the controller's
// epoch cadence, the transitions it takes, and the reconfig counters
// they leave in the dump. Any drift in the policy, the transition
// API's demote/expire ordering, or the epoch event's placement in the
// engine shows up as a byte diff here.
func TestAdaptiveStatsDumpGolden(t *testing.T) {
	reg := metrics.NewRegistry(true)
	res := New(adaptiveGoldenCfg(), exportSpec(t), Options{Metrics: reg}).Run()
	dump := DumpStats(res, reg)

	var buf bytes.Buffer
	if err := dump.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}

	golden := filepath.Join("testdata", "stats_bfs_c4.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run 'go test ./internal/sim -run AdaptiveStatsDumpGolden -update' to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("adaptive stats dump diverged from %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}

// An adaptive dump must carry the controller's counters — registered
// only when the controller exists — and the run must have adapted:
// epochs elapsed and at least one transition taken.
func TestAdaptiveDumpCarriesReconfigCounters(t *testing.T) {
	reg := metrics.NewRegistry(true)
	res := New(adaptiveGoldenCfg(), exportSpec(t), Options{Metrics: reg}).Run()
	d := DumpStats(res, reg)

	for _, name := range []string{
		"adaptive.epochs", "l2.bank0.reconfig_threshold", "l2.bank0.reconfig_lr_resize",
		"l2.bank0.reconfig_retention", "l2.bank0.reconfig_demotions",
	} {
		if _, ok := d.Counters.Get(name); !ok {
			t.Errorf("counter %q missing from adaptive dump", name)
		}
	}
	if n, _ := d.Counters.Get("adaptive.epochs"); n == 0 {
		t.Error("adaptive.epochs = 0: the epoch event never fired")
	}
	trans := res.Bank.ReconfigThreshold + res.Bank.ReconfigLRResize + res.Bank.ReconfigRetention
	if trans == 0 {
		t.Error("no transitions taken: golden run exercises none of the controller")
	}

	// Disabled runs must not leak controller counters into dumps — that
	// would shift every existing golden.
	reg2 := metrics.NewRegistry(true)
	res2 := New(config.C2(), exportSpec(t), Options{Metrics: reg2}).Run()
	d2 := DumpStats(res2, reg2)
	for _, c := range d2.Counters {
		if c.Name == "adaptive.epochs" {
			t.Error("disabled run registered adaptive.epochs")
		}
	}
	if res2.Bank.ReconfigThreshold+res2.Bank.ReconfigLRResize+res2.Bank.ReconfigRetention+res2.Bank.ReconfigDemotions != 0 {
		t.Error("disabled run recorded reconfig activity")
	}
}

// The controller must be deterministic: two identical adaptive runs
// produce byte-identical dumps (the reproducibility contract the
// refmodel's transition replay assumes).
func TestAdaptiveRunDeterministic(t *testing.T) {
	dump := func() []byte {
		reg := metrics.NewRegistry(true)
		res := New(adaptiveGoldenCfg(), exportSpec(t), Options{Metrics: reg}).Run()
		var buf bytes.Buffer
		if err := DumpStats(res, reg).WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	if a, b := dump(), dump(); !bytes.Equal(a, b) {
		t.Errorf("adaptive run not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// An epoch must count the retention scans due by its cycle even when no
// access has caught the bank up since: banks schedule no tick events,
// so the controller brings each bank up to date before reading it.
func TestAdaptiveEpochSeesDueExpiries(t *testing.T) {
	s := New(config.C4(), exportSpec(t), Options{})
	b := s.banks[0].(*core.TwoPartBank)
	b.Access(0, 0x1000, false) // a read miss fills into HR
	_, hrTick := b.TickCycles()
	expired := int64(b.HRRetention().Seconds()*s.cfg.ClockHz) + hrTick
	s.adapt.epoch(expired)
	if st := b.Stats(); st.HRExpiries != 1 || st.ReconfigRetention != 1 {
		t.Errorf("epoch after the HR line's retention saw %d expiries and took %d retention switches, want 1 and 1",
			st.HRExpiries, st.ReconfigRetention)
	}
}
