package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/metrics"
	"sttllc/internal/refmodel"
	"sttllc/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden stats dumps")

// exportSpec is the golden workload: small enough to run in
// milliseconds, busy enough that migrations, refreshes, and swap-buffer
// overflows all fire.
func exportSpec(t *testing.T) workloads.Spec {
	t.Helper()
	spec, ok := workloads.ByName("bfs")
	if !ok {
		t.Fatal("bfs missing from suite")
	}
	spec = spec.Scale(0.05)
	spec.WarpsPerSM = 4
	return spec
}

// The golden file pins the sttllc-stats/v1 JSON shape AND the simulated
// values: the simulator is deterministic, so any diff here is either a
// schema change (update deliberately, note it in DESIGN.md) or a
// behavior change (a regression unless intended).
func TestStatsDumpGolden(t *testing.T) {
	reg := metrics.NewRegistry(true)
	cfg := config.C2()
	res := New(cfg, exportSpec(t), Options{Metrics: reg}).Run()
	dump := DumpStats(res, reg)

	var buf bytes.Buffer
	if err := dump.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}

	golden := filepath.Join("testdata", "stats_bfs_c2.golden.json")
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
		t.Fatalf("read golden (run 'go test ./internal/sim -run StatsDumpGolden -update' to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("stats dump diverged from %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}

// AppendJSON must write exactly what encoding/json writes for the same
// dump: real dumps (two-level, stacked, counter-free replay shape) and
// hand-built ones whose strings need escaping and whose floats cross
// encoding/json's exponent thresholds.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	reg := metrics.NewRegistry(true)
	c2 := DumpStats(New(config.C2(), exportSpec(t), Options{Metrics: reg}).Run(), reg)
	reg = metrics.NewRegistry(true)
	stacked := DumpStats(New(config.C2L3(), exportSpec(t), Options{Metrics: reg}).Run(), reg)
	bare := New(config.C1(), exportSpec(t), Options{}).Run().Dump()
	odd := StatsDump{
		Schema: StatsSchema, Config: "C<2>&\"x\"", Benchmark: "bf\u00e9s\u2028\t",
		IPC: 1e-7, Cycles: -1,
		Power:      PowerDump{TotalW: 1e21, DynamicW: 123456789.125, ComponentsJ: map[string]float64{"b": 0, "a": -2.5e-9}},
		Counters:   oddCounters(),
		Histograms: []HistogramDump{{Name: "h", Edges: []int64{1, 2}, Counts: []uint64{0, 3}}},
	}
	empty := StatsDump{Counters: metrics.Samples{}}
	for name, d := range map[string]StatsDump{"c2": c2, "stacked": stacked, "bare": bare, "odd": odd, "empty": empty} {
		want, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.AppendJSON([]byte("prefix"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(got) != "prefix"+string(want) {
			t.Errorf("%s: AppendJSON differs from json.Marshal\n got %s\nwant %s", name, got[len("prefix"):], want)
		}
	}
	nan := StatsDump{IPC: math.NaN()}
	if _, err := nan.AppendJSON(nil); err == nil {
		t.Error("AppendJSON encoded a NaN; encoding/json refuses it")
	}
}

// oddCounters is a counter set whose names need every kind of JSON
// escaping. Its encoding must be what encoding/json writes for the
// same map, which is what the dumps wrote when Counters was one.
func oddCounters() metrics.Samples {
	m := map[string]uint64{
		"plain": 1, "quote\"d": 2, "back\\slash": 3, "<html>&": 4, "ctl\x01": 5,
		"utf8-\u00fc": 6, "bad-\xff": 7, "": 8, "max": ^uint64(0),
	}
	var out metrics.Samples
	for name, v := range m {
		out = append(out, metrics.Sample{Name: name, Value: v})
	}
	slices.SortFunc(out, func(a, b metrics.Sample) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// TestWriteStatsDumps pins the multi-run form: one JSON array whose
// elements are exactly the single-run dumps.
func TestWriteStatsDumps(t *testing.T) {
	spec := exportSpec(t)
	dumps := []StatsDump{
		New(config.C1(), spec, Options{}).Run().Dump(),
		New(config.C2(), spec, Options{}).Run().Dump(),
	}
	var buf bytes.Buffer
	if err := WriteStatsDumps(&buf, dumps); err != nil {
		t.Fatal(err)
	}
	var got []json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	if len(got) != len(dumps) {
		t.Fatalf("%d elements, want %d", len(got), len(dumps))
	}
	for i, d := range dumps {
		var one bytes.Buffer
		if err := d.WriteJSON(&one); err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := json.Compact(&a, got[i]); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&b, one.Bytes()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("element %d differs from its single dump\n got %s\nwant %s", i, a.Bytes(), b.Bytes())
		}
	}
}

func TestCountersEncodeAsMap(t *testing.T) {
	c := oddCounters()
	m := make(map[string]uint64, len(c))
	for _, x := range c {
		m[x.Name] = x.Value
	}
	want, _ := json.Marshal(m)
	if got := c.AppendJSON(nil); string(got) != string(want) {
		t.Errorf("counters encode as\n%s\nencoding/json writes the map as\n%s", got, want)
	}
}

// The dump must actually carry the counters the paper's evaluation
// reads, with live values, regardless of what the golden pins.
func TestStatsDumpCarriesPaperCounters(t *testing.T) {
	reg := metrics.NewRegistry(true)
	res := New(config.C2(), exportSpec(t), Options{Metrics: reg}).Run()
	d := DumpStats(res, reg)

	if d.Schema != StatsSchema {
		t.Errorf("schema = %q, want %q", d.Schema, StatsSchema)
	}
	if d.L2.HitRate <= 0 || d.L2.LRHitRate <= 0 {
		t.Errorf("hit rates not populated: overall %v, LR %v", d.L2.HitRate, d.L2.LRHitRate)
	}
	if d.L2.MigrationsToLR+d.L2.Refreshes == 0 {
		t.Error("no migration or refresh activity recorded; golden workload too small")
	}
	for _, name := range []string{
		"sim.l2_requests", "l2.bank0.migrations_to_lr", "l2.bank0.refreshes",
		"l2.bank0.overflow_writebacks", "engine.events_fired", "sm.instructions",
	} {
		if _, ok := d.Counters.Get(name); !ok {
			t.Errorf("counter %q missing from dump", name)
		}
	}
	requests, _ := d.Counters.Get("sim.l2_requests")
	if requests == 0 {
		t.Error("sim.l2_requests recorded nothing")
	}
	found := false
	for _, h := range d.Histograms {
		if h.Name == "sim.l2_latency_cycles" {
			found = true
			var total uint64
			for _, c := range h.Counts {
				total += c
			}
			if total+h.Overflow != requests {
				t.Errorf("latency histogram total %d != request count %d",
					total+h.Overflow, requests)
			}
		}
	}
	if !found {
		t.Error("sim.l2_latency_cycles histogram missing from dump")
	}
}

// Observability must never perturb the simulation. Observers — the
// invariant audit, the tracer's bank windows, an enabled registry —
// catch banks up at the retention-counter cadence, while a bare run
// schedules no bank events at all; both must produce bit-identical
// results, warmed and multi-kernel runs included.
func TestInstrumentationDoesNotPerturbResults(t *testing.T) {
	// The bare side must not audit: TestMain installs the checker as the
	// package default, so lift it for the duration of the test.
	saved := defaultInvariantCheck
	defaultInvariantCheck = nil
	defer func() { defaultInvariantCheck = saved }()
	observed := func(clockHz float64, opts Options) (Options, *metrics.Tracer) {
		tr := metrics.NewTracer(clockHz)
		opts.Metrics = metrics.NewRegistry(true)
		opts.Tracer = tr
		opts.InvariantCheck = func(bank int, b core.Bank, now int64) error {
			return refmodel.CheckBank(b, now)
		}
		return opts, tr
	}

	// Full-scale bfs runs 80k-125k cycles: past the first LR retention
	// boundaries (43,750 cycles) and several C4 epochs, so the observers
	// and the controller all fire.
	spec, ok := workloads.ByName("bfs")
	if !ok {
		t.Fatal("bfs missing from suite")
	}
	third := New(config.C1(), spec, Options{}).Run().Instructions / 3
	lr130 := config.C1()
	lr130.Name = "C1-LR130us"
	lr130.L2.LRRetention = 130 * time.Microsecond
	cases := []struct {
		cfg    config.GPUConfig
		warmup uint64
	}{
		{config.BaselineSRAM(), 0},
		{config.C2(), 0},
		{config.BaselineSTT(), third},
		{config.C1(), third},
		{config.C2L3(), third},
		{config.C4(), third},
		{lr130, third},
	}
	for _, c := range cases {
		opts := Options{WarmupInstructions: c.warmup}
		bare := New(c.cfg, spec, opts).Run()
		obsOpts, tr := observed(c.cfg.ClockHz, opts)
		instr := New(c.cfg, spec, obsOpts).Run()
		if !reflect.DeepEqual(bare, instr) {
			t.Errorf("%s/warmup=%d: instrumented run diverged from bare run", c.cfg.Name, c.warmup)
		}
		if tr.Len() == 0 {
			t.Errorf("%s: tracer captured no events", c.cfg.Name)
		}
	}

	apps := workloads.Apps()
	if len(apps) == 0 {
		t.Fatal("no applications registered")
	}
	// At scale 0.6 each kernel of the first application outlasts one
	// retention-counter period, so observers fire inside both drives.
	app := apps[0]
	for i := range app.Kernels {
		app.Kernels[i] = app.Kernels[i].Scale(0.6)
	}
	cfg := config.C4()
	bare := RunApp(cfg, app, Options{})
	obsOpts, _ := observed(cfg.ClockHz, Options{})
	if instr := RunApp(cfg, app, obsOpts); !reflect.DeepEqual(bare, instr) {
		t.Errorf("%s/%s: instrumented application run diverged from bare run", cfg.Name, app.Name)
	}
}
