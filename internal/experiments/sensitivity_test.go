package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestRetentionSweep(t *testing.T) {
	points := []time.Duration{100 * time.Microsecond, time.Millisecond}
	rows := RetentionSweep(tiny("bfs"), points)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The 1ms design point is the normalization anchor.
	for _, r := range rows {
		if r.Retention == time.Millisecond {
			if r.Speedup != 1 || r.DynPower != 1 {
				t.Errorf("design point not normalized: %+v", r)
			}
		}
		if r.Speedup <= 0 {
			t.Errorf("bad speedup: %+v", r)
		}
	}
	if !strings.Contains(FormatRetentionSweep(rows), "Retention") {
		t.Error("rendering incomplete")
	}
}

func TestRetentionSweepShortRetentionRefreshesMore(t *testing.T) {
	// A 20µs LR (14k cycles at 700MHz) against a multi-grid workload
	// whose abandoned grid-0 write working set goes idle: the short
	// class must refresh/expire lines that the 40ms class never
	// touches. (At the paper's 1ms design point rewrites keep nearly
	// everything fresh — that is Fig. 6's very point — so a test needs
	// the aggressive what-if class to see the machinery work.)
	points := []time.Duration{20 * time.Microsecond, 40 * time.Millisecond}
	p := Params{Scale: 2.0, WarpsPerSM: 16, Benchmarks: []string{"backprop"}}
	rows := RetentionSweep(p, points)
	var short, long RetentionRow
	for _, r := range rows {
		switch r.Retention {
		case 20 * time.Microsecond:
			short = r
		case 40 * time.Millisecond:
			long = r
		}
	}
	if short.Refreshes+short.Expiries <= long.Refreshes+long.Expiries {
		t.Errorf("20µs LR should refresh/expire more than 40ms LR: %d+%d vs %d+%d",
			short.Refreshes, short.Expiries, long.Refreshes, long.Expiries)
	}
}

func TestLRSizeSweep(t *testing.T) {
	rows := LRSizeSweep(tiny("bfs"))
	if len(rows) != len(lrSizePoints) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LRFraction == "1/8" && (r.Speedup != 1 || r.DynPower != 1) {
			t.Errorf("1/8 split not normalized: %+v", r)
		}
		if r.LRShare <= 0 {
			t.Errorf("LR share missing: %+v", r)
		}
	}
	if !strings.Contains(FormatLRSizeSweep(rows), "LR frac") {
		t.Error("rendering incomplete")
	}
}

func TestReliabilityExperiment(t *testing.T) {
	rows := Reliability(tiny("bfs"))
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	// Shorter what-if retentions must expose strictly more loss.
	l10 := r.LossNoRefresh[10*time.Microsecond]
	l100 := r.LossNoRefresh[100*time.Microsecond]
	l1000 := r.LossNoRefresh[time.Millisecond]
	if !(l10 >= l100 && l100 >= l1000) {
		t.Errorf("loss ordering violated: %v >= %v >= %v", l10, l100, l1000)
	}
	if l1000 < 0 || l1000 > 1 {
		t.Errorf("loss out of range: %v", l1000)
	}
	// Wear: both arrays must be measured, and bfs's hot-skewed write
	// working set must leave the LR part with clearly uneven wear
	// (max/mean well above level).
	if r.LRWear.MaxWritesPerLine <= 0 {
		t.Error("LR wear not measured")
	}
	if r.UniformWear.MaxWritesPerLine <= 0 {
		t.Error("uniform wear not measured")
	}
	if r.LRWear.Variation < 1.5 {
		t.Errorf("LR wear variation = %v, want > 1.5 for a hot-skewed writer", r.LRWear.Variation)
	}
	if r.LRWear.LifetimeYears <= 0 {
		t.Error("LR lifetime not derived")
	}
	if !strings.Contains(FormatReliability(rows), "loss@1ms") {
		t.Error("rendering incomplete")
	}
}

func TestPowerBreakdownExperiment(t *testing.T) {
	rows := PowerBreakdown(tiny("bfs"), "C1")
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	sum := 0.0
	for _, s := range r.Shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	if r.TotalW <= 0 || r.DynamicW <= 0 {
		t.Errorf("power missing: %+v", r)
	}
	out := FormatPowerBreakdown(rows)
	for _, want := range []string{"migration", "refresh", "bfs"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
	if FormatPowerBreakdown(nil) == "" {
		t.Error("empty rendering should explain itself")
	}
}

func TestPowerBreakdownUnknownConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown config did not panic")
		}
	}()
	PowerBreakdown(tiny("bfs"), "C9")
}
