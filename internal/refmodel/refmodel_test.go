package refmodel

import (
	"bytes"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/sim"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

// TestDifferentialSeededTraces is the harness's core guarantee: every
// organization replays a spread of synthetic traces with zero
// divergence between the optimized banks and the reference model.
func TestDifferentialSeededTraces(t *testing.T) {
	const seeds = 24
	const records = 600
	for _, org := range Organizations() {
		org := org
		t.Run(org.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= seeds; seed++ {
				recs := SyntheticTrace(seed, records)
				if err := Diff(org.New(), recs); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestDifferentialRebaseRewriteClock puts a warmup boundary in the
// middle of each stream: both sides rebase their rewrite clocks there in
// lockstep, and every later comparison covers the rewrite-interval
// histograms, for the two-part banks (RefTwoPart) and the uniform
// baseline (RefUniform) alike. The boundary must drop samples that the
// unrebased replay keeps, or the case covers nothing.
func TestDifferentialRebaseRewriteClock(t *testing.T) {
	for _, name := range []string{"C1", "C2", "baseline-STT"} {
		org := orgByName(t, name)
		var dropped bool
		for seed := uint64(1); seed <= 8; seed++ {
			recs := SyntheticTrace(seed, 600)
			p := org.New()
			if err := diff(p, recs, len(recs)/2); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			plain := org.New()
			if err := Diff(plain, recs); err != nil {
				t.Fatalf("%s seed %d without rebase: %v", name, seed, err)
			}
			dropped = dropped || p.Opt.Stats().RewriteIntervals.N < plain.Opt.Stats().RewriteIntervals.N
		}
		if !dropped {
			t.Errorf("%s: the rebase dropped no rewrite interval on any seed", name)
		}
	}
}

// TestSeededTracesExerciseMechanisms guards the synthetic generator
// against degenerating into streams that never reach the paper's
// mechanisms: across the seed set, the two-part bank must see
// migrations, LR victims returning to HR, refreshes, expiries in both
// parts, buffer-full overflow writebacks, MSHR-mergeable misses, and
// rewrite-interval samples — otherwise the zero-divergence result of
// TestDifferentialSeededTraces would be vacuous.
func TestSeededTracesExerciseMechanisms(t *testing.T) {
	org := orgByName(t, "C2")
	total := core.BankStats{RewriteIntervals: core.NewRewriteHistogram()}
	for seed := uint64(1); seed <= 24; seed++ {
		p := org.New()
		var end int64
		for _, rec := range SyntheticTrace(seed, 600) {
			p.Opt.Access(rec.Cycle, rec.Addr, rec.Write)
			end = rec.Cycle
		}
		p.Opt.Tick(end)
		p.Opt.Drain(end)
		s := p.Opt.Stats()
		for name, v := range statCounters(s) {
			_ = name
			_ = v
		}
		total.MigrationsToLR += s.MigrationsToLR
		total.EvictionsToHR += s.EvictionsToHR
		total.Refreshes += s.Refreshes
		total.LRExpiryDrops += s.LRExpiryDrops
		total.HRExpiries += s.HRExpiries
		total.OverflowWritebacks += s.OverflowWritebacks
		total.DRAMFills += s.DRAMFills
		total.DRAMWritebacks += s.DRAMWritebacks
		total.RewriteIntervals.N += s.RewriteIntervals.N
	}
	checks := map[string]uint64{
		"MigrationsToLR":     total.MigrationsToLR,
		"EvictionsToHR":      total.EvictionsToHR,
		"Refreshes":          total.Refreshes,
		"HRExpiries":         total.HRExpiries,
		"OverflowWritebacks": total.OverflowWritebacks,
		"DRAMFills":          total.DRAMFills,
		"DRAMWritebacks":     total.DRAMWritebacks,
		"RewriteIntervals":   total.RewriteIntervals.N,
	}
	for name, v := range checks {
		if v == 0 {
			t.Errorf("seed set never exercised %s", name)
		}
	}
	t.Logf("aggregate mechanism coverage: %+v, LRExpiryDrops=%d", checks, total.LRExpiryDrops)
}

// TestDifferentialRecordedTrace replays an access stream recorded from
// a live simulation — realistic arrival patterns rather than synthetic
// ones — through every organization.
func TestDifferentialRecordedTrace(t *testing.T) {
	spec, ok := workloads.ByName("bfs")
	if !ok {
		t.Fatal("bfs missing from suite")
	}
	spec = spec.Scale(0.02)
	spec.WarpsPerSM = 2

	_, rec := sim.Record(config.C2(), spec, sim.Options{})
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, a := range rec.Records {
		_ = w.Append(a)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush trace: %v", err)
	}
	recs, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("recorded trace is empty")
	}
	if len(recs) > 20000 {
		recs = recs[:20000]
	}
	for _, org := range Organizations() {
		org := org
		t.Run(org.Name, func(t *testing.T) {
			if err := Diff(org.New(), recs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckerAcrossResetStats verifies the stateful checker treats a
// warmup-boundary stats reset as a rebase, not a monotonicity failure.
func TestCheckerAcrossResetStats(t *testing.T) {
	p := orgByName(t, "C2").New()
	recs := SyntheticTrace(7, 200)
	ck := NewChecker()
	for i, rec := range recs {
		p.Opt.Access(rec.Cycle, rec.Addr, rec.Write)
		if err := ck.Observe(p.Opt, rec.Cycle); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if i == 100 {
			p.Opt.ResetStats()
			if err := ck.Observe(p.Opt, rec.Cycle); err != nil {
				t.Fatalf("observe after reset: %v", err)
			}
		}
	}
}

// TestConservationViolations feeds crafted inconsistent statistics to
// the conservation checks.
func TestConservationViolations(t *testing.T) {
	base := func() *core.BankStats {
		return &core.BankStats{
			Reads: 10, Writes: 10, ReadHits: 6, WriteHits: 7,
			LRReadHits: 2, HRReadHits: 4,
			LRWriteHits: 3, HRWriteHits: 4,
			HRWriteKept: 1, MigrationsToLR: 3,
			LRWriteFills: 2, HRWriteFills: 1,
			DRAMFills: 4, DRAMWritebacks: 2, OverflowWritebacks: 1,
			RewriteIntervals: core.NewRewriteHistogram(),
		}
	}
	if err := checkTwoPartConservation(base()); err != nil {
		t.Fatalf("consistent stats rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*core.BankStats)
	}{
		{"lost write", func(s *core.BankStats) { s.Writes++ }},
		{"phantom read hit", func(s *core.BankStats) { s.LRReadHits++; s.ReadHits++; s.Reads = s.ReadHits - 1 }},
		{"unsplit write hit", func(s *core.BankStats) { s.LRWriteHits-- }},
		{"unsplit HR write hit", func(s *core.BankStats) { s.HRWriteKept++ }},
		{"unsplit read hit", func(s *core.BankStats) { s.HRReadHits-- }},
		{"phantom DRAM fill", func(s *core.BankStats) { s.DRAMFills = s.Reads - s.ReadHits + 1 }},
		{"phantom overflow writeback", func(s *core.BankStats) { s.OverflowWritebacks = s.DRAMWritebacks + 1 }},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		if err := checkTwoPartConservation(s); err == nil {
			t.Errorf("%s: violation not detected", tc.name)
		}
	}
}

// TestHistogramViolation crafts a histogram whose buckets do not sum to
// its sample count.
func TestHistogramViolation(t *testing.T) {
	s := &core.BankStats{RewriteIntervals: core.NewRewriteHistogram()}
	s.RewriteIntervals.Add(3)
	s.RewriteIntervals.Add(9000)
	if err := checkHistogram(s); err != nil {
		t.Fatalf("consistent histogram rejected: %v", err)
	}
	s.RewriteIntervals.N++
	if err := checkHistogram(s); err == nil {
		t.Error("dropped sample not detected")
	}
}

// TestEnergyViolation crafts a negative energy ledger entry.
func TestEnergyViolation(t *testing.T) {
	e := &core.Energy{TagAccess: 1e-12, DataWrite: 2e-12}
	if err := checkEnergy(e); err != nil {
		t.Fatalf("valid ledger rejected: %v", err)
	}
	e.Refresh = -1e-15
	if err := checkEnergy(e); err == nil {
		t.Error("negative energy not detected")
	}
}

// TestRetentionViolation verifies the age-bound helper flags a line that
// outlived its window.
func TestRetentionViolation(t *testing.T) {
	p := orgByName(t, "C2").New()
	b := p.Opt.(*core.TwoPartBank)
	b.Access(0, 0x100, true) // fills LR at threshold 1
	if err := checkRetention("LR", b.LRArray(), 10, 100); err != nil {
		t.Fatalf("fresh line rejected: %v", err)
	}
	if err := checkRetention("LR", b.LRArray(), 200, 100); err == nil {
		t.Error("expired line not detected")
	}
}

// TestCheckBankOnLiveBanks runs the full checker over live banks after
// every access of a busy trace.
func TestCheckBankOnLiveBanks(t *testing.T) {
	for _, org := range Organizations() {
		org := org
		t.Run(org.Name, func(t *testing.T) {
			p := org.New()
			for i, rec := range SyntheticTrace(3, 400) {
				p.Opt.Access(rec.Cycle, rec.Addr, rec.Write)
				if err := CheckBank(p.Opt, rec.Cycle); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
			}
		})
	}
}

// TestSyntheticTraceShape pins the generator's contract: deterministic
// per seed, cycle-ordered, line-aligned.
func TestSyntheticTraceShape(t *testing.T) {
	a := SyntheticTrace(42, 300)
	b := SyntheticTrace(42, 300)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d not deterministic: %+v vs %+v", i, a[i], b[i])
		}
	}
	last := int64(-1)
	for i, r := range a {
		if r.Cycle < last {
			t.Fatalf("record %d: cycle %d before %d", i, r.Cycle, last)
		}
		last = r.Cycle
		if r.Addr%256 != 0 {
			t.Fatalf("record %d: address %#x not line-aligned", i, r.Addr)
		}
	}
}

// TestDecodeFuzzTraceBounds pins the fuzz decoder's safety bounds.
func TestDecodeFuzzTraceBounds(t *testing.T) {
	if org, recs := DecodeFuzzTrace(nil, 3); org != 0 || recs != nil {
		t.Fatalf("empty input decoded to org %d, %d records", org, len(recs))
	}
	data := []byte{2}
	for i := 0; i < 3*maxFuzzRecords; i++ {
		data = append(data, 1, 1, 1) // delta 1, line 1, write
	}
	org, recs := DecodeFuzzTrace(data, 3)
	if org != 2 {
		t.Fatalf("org = %d, want 2", org)
	}
	if len(recs) > maxFuzzRecords {
		t.Fatalf("decoded %d records, cap is %d", len(recs), maxFuzzRecords)
	}
	last := int64(-1)
	for i, r := range recs {
		if r.Cycle < last || r.Cycle > maxFuzzCycleSpan {
			t.Fatalf("record %d: cycle %d out of order or beyond span", i, r.Cycle)
		}
		last = r.Cycle
	}
}

// TestStatCountersCoverHistogram guards the reflection flattener: if a
// counter field changes type or the histogram is renamed, comparisons
// would silently skip it.
func TestStatCountersCoverHistogram(t *testing.T) {
	s := &core.BankStats{RewriteIntervals: core.NewRewriteHistogram()}
	s.Reads = 3
	s.RewriteIntervals.Add(2)
	c := statCounters(s)
	if c["Reads"] != 3 {
		t.Errorf("Reads not flattened: %v", c)
	}
	if c["RewriteIntervals.N"] != 1 {
		t.Errorf("histogram N not flattened: %v", c)
	}
	if _, ok := c["RewriteIntervals.Counts[1]"]; !ok {
		t.Errorf("histogram buckets not flattened: %v", c)
	}
}

func orgByName(t *testing.T, name string) Org {
	t.Helper()
	for _, org := range Organizations() {
		if org.Name == name {
			return org
		}
	}
	t.Fatalf("organization %s not defined", name)
	return Org{}
}
