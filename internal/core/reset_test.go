package core_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sttllc/internal/cache"
	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/dram"
)

// tierStream is a synthetic access stream with seed-dependent addresses
// and arrival gaps. Every 400 accesses it idles long enough for LR lines
// to reach their refresh and expiry windows.
func tierStream(seed uint64, n int) (ops []bankOp, gaps []int64) {
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		span := uint64(2 << 20)
		if x>>60 < 10 {
			span = 96 << 10
		}
		ops = append(ops, bankOp{addr: (x >> 16) % span &^ 0xff, write: (x>>8)%10 < 4})
		gap := int64(x>>40) % 24
		if i%400 == 399 {
			gap += 400_000
		}
		gaps = append(gaps, gap)
	}
	return ops, gaps
}

// feed drives ops into t from cycle now and returns the final cycle.
func feed(t core.Tier, now int64, ops []bankOp, gaps []int64) int64 {
	for i, op := range ops {
		now += gaps[i]
		t.Access(now, op.addr, op.write)
	}
	return now
}

// tierState is everything a tier reports: statistics, energy, leakage,
// every line of every array, per-line wear, and its DRAM channel.
type tierState struct {
	Stats   core.BankStats
	Hist    []uint64
	Energy  core.Energy
	Leakage float64
	Lines   [][]cache.Line
	Wear    [][]float64
	DRAM    dram.Stats
}

func stateOf(t core.Tier, now int64) tierState {
	t.Tick(now)
	t.Drain(now)
	st := tierState{Stats: *t.Stats(), Energy: *t.Energy(), Leakage: t.LeakageWatts()}
	st.Hist = append(st.Hist, st.Stats.RewriteIntervals.Counts...)
	st.Hist = append(st.Hist, st.Stats.RewriteIntervals.Overflow)
	st.Stats.RewriteIntervals = nil
	var arrays []*cache.Cache
	switch a := t.(type) {
	case core.PartArrayReporter:
		arrays = []*cache.Cache{a.LRArray(), a.HRArray()}
	case core.ArrayReporter:
		arrays = []*cache.Cache{a.Array()}
	}
	for _, c := range arrays {
		var lines []cache.Line
		for set := 0; set < c.Sets(); set++ {
			for way := 0; way < c.Ways; way++ {
				lines = append(lines, c.LineAt(set, way))
			}
		}
		st.Lines = append(st.Lines, lines)
		st.Wear = append(st.Wear, c.WearCounts())
	}
	if mc, ok := t.Backing().(*dram.Controller); ok {
		st.DRAM = mc.Stats
	}
	return st
}

// bottomTier returns a fresh tier of the given level of cfg's chain,
// standing alone on its own DRAM channel.
func bottomTier(t *testing.T, cfg config.GPUConfig, level int) core.Tier {
	t.Helper()
	chain, err := cfg.NewTiers(cfg.NewDRAM())
	if err != nil {
		t.Fatal(err)
	}
	return chain[level]
}

// A tier that ran stream A and was Reset must then behave exactly like a
// fresh tier: fed stream B, both report the same statistics, energy,
// leakage, lines, wear and DRAM traffic. For the two-part tier the
// history before the Reset includes each C4 transition.
func TestTierResetMatchesFresh(t *testing.T) {
	opsA, gapsA := tierStream(1, 3000)
	opsB, gapsB := tierStream(2, 3000)
	type tierCase struct {
		name  string
		cfg   config.GPUConfig
		level int
		// transition, when set, is applied to the two-part tier after
		// stream A, at cycle now.
		transition func(b *core.TwoPartBank, now int64)
	}
	cases := []tierCase{
		{name: "two-part", cfg: config.C1()},
		{name: "two-part/threshold", cfg: config.C1(), transition: func(b *core.TwoPartBank, now int64) {
			b.SetWriteThreshold(now, 4)
		}},
		{name: "two-part/lr-ways", cfg: config.C1(), transition: func(b *core.TwoPartBank, now int64) {
			b.SetLRActiveWays(now, 1)
		}},
		{name: "two-part/hr-retention", cfg: config.C1(), transition: func(b *core.TwoPartBank, now int64) {
			b.SetHRRetention(now, 10*time.Millisecond)
		}},
		{name: "uniform-sram", cfg: config.BaselineSRAM()},
		{name: "uniform-stt", cfg: config.BaselineSTT()},
		{name: "stt-l3", cfg: config.C1L3(), level: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			used := bottomTier(t, tc.cfg, tc.level)
			now := feed(used, 0, opsA, gapsA)
			if tc.transition != nil {
				tp := used.(*core.TwoPartBank)
				tc.transition(tp, now)
				st := tp.Stats()
				if st.ReconfigThreshold+st.ReconfigLRResize+st.ReconfigRetention == 0 {
					t.Fatal("the transition changed nothing")
				}
				now = feed(used, now, opsA[:500], gapsA[:500])
			}
			if used.Stats().Reads+used.Stats().Writes == 0 {
				t.Fatal("stream A reached nothing")
			}
			used.Reset()

			fresh := bottomTier(t, tc.cfg, tc.level)
			endUsed := feed(used, 0, opsB, gapsB)
			endFresh := feed(fresh, 0, opsB, gapsB)
			got, want := stateOf(used, endUsed), stateOf(fresh, endFresh)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("reset tier diverges from a fresh one: %s", firstDiff(got, want))
			}
		})
	}
}

// firstDiff names the first field where two tier states differ.
func firstDiff(got, want tierState) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			return fmt.Sprintf("%s: got %.200v, want %.200v", g.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
	return "no field differs"
}
