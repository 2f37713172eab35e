package refmodel

import (
	"fmt"
	"reflect"

	"sttllc/internal/cache"
	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/dram"
	"sttllc/internal/trace"
)

// Pair is one optimized bank and its reference twin, each with a
// private DRAM channel of identical configuration so timing feedback
// through the memory controller is part of the comparison. For stacked
// hierarchies, OptL3/RefL3 carry the tier between the bank and DRAM;
// the harness then compares both levels of both stacks.
type Pair struct {
	Name  string
	Opt   core.Bank
	Ref   Bank
	OptL3 core.Bank // nil for two-level organizations
	RefL3 Bank      // nil iff OptL3 is nil
	OptMC *dram.Controller
	RefMC *dram.Controller
}

// Org names a bank organization the differential harness can
// instantiate fresh for each trace.
type Org struct {
	Name string
	New  func() Pair
}

// Organizations returns the bank organizations the harness replays:
// the proposed two-part bank at the paper's C1 and C2 sizings, the
// uniform archival STT-RAM baseline, and the stacked two-tier C2-L3
// hierarchy (two-part L2 chained onto a uniform STT-MRAM L3).
func Organizations() []Org {
	twoPart := func(g config.GPUConfig) Pair {
		optMC, refMC := g.NewDRAM(), g.NewDRAM()
		opt := g.NewBank(optMC).(*core.TwoPartBank)
		return Pair{
			Name:  g.Name,
			Opt:   opt,
			Ref:   NewTwoPart(opt.Config(), refMC),
			OptMC: optMC,
			RefMC: refMC,
		}
	}
	uniform := func(g config.GPUConfig) Pair {
		optMC, refMC := g.NewDRAM(), g.NewDRAM()
		opt := g.NewBank(optMC).(*core.UniformBank)
		return Pair{
			Name:  g.Name,
			Opt:   opt,
			Ref:   NewUniform(opt.Config(), refMC),
			OptMC: optMC,
			RefMC: refMC,
		}
	}
	stacked := func(g config.GPUConfig) Pair {
		optMC, refMC := g.NewDRAM(), g.NewDRAM()
		tiers, err := g.NewTiers(optMC)
		if err != nil {
			panic(err)
		}
		opt := tiers[0].(*core.TwoPartBank)
		optL3 := tiers[1].(*core.UniformBank)
		// Mirror the chain on the reference side: a reference L3 on the
		// reference DRAM channel, and a reference L2 whose miss path
		// drains into it.
		refL3 := NewUniform(optL3.Config(), refMC)
		return Pair{
			Name:  g.Name,
			Opt:   opt,
			Ref:   NewTwoPart(opt.Config(), AsBacking(refL3)),
			OptL3: optL3,
			RefL3: refL3,
			OptMC: optMC,
			RefMC: refMC,
		}
	}
	return []Org{
		{Name: "C1", New: func() Pair { return twoPart(config.C1()) }},
		{Name: "C2", New: func() Pair { return twoPart(config.C2()) }},
		{Name: "baseline-STT", New: func() Pair { return uniform(config.BaselineSTT()) }},
		{Name: "C2-L3", New: func() Pair { return stacked(config.C2L3()) }},
		// C4's bank is structurally C2's; what the differential harness
		// adds for it is the transition path (DiffTransitions applies the
		// controller's reconfigurations to both sides mid-trace).
		{Name: "C4", New: func() Pair { return twoPart(config.C4()) }},
	}
}

// Diff replays the records into both sides of the pair and fails on the
// first divergence: per-access completion time or hit/miss, statistics,
// the energy ledger, array contents at every retention boundary and at
// the end, DRAM controller activity, or an invariant violation on the
// optimized side. Record cycles must be non-decreasing.
func Diff(p Pair, records []trace.Record) error {
	return diff(p, records, -1)
}

// diff is Diff with a warmup boundary before records[warm] (none when
// warm < 0): every tier of both sides rebases its rewrite clock there,
// as a simulation's banks do, so only rewrites of lines first written
// after the boundary enter the rewrite-interval histograms.
func diff(p Pair, records []trace.Record, warm int) error {
	if err := trace.Validate(records); err != nil {
		return fmt.Errorf("%s: %w", p.Name, err)
	}
	period := p.Opt.TickPeriod()
	var boundary int64
	if period > 0 {
		boundary = period
	}
	var end int64
	for i, rec := range records {
		// Drive both sides' retention bookkeeping explicitly at every
		// boundary up to the access, comparing state at each: this is
		// where the expiry wheel is cross-checked against the
		// reference's full scan.
		for period > 0 && boundary <= rec.Cycle {
			p.Opt.Tick(boundary)
			p.Ref.Tick(boundary)
			if err := compareAt(fmt.Sprintf("%s: tick boundary %d", p.Name, boundary), p, boundary); err != nil {
				return err
			}
			boundary += period
		}
		if i == warm {
			p.Opt.RebaseRewriteClock(rec.Cycle)
			p.Ref.RebaseRewriteClock(rec.Cycle)
			if p.OptL3 != nil {
				p.OptL3.RebaseRewriteClock(rec.Cycle)
				p.RefL3.RebaseRewriteClock(rec.Cycle)
			}
		}

		optDone, optHit := p.Opt.Access(rec.Cycle, rec.Addr, rec.Write)
		refDone, refHit := p.Ref.Access(rec.Cycle, rec.Addr, rec.Write)
		ctx := fmt.Sprintf("%s: record %d (cycle %d addr %#x write %v)", p.Name, i, rec.Cycle, rec.Addr, rec.Write)
		if optDone != refDone || optHit != refHit {
			return fmt.Errorf("%s: done/hit diverged: optimized (%d, %v), reference (%d, %v)",
				ctx, optDone, optHit, refDone, refHit)
		}
		if err := compareAt(ctx, p, rec.Cycle); err != nil {
			return err
		}
		end = rec.Cycle
	}

	// Final settle: one last tick at the last access cycle, then drain
	// dirty state top-down (an upper tier's final writebacks land in the
	// tier below before that one drains), then compare everything
	// including array contents and the DRAM channels.
	p.Opt.Tick(end)
	p.Ref.Tick(end)
	p.Opt.Drain(end)
	p.Ref.Drain(end)
	if p.OptL3 != nil {
		p.OptL3.Tick(end)
		p.RefL3.Tick(end)
		p.OptL3.Drain(end)
		p.RefL3.Drain(end)
	}
	ctx := fmt.Sprintf("%s: final state (cycle %d)", p.Name, end)
	if err := compareAt(ctx, p, end); err != nil {
		return err
	}
	if p.OptMC.Stats != p.RefMC.Stats {
		return fmt.Errorf("%s: DRAM stats diverged: optimized %+v, reference %+v",
			ctx, p.OptMC.Stats, p.RefMC.Stats)
	}
	return nil
}

// compareAt checks stats, energy, array contents, and the optimized
// side's invariants at cycle now, on every tier of the pair.
func compareAt(ctx string, p Pair, now int64) error {
	if err := compareTierAt(ctx, p.Opt, p.Ref, now); err != nil {
		return err
	}
	if p.OptL3 != nil {
		return compareTierAt(ctx+" [l3]", p.OptL3, p.RefL3, now)
	}
	return nil
}

func compareTierAt(ctx string, opt core.Bank, ref Bank, now int64) error {
	if err := compareStats(ctx, opt.Stats(), ref.Stats()); err != nil {
		return err
	}
	if err := compareEnergy(ctx, opt.Energy(), ref.Energy()); err != nil {
		return err
	}
	if err := compareContent(ctx, opt, ref); err != nil {
		return err
	}
	return CheckTier(opt, now)
}

// compareStats requires every counter — including the rewrite-interval
// histogram — to match exactly.
func compareStats(ctx string, opt, ref *core.BankStats) error {
	oc, rc := statCounters(opt), statCounters(ref)
	for name, ov := range oc {
		if rv := rc[name]; ov != rv {
			return fmt.Errorf("%s: stat %s diverged: optimized %d, reference %d", ctx, name, ov, rv)
		}
	}
	if !reflect.DeepEqual(opt.RewriteIntervals, ref.RewriteIntervals) {
		return fmt.Errorf("%s: rewrite-interval histogram diverged: optimized %+v, reference %+v",
			ctx, opt.RewriteIntervals, ref.RewriteIntervals)
	}
	return nil
}

// compareEnergy requires bit-identical energy: the reference transcribes
// the spec's accumulation order, so any float difference is a real
// modeling divergence, not roundoff noise.
func compareEnergy(ctx string, opt, ref *core.Energy) error {
	oc, rc := energyComponents(opt), energyComponents(ref)
	for name, ov := range oc {
		if rv := rc[name]; ov != rv {
			return fmt.Errorf("%s: energy %s diverged: optimized %.18g J, reference %.18g J", ctx, name, ov, rv)
		}
	}
	return nil
}

// compareContent requires every line of every array to match: tags,
// valid/dirty state, write counters, stamps, and wear.
func compareContent(ctx string, optBank core.Bank, refBank Bank) error {
	switch opt := optBank.(type) {
	case *core.TwoPartBank:
		ref := refBank.(*RefTwoPart)
		if err := compareArray(ctx, "LR", opt.LRArray(), ref.lr); err != nil {
			return err
		}
		return compareArray(ctx, "HR", opt.HRArray(), ref.hr)
	case *core.UniformBank:
		ref := refBank.(*RefUniform)
		return compareArray(ctx, "uniform", opt.Array(), ref.arr)
	}
	return fmt.Errorf("%s: unknown optimized bank type %T", ctx, optBank)
}

func compareArray(ctx, name string, opt *cache.Cache, ref *refCache) error {
	if opt.Sets() != ref.sets || opt.Ways != ref.ways {
		return fmt.Errorf("%s: %s array geometry mismatch: optimized %dx%d, reference %dx%d",
			ctx, name, opt.Sets(), opt.Ways, ref.sets, ref.ways)
	}
	for set := 0; set < ref.sets; set++ {
		for way := 0; way < ref.ways; way++ {
			ol := opt.LineAt(set, way)
			rl := &ref.lines[set][way]
			mismatch := func(field string, o, r interface{}) error {
				return fmt.Errorf("%s: %s line (%d,%d) %s diverged: optimized %v, reference %v",
					ctx, name, set, way, field, o, r)
			}
			if ol.Valid != rl.valid {
				return mismatch("valid", ol.Valid, rl.valid)
			}
			if !rl.valid {
				continue
			}
			if ol.Tag != rl.tag {
				return mismatch("tag", ol.Tag, rl.tag)
			}
			if ol.Dirty != rl.dirty {
				return mismatch("dirty", ol.Dirty, rl.dirty)
			}
			if ol.WriteCount != rl.wrCount {
				return mismatch("write count", ol.WriteCount, rl.wrCount)
			}
			if ol.LastWriteCycle != rl.lastWrite {
				return mismatch("last-write cycle", ol.LastWriteCycle, rl.lastWrite)
			}
			if ol.RetentionStamp != rl.retStamp {
				return mismatch("retention stamp", ol.RetentionStamp, rl.retStamp)
			}
			if got := opt.UseStampAt(set, way); got != rl.use {
				return mismatch("LRU stamp", got, rl.use)
			}
			if ol.Wear != rl.wear {
				return mismatch("wear", ol.Wear, rl.wear)
			}
		}
	}
	if opt.Stats != ref.stats {
		return fmt.Errorf("%s: %s array stats diverged: optimized %+v, reference %+v",
			ctx, name, opt.Stats, ref.stats)
	}
	return nil
}
