package refmodel

import (
	"fmt"
	"math"
	"reflect"

	"sttllc/internal/cache"
	"sttllc/internal/core"
)

// CheckTier verifies the structural invariants of a live optimized tier
// at cycle now — any level of a hierarchy chain, since every tier is a
// bank. The retention-window bounds assume the tier's Tick has been
// advanced to now (Access does this internally, so checking right after
// an Access or an explicit Tick is always valid). Unknown tier types
// pass vacuously.
func CheckTier(b core.Bank, now int64) error {
	switch b := b.(type) {
	case *core.TwoPartBank:
		return checkTwoPart(b, now)
	case *core.UniformBank:
		return checkUniform(b, now)
	}
	return nil
}

// CheckBank is the historical name for CheckTier, kept for callers that
// predate hierarchy chaining.
func CheckBank(b core.Bank, now int64) error { return CheckTier(b, now) }

func checkTwoPart(b *core.TwoPartBank, now int64) error {
	if err := checkTwoPartConservation(b.Stats()); err != nil {
		return err
	}
	if err := checkEnergy(b.Energy()); err != nil {
		return err
	}
	if err := checkHistogram(b.Stats()); err != nil {
		return err
	}
	if n := b.Stats().RewriteIntervals.N; n > b.Stats().LRWriteHits {
		return fmt.Errorf("rewrite-interval samples (%d) exceed LR write hits (%d)", n, b.Stats().LRWriteHits)
	}
	if err := checkDirtySubsetValid("LR", b.LRArray()); err != nil {
		return err
	}
	if err := checkDirtySubsetValid("HR", b.HRArray()); err != nil {
		return err
	}
	if err := checkDisjoint(b.LRArray(), b.HRArray()); err != nil {
		return err
	}
	lrRet, hrRet := b.RetentionCycles()
	_, hrTick := b.TickCycles()
	// After a scan at boundary t, every surviving LR line was refreshed
	// (stamp = t) or was younger than lrRet-lrTick; by the next boundary
	// its age is below lrRet. HR lines expire at age >= hrRet, checked at
	// boundaries, so between boundaries age stays below hrRet+hrTick.
	if err := checkRetention("LR", b.LRArray(), now, lrRet); err != nil {
		return err
	}
	if err := checkRetention("HR", b.HRArray(), now, hrRet+hrTick); err != nil {
		return err
	}
	if err := b.CheckSwapBuffers(now); err != nil {
		return err
	}
	if err := checkSwapOccupancy(b, now); err != nil {
		return err
	}
	return checkThreshold(b)
}

func checkUniform(b *core.UniformBank, now int64) error {
	s := b.Stats()
	if err := checkCommonConservation(s); err != nil {
		return err
	}
	for name, v := range map[string]uint64{
		"LRReadHits": s.LRReadHits, "LRWriteHits": s.LRWriteHits,
		"LRWriteFills": s.LRWriteFills, "HRReadHits": s.HRReadHits,
		"HRWriteHits": s.HRWriteHits, "HRWriteKept": s.HRWriteKept,
		"HRWriteFills": s.HRWriteFills, "MigrationsToLR": s.MigrationsToLR,
		"EvictionsToHR": s.EvictionsToHR, "Refreshes": s.Refreshes,
		"LRExpiryDrops": s.LRExpiryDrops, "HRExpiries": s.HRExpiries,
		"OverflowWritebacks": s.OverflowWritebacks,
		"ReconfigThreshold":  s.ReconfigThreshold, "ReconfigLRResize": s.ReconfigLRResize,
		"ReconfigRetention": s.ReconfigRetention, "ReconfigDemotions": s.ReconfigDemotions,
	} {
		if v != 0 {
			return fmt.Errorf("uniform bank counted two-part event %s=%d", name, v)
		}
	}
	if err := checkEnergy(b.Energy()); err != nil {
		return err
	}
	e := b.Energy()
	for name, v := range map[string]float64{
		"Migration": e.Migration, "Refresh": e.Refresh,
		"Buffer": e.Buffer, "RCCounters": e.RCCounters,
	} {
		if v != 0 {
			return fmt.Errorf("uniform bank charged two-part energy %s=%g", name, v)
		}
	}
	if err := checkHistogram(s); err != nil {
		return err
	}
	if n := s.RewriteIntervals.N; n > s.WriteHits {
		return fmt.Errorf("rewrite-interval samples (%d) exceed write hits (%d)", n, s.WriteHits)
	}
	return checkDirtySubsetValid("uniform", b.Array())
}

// checkCommonConservation holds for every bank organization.
func checkCommonConservation(s *core.BankStats) error {
	if s.ReadHits > s.Reads {
		return fmt.Errorf("read hits (%d) exceed reads (%d)", s.ReadHits, s.Reads)
	}
	if s.WriteHits > s.Writes {
		return fmt.Errorf("write hits (%d) exceed writes (%d)", s.WriteHits, s.Writes)
	}
	if s.DRAMFills > s.Reads-s.ReadHits {
		return fmt.Errorf("DRAM fills (%d) exceed read misses (%d)", s.DRAMFills, s.Reads-s.ReadHits)
	}
	if s.OverflowWritebacks > s.DRAMWritebacks {
		return fmt.Errorf("overflow writebacks (%d) exceed DRAM writebacks (%d)", s.OverflowWritebacks, s.DRAMWritebacks)
	}
	return nil
}

// checkTwoPartConservation verifies that every arriving access is
// accounted for exactly once by the per-part counters.
func checkTwoPartConservation(s *core.BankStats) error {
	if err := checkCommonConservation(s); err != nil {
		return err
	}
	if got := s.WriteHits + s.LRWriteFills + s.HRWriteFills; got != s.Writes {
		return fmt.Errorf("writes not conserved: hits+fills=%d, writes=%d", got, s.Writes)
	}
	if got := s.LRWriteHits + s.HRWriteHits; got != s.WriteHits {
		return fmt.Errorf("write hits not conserved: LR+HR=%d, total=%d", got, s.WriteHits)
	}
	if got := s.HRWriteKept + s.MigrationsToLR; got != s.HRWriteHits {
		return fmt.Errorf("HR write hits not conserved: kept+migrated=%d, total=%d", got, s.HRWriteHits)
	}
	if got := s.LRReadHits + s.HRReadHits; got != s.ReadHits {
		return fmt.Errorf("read hits not conserved: LR+HR=%d, total=%d", got, s.ReadHits)
	}
	return nil
}

// checkEnergy verifies every ledger component is a finite, non-negative
// number of joules.
func checkEnergy(e *core.Energy) error {
	for name, v := range energyComponents(e) {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("energy component %s is %g J", name, v)
		}
	}
	return nil
}

// checkHistogram verifies the rewrite-interval histogram's internal
// count conservation.
func checkHistogram(s *core.BankStats) error {
	h := s.RewriteIntervals
	if h == nil {
		return nil
	}
	var sum uint64
	for _, c := range h.Counts {
		sum += c
	}
	if sum+h.Overflow != h.N {
		return fmt.Errorf("histogram counts not conserved: buckets+overflow=%d, N=%d", sum+h.Overflow, h.N)
	}
	return nil
}

// checkDirtySubsetValid verifies no invalid line is marked dirty.
func checkDirtySubsetValid(name string, c *cache.Cache) error {
	for set := 0; set < c.Sets(); set++ {
		for wi := 0; wi < c.MaskWords(); wi++ {
			if extra := c.DirtyWord(set, wi) &^ c.ValidWord(set, wi); extra != 0 {
				return fmt.Errorf("%s array set %d: dirty bits %#x set on invalid ways", name, set, extra)
			}
		}
	}
	return nil
}

// checkDisjoint verifies no block is resident in both parts at once.
func checkDisjoint(lr, hr *cache.Cache) error {
	resident := make(map[uint64]struct{})
	lr.Range(func(set, way int, l cache.Line) {
		resident[lr.AddrOf(set, l.Tag)] = struct{}{}
	})
	var err error
	hr.Range(func(set, way int, l cache.Line) {
		if err != nil {
			return
		}
		addr := hr.AddrOf(set, l.Tag)
		if _, ok := resident[addr]; ok {
			err = fmt.Errorf("block %#x resident in both LR and HR", addr)
		}
	})
	return err
}

// checkRetention verifies every valid line's age against the bound the
// scan discipline guarantees at cycle now.
func checkRetention(name string, c *cache.Cache, now, bound int64) error {
	var err error
	c.Range(func(set, way int, l cache.Line) {
		if err != nil {
			return
		}
		if age := now - l.RetentionStamp; age >= bound {
			err = fmt.Errorf("%s line (%d,%d) aged %d cycles at cycle %d, bound %d",
				name, set, way, age, now, bound)
		}
	})
	return err
}

// checkSwapOccupancy verifies neither buffer holds more entries than it
// has slots once completed drains are pruned at cycle now. (Transient
// backpressure reservations beyond capacity live in the pending list but
// hold slots only after earlier drains complete; occupancy counts them,
// so the live total is bounded by capacity plus queued stalls — the
// structural per-slot bound is enforced by CheckSwapBuffers.)
func checkSwapOccupancy(b *core.TwoPartBank, now int64) error {
	hr2lr, lr2hr := b.SwapOccupancy(now)
	if hr2lr < 0 || lr2hr < 0 {
		return fmt.Errorf("negative swap-buffer occupancy hr2lr=%d lr2hr=%d", hr2lr, lr2hr)
	}
	return nil
}

// checkThreshold verifies the WWS threshold stays in the paper's 4-bit
// range and never drops below the configured floor.
func checkThreshold(b *core.TwoPartBank) error {
	th := b.Threshold()
	cfg := b.Config()
	if th > 15 {
		return fmt.Errorf("write threshold %d exceeds 4-bit range", th)
	}
	if th < cfg.WriteThreshold {
		return fmt.Errorf("write threshold %d below configured floor %d", th, cfg.WriteThreshold)
	}
	if !b.ThresholdManaged() && th != cfg.WriteThreshold {
		return fmt.Errorf("static threshold drifted: %d, configured %d", th, cfg.WriteThreshold)
	}
	return nil
}

// statCounters flattens the uint64 fields of BankStats by name, for
// monotonicity checks and differential comparison.
func statCounters(s *core.BankStats) map[string]uint64 {
	out := map[string]uint64{}
	v := reflect.ValueOf(s).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Uint64 {
			out[t.Field(i).Name] = f.Uint()
		}
	}
	if h := s.RewriteIntervals; h != nil {
		out["RewriteIntervals.N"] = h.N
		out["RewriteIntervals.Overflow"] = h.Overflow
		for i, c := range h.Counts {
			out[fmt.Sprintf("RewriteIntervals.Counts[%d]", i)] = c
		}
	}
	return out
}

// energyComponents flattens the float64 fields of Energy by name.
func energyComponents(e *core.Energy) map[string]float64 {
	out := map[string]float64{}
	v := reflect.ValueOf(e).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 {
			out[t.Field(i).Name] = f.Float()
		}
	}
	return out
}

// Checker is a stateful invariant checker: on top of CheckBank it
// verifies that statistics counters and energy components only grow
// between observations. A coordinated decrease (every counter at or
// below its previous value) is treated as a stats reset — the warmup
// boundary — and rebases the baseline instead of failing.
type Checker struct {
	prevStats  map[string]uint64
	prevEnergy map[string]float64
}

// NewChecker returns a Checker with no history; the first observation
// only records a baseline.
func NewChecker() *Checker { return &Checker{} }

// Observe runs CheckBank and the monotonicity checks at cycle now.
func (c *Checker) Observe(b core.Bank, now int64) error {
	if err := CheckBank(b, now); err != nil {
		return err
	}
	curStats := statCounters(b.Stats())
	curEnergy := energyComponents(b.Energy())
	defer func() {
		c.prevStats = curStats
		c.prevEnergy = curEnergy
	}()
	if c.prevStats == nil {
		return nil
	}
	if isStatsReset(curStats, c.prevStats) {
		return nil
	}
	for name, prev := range c.prevStats {
		if cur := curStats[name]; cur < prev {
			return fmt.Errorf("counter %s went backwards: %d -> %d", name, prev, cur)
		}
	}
	for name, prev := range c.prevEnergy {
		if cur := curEnergy[name]; cur < prev {
			return fmt.Errorf("energy component %s went backwards: %g -> %g", name, prev, cur)
		}
	}
	return nil
}

// isStatsReset reports whether the observation looks like ResetStats
// ran between the two snapshots: at least one counter decreased. The
// per-observation CheckBank identities still hold on the new baseline,
// so rebasing loses no checking power.
func isStatsReset(cur, prev map[string]uint64) bool {
	for name, p := range prev {
		if cur[name] < p {
			return true
		}
	}
	return false
}
