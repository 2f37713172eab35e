package reliability

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"sttllc/internal/stats"
)

func TestBitFailureProbBasics(t *testing.T) {
	if p := BitFailureProb(0, time.Millisecond); p != 0 {
		t.Errorf("P(0) = %v", p)
	}
	if p := BitFailureProb(time.Millisecond, 0); p != 1 {
		t.Errorf("P with zero tau = %v", p)
	}
	p := BitFailureProb(time.Millisecond, time.Millisecond)
	if math.Abs(p-(1-1/math.E)) > 1e-12 {
		t.Errorf("P(τ) = %v, want 1-1/e", p)
	}
}

func TestBlockFailureProbBounds(t *testing.T) {
	if p := BlockFailureProb(0, time.Millisecond, 2048); p != 0 {
		t.Errorf("block P(0) = %v", p)
	}
	if p := BlockFailureProb(time.Second, 0, 2048); p != 1 {
		t.Errorf("block P with zero tau = %v", p)
	}
	// Block failure must exceed bit failure for bits > 1 but stay <= 1.
	bit := BitFailureProb(time.Microsecond, time.Second)
	blk := BlockFailureProb(time.Microsecond, time.Second, 2048)
	if blk <= bit || blk > 1 {
		t.Errorf("block %v should exceed bit %v and stay <= 1", blk, bit)
	}
	// For tiny p, block ≈ bits * bit.
	if ratio := blk / (2048 * bit); ratio < 0.99 || ratio > 1.01 {
		t.Errorf("small-p approximation off: ratio %v", ratio)
	}
}

func TestBlockFailureMonotoneInAge(t *testing.T) {
	f := func(a, b uint16) bool {
		t1 := time.Duration(a) * time.Microsecond
		t2 := t1 + time.Duration(b)*time.Microsecond
		return BlockFailureProb(t1, time.Second, 2048) <= BlockFailureProb(t2, time.Second, 2048)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThermalTauMeetsTarget(t *testing.T) {
	labeled := time.Millisecond
	tau := ThermalTau(labeled, 2048, TargetBlockFailure)
	if tau <= labeled {
		t.Fatalf("thermal tau (%v) must exceed labeled retention (%v)", tau, labeled)
	}
	got := BlockFailureProb(labeled, tau, 2048)
	if math.Abs(got-TargetBlockFailure)/TargetBlockFailure > 0.01 {
		t.Errorf("failure at labeled age = %v, want %v", got, TargetBlockFailure)
	}
}

func TestThermalTauDegenerate(t *testing.T) {
	if ThermalTau(0, 2048, 1e-4) != 0 {
		t.Error("zero retention should yield zero tau")
	}
	if ThermalTau(time.Millisecond, 0, 1e-4) != 0 {
		t.Error("zero bits should yield zero tau")
	}
	if ThermalTau(time.Millisecond, 2048, 0) != 0 || ThermalTau(time.Millisecond, 2048, 1) != 0 {
		t.Error("out-of-range target should yield zero tau")
	}
}

func TestAnalyzeWithShortRewrites(t *testing.T) {
	// All rewrites within 10µs against a 1ms retention: losses are
	// negligible and nothing needs refresh.
	h := stats.NewHistogram(1, 5, 10, 1000, 2500)
	for i := 0; i < 1000; i++ {
		h.Add(2) // 2µs intervals
	}
	a := Analyze(h, time.Millisecond, 2048)
	if a.LossPerRewrite > TargetBlockFailure {
		t.Errorf("loss/rewrite %v should be below the at-retention target", a.LossPerRewrite)
	}
	if a.RefreshNeededShare != 0 {
		t.Errorf("nothing should need refresh, got %v", a.RefreshNeededShare)
	}
	if a.GuaranteedLoss <= 0 {
		t.Error("guaranteed loss should be the design target, not zero")
	}
}

func TestAnalyzeOverflowNeedsRefresh(t *testing.T) {
	// Intervals beyond the last edge (2.5ms) exceed a 1ms retention:
	// those blocks are lost without refresh.
	h := stats.NewHistogram(1, 5, 10, 1000, 2500)
	for i := 0; i < 90; i++ {
		h.Add(2)
	}
	for i := 0; i < 10; i++ {
		h.Add(5000) // overflow
	}
	a := Analyze(h, time.Millisecond, 2048)
	if math.Abs(a.RefreshNeededShare-0.1) > 1e-9 {
		t.Errorf("refresh-needed share = %v, want 0.1", a.RefreshNeededShare)
	}
	if a.LossPerRewrite < 0.1 {
		t.Errorf("unprotected loss %v should count the overflow as certain loss", a.LossPerRewrite)
	}
}

func TestAnalyzeShortRetentionIsDangerous(t *testing.T) {
	// The same intervals against a 5µs retention: most rewrites arrive
	// after decay started biting; loss without refresh must be far
	// higher than with the 1ms class.
	h := stats.NewHistogram(1, 5, 10, 1000, 2500)
	for i := 0; i < 50; i++ {
		h.Add(0.5)
	}
	for i := 0; i < 50; i++ {
		h.Add(800) // near 1ms
	}
	longA := Analyze(h, time.Millisecond, 2048)
	shortA := Analyze(h, 5*time.Microsecond, 2048)
	if shortA.LossPerRewrite <= longA.LossPerRewrite {
		t.Errorf("5µs retention loss (%v) should dwarf 1ms retention loss (%v)",
			shortA.LossPerRewrite, longA.LossPerRewrite)
	}
}

func TestAnalyzeEmptyHistogram(t *testing.T) {
	a := Analyze(nil, time.Millisecond, 2048)
	if a.LossPerRewrite != 0 || a.RefreshNeededShare != 0 {
		t.Errorf("empty analysis should be zero: %+v", a)
	}
}

func TestWearFrom(t *testing.T) {
	// Hottest line: 1000 writes over 1ms of simulated time.
	w := WearFrom([]float64{1000, 100, 100, 0}, 1e-3)
	if w.MaxWritesPerLine != 1000 {
		t.Errorf("max = %v", w.MaxWritesPerLine)
	}
	if w.MeanWritesPerLine != 300 {
		t.Errorf("mean = %v", w.MeanWritesPerLine)
	}
	if math.Abs(w.Variation-1000.0/300) > 1e-9 {
		t.Errorf("variation = %v", w.Variation)
	}
	// 1e6 writes/sec on the hot line -> 4e12/1e6 s ≈ 46 days ≈ 0.127y.
	if w.LifetimeYears < 0.12 || w.LifetimeYears > 0.14 {
		t.Errorf("lifetime = %v years, want ~0.127", w.LifetimeYears)
	}
}

func TestWearDegenerate(t *testing.T) {
	if w := WearFrom(nil, 1); w.LifetimeYears != 0 {
		t.Errorf("empty wear = %+v", w)
	}
	w := WearFrom([]float64{0, 0}, 1)
	if !math.IsInf(w.LifetimeYears, 1) {
		t.Errorf("no writes should mean infinite lifetime, got %v", w.LifetimeYears)
	}
}

func TestWearVariationLowerBound(t *testing.T) {
	// Property: variation >= 1 whenever any writes happened.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vs := make([]float64, len(raw))
		any := false
		for i, r := range raw {
			vs[i] = float64(r)
			if r > 0 {
				any = true
			}
		}
		if !any {
			return true
		}
		return WearFrom(vs, 1).Variation >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
