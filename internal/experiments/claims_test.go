package experiments

import (
	"sync"
	"testing"

	"sttllc/internal/stats"
)

// Claim tests pin the shapes EXPERIMENTS.md reports, not the numbers:
// experiments_full.txt pins every number, so a recalibration that
// flipped a claim would still pass a regenerated golden. Each test
// names the row it guards and runs the whole suite at claimScale, a
// tenth of the paper's instruction counts, where the claims hold with
// the margins noted beside each check.
const claimScale = 0.1

var (
	claimFig8 = sync.OnceValue(func() Fig8Result {
		return Fig8(Params{Scale: claimScale})
	})
	claimAblation = sync.OnceValue(func() []AblationRow {
		return Ablation(Params{Scale: claimScale},
			[]string{"parallel-search", "no-migration", "tiny-buffers"})
	})
)

// ablationMeans returns the suite means of one variant's Speedup and
// DynPower columns: the "suite means relative to full C1" that
// EXPERIMENTS.md's ablation bullets quote.
func ablationMeans(t *testing.T, variant string) (speedup, dynPower float64) {
	t.Helper()
	var sp, dp []float64
	for _, r := range claimAblation() {
		if r.Variant == variant {
			sp = append(sp, r.Speedup)
			dp = append(dp, r.DynPower)
		}
	}
	if len(sp) == 0 {
		t.Fatalf("ablation has no %q rows", variant)
	}
	return stats.Mean(sp), stats.Mean(dp)
}

// TestClaimFig8aGmeanOrder guards Figure 8a's Gmean row: C1 > C3 >
// baseline-STT > C2 (1.276 > 1.180 > 1.131 > 1.008 at claimScale).
func TestClaimFig8aGmeanOrder(t *testing.T) {
	g := claimFig8().GmeanSpeedup
	order := []string{"C1", "C3", "baseline-STT", "C2"}
	for i := 1; i < len(order); i++ {
		hi, lo := order[i-1], order[i]
		if !(g[hi] > g[lo]) {
			t.Errorf("Figure 8a Gmean: %s %.3f not above %s %.3f (want C1 > C3 > baseline-STT > C2)",
				hi, g[hi], lo, g[lo])
		}
	}
}

// TestClaimAblationParallelSearchCostsEnergy guards the parallel-search
// ablation's mean DynPower: probing LR and HR together costs dynamic
// energy that sequential search saves (1.036 at claimScale).
func TestClaimAblationParallelSearchCostsEnergy(t *testing.T) {
	if _, dp := ablationMeans(t, "parallel-search"); !(dp > 1) {
		t.Errorf("ablation parallel-search mean DynPower = %.3f, want > 1 (sequential search saves energy)", dp)
	}
}

// TestClaimAblationNoMigrationCostsEnergy guards the no-migration
// ablation's mean DynPower: without the LR part every rewrite pays the
// HR write energy (1.030 at claimScale).
func TestClaimAblationNoMigrationCostsEnergy(t *testing.T) {
	if _, dp := ablationMeans(t, "no-migration"); !(dp > 1) {
		t.Errorf("ablation no-migration mean DynPower = %.3f, want > 1", dp)
	}
}

// TestClaimAblationTinyBuffersSlowDown guards the tiny-buffers
// ablation: one swap-buffer block loses speed on average (mean 0.994 at
// claimScale) and most on cfd, the most contested kernel (0.960).
func TestClaimAblationTinyBuffersSlowDown(t *testing.T) {
	if sp, _ := ablationMeans(t, "tiny-buffers"); !(sp < 1) {
		t.Errorf("ablation tiny-buffers mean Speedup = %.3f, want < 1", sp)
	}
	for _, r := range claimAblation() {
		if r.Benchmark == "cfd" && r.Variant == "tiny-buffers" {
			if !(r.Speedup < 0.97) {
				t.Errorf("ablation cfd tiny-buffers Speedup = %.3f, want < 0.97", r.Speedup)
			}
			return
		}
	}
	t.Error("ablation has no cfd tiny-buffers row")
}
