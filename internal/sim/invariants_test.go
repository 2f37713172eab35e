package sim

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"sttllc/internal/config"
	"sttllc/internal/core"
	"sttllc/internal/refmodel"
)

var invariants = flag.Bool("invariants", true,
	"audit live bank state with internal/refmodel's invariant checker during every simulation test")

// TestMain installs the refmodel invariant checker as the package-wide
// default, so every simulation this package runs — golden tests,
// integration tests, replay tests — audits bank state at each
// retention-counter boundary and at drain. Disable with
// -invariants=false to run the bare, observer-free path (CI runs the
// package both ways).
func TestMain(m *testing.M) {
	flag.Parse()
	if *invariants {
		defaultInvariantCheck = func(bank int, b core.Bank, now int64) error {
			return refmodel.CheckBank(b, now)
		}
	}
	os.Exit(m.Run())
}

// TestInvariantCheckHookFires pins that the audit hook actually runs:
// on ticks during the run and once per bank at finalize.
func TestInvariantCheckHookFires(t *testing.T) {
	calls := 0
	cfg := config.C2()
	res := New(cfg, exportSpec(t), Options{
		InvariantCheck: func(bank int, b core.Bank, now int64) error {
			calls++
			return refmodel.CheckBank(b, now)
		},
	}).Run()
	if calls < cfg.NumBanks {
		t.Fatalf("invariant check ran %d times, want at least one per bank (%d)", calls, cfg.NumBanks)
	}
	if res.Instructions == 0 {
		t.Fatal("workload ran no instructions")
	}
}

// TestInvariantViolationPanics pins the failure mode: a checker error
// must abort the run loudly, not be swallowed.
func TestInvariantViolationPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("violation did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "invariant violated") {
			t.Fatalf("panic message %q does not identify the violation", msg)
		}
	}()
	New(config.C2(), exportSpec(t), Options{
		InvariantCheck: func(bank int, b core.Bank, now int64) error {
			return fmt.Errorf("synthetic violation for test")
		},
	}).Run()
}
