package core

import (
	"testing"

	"sttllc/internal/metrics"
	"sttllc/internal/sttram"
)

// The bank hot path — hits and retention ticks — must not allocate in
// steady state: the SoA cache array, the expiry wheel cursor, and the
// bank-owned scan scratch are all designed to reuse their storage. These
// guards pin that budget at zero.

func TestTwoPartSteadyStateAllocFree(t *testing.T) {
	b := newTestBank()
	addrs := []uint64{0x000, 0x040, 0x080}
	now := int64(0)
	// Warm-up: install the working set (write misses fill LR), then push
	// the bank through full refresh and expiry rounds so every lazily
	// grown buffer — cold metadata groups, scan scratch, swap-buffer
	// slots — reaches its steady size before measurement.
	for _, a := range addrs {
		b.Access(now, a, true)
		now += 10
	}
	b.Access(now, 0x10000, false) // HR-resident line via read fill
	now += b.lrRetCy              // crosses refresh boundaries
	b.Tick(now)
	now += b.hrRetCy // expires the HR line
	b.Tick(now)
	for _, a := range addrs { // re-install after expiry drops
		b.Access(now, a, true)
		now += 10
	}

	i := 0
	avg := testing.AllocsPerRun(200, func() {
		// One LR counter window per iteration: every Tick runs a scan,
		// and the write hits restamp the lines so they stay resident.
		now += b.lrTickCy
		a := addrs[i%len(addrs)]
		i++
		b.Tick(now)
		b.Access(now+1, a, true)
		b.Access(now+2, a, false)
	})
	if avg != 0 {
		t.Errorf("two-part steady-state Access/Tick allocates %v per run, want 0", avg)
	}
}

// Registering bank metrics — against a disabled registry, the default
// for every simulation that doesn't ask for stats — must leave the
// steady-state budget at zero: adoption only records pointers, and a
// disabled registry records nothing at all.
func TestTwoPartMetricsKeepSteadyStateAllocFree(t *testing.T) {
	b := newTestBank()
	b.RegisterMetrics(metrics.NewRegistry(false).Scope().Sub("l2.bank0"))
	addrs := []uint64{0x000, 0x040, 0x080}
	now := int64(0)
	for _, a := range addrs {
		b.Access(now, a, true)
		now += 10
	}
	b.Access(now, 0x10000, false)
	now += b.lrRetCy
	b.Tick(now)
	now += b.hrRetCy
	b.Tick(now)
	for _, a := range addrs {
		b.Access(now, a, true)
		now += 10
	}

	i := 0
	avg := testing.AllocsPerRun(200, func() {
		now += b.lrTickCy
		a := addrs[i%len(addrs)]
		i++
		b.Tick(now)
		b.Access(now+1, a, true)
		b.Access(now+2, a, false)
	})
	if avg != 0 {
		t.Errorf("instrumented two-part steady state allocates %v per run, want 0", avg)
	}
}

func TestUniformSteadyStateAllocFree(t *testing.T) {
	b := newUniform(sttram.SRAMCell())
	addrs := []uint64{0x000, 0x040, 0x080}
	now := int64(0)
	for _, a := range addrs {
		b.Access(now, a, true)
		now += 10
	}

	i := 0
	avg := testing.AllocsPerRun(200, func() {
		now += 100
		a := addrs[i%len(addrs)]
		i++
		b.Tick(now)
		b.Access(now+1, a, false)
		b.Access(now+2, a, true)
	})
	if avg != 0 {
		t.Errorf("uniform steady-state Access/Tick allocates %v per run, want 0", avg)
	}
}
