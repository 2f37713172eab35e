package core

import "testing"

// mshrOp is one read miss reaching the MSHR: a lookup at cycle at and,
// if no fill is in flight, an insert completing at cycle done.
type mshrOp struct {
	addr     uint64
	at, done int64
}

// mshrStream is a fixed synthetic miss stream shaped like a bank's:
// lookups at strictly increasing cycles (the bank's front end issues one
// request per cycle), fills that take 200-455 cycles, and one miss in
// five to a line fetched in the last 48 misses, so some merge onto a
// fill still in flight and some find it completed. Most fills are
// never looked up again.
func mshrStream(n int) []mshrOp {
	ops := make([]mshrOp, n)
	recent := make([]uint64, 48)
	x := uint64(88172645463325252)
	var now int64
	for i := range ops {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		now += 1 + int64(x%4)
		addr := (x >> 20) << 7
		if x>>60 < 3 {
			addr = recent[(x>>8)%uint64(len(recent))]
		}
		recent[i%len(recent)] = addr
		ops[i] = mshrOp{addr: addr, at: now, done: now + 200 + int64(x>>32&0xff)}
	}
	return ops
}

// TestMSHRMatchesMap checks the table against a map that never forgets
// a fill: with lookups at increasing cycles, pruning completed fills
// must not change any answer.
func TestMSHRMatchesMap(t *testing.T) {
	m := newMSHR()
	ref := map[uint64]int64{}
	for i, op := range mshrStream(200000) {
		got, ok := m.lookup(op.addr, op.at)
		want, wok := ref[op.addr]
		wok = wok && want > op.at
		if ok != wok || (ok && got != want) {
			t.Fatalf("op %d: lookup(%#x, %d) = (%d, %v), want (%d, %v)", i, op.addr, op.at, got, ok, want, wok)
		}
		if !ok {
			m.insert(op.addr, op.done)
			ref[op.addr] = op.done
		}
	}
	// At most 455/2.5 ≈ 180 fills are in flight at a time, and the
	// table is sized for 16 slots per fill in flight.
	if len(m.slots) > 4096 {
		t.Errorf("table grew to %d slots for at most ~180 fills in flight", len(m.slots))
	}
}

// BenchmarkMSHRLookup drives one MSHR with a bank's read-miss stream:
// a lookup per miss and an insert when no fill is in flight. One op is
// one miss.
func BenchmarkMSHRLookup(b *testing.B) {
	ops := mshrStream(1 << 16)
	m := newMSHR()
	b.ReportAllocs()
	b.ResetTimer()
	var base int64
	for i := 0; i < b.N; i++ {
		k := i % len(ops)
		if k == 0 && i > 0 {
			base += ops[len(ops)-1].done // keep cycles increasing across laps
		}
		op := ops[k]
		if _, ok := m.lookup(op.addr, base+op.at); !ok {
			m.insert(op.addr, base+op.done)
		}
	}
}
