package interconnect

import (
	"testing"
	"testing/quick"
)

func TestStages(t *testing.T) {
	tests := []struct {
		in, out, stages int
	}{
		{15, 6, 4}, // GTX480-like: 15 clusters, 6 banks -> ceil(log2(15)) = 4
		{16, 16, 4},
		{2, 2, 1},
		{1, 1, 1},
		{8, 2, 3},
	}
	for _, tt := range tests {
		n := New(tt.in, tt.out, 2)
		if got, want := n.BaseLatency(), int64(2*tt.stages); got != want {
			t.Errorf("BaseLatency(%dx%d) = %d, want %d (%d stages)", tt.in, tt.out, got, want, tt.stages)
		}
	}
}

func TestBaseLatency(t *testing.T) {
	n := New(16, 16, 2)
	if got := n.BaseLatency(); got != 8 {
		t.Errorf("BaseLatency = %d, want 8", got)
	}
}

func TestNewPanics(t *testing.T) {
	for _, args := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", args)
				}
			}()
			New(args[0], args[1], int64(args[2]))
		}()
	}
}

func TestDeliverUnloaded(t *testing.T) {
	n := New(4, 4, 2)
	if got := n.Deliver(100, 1); got != 100+n.BaseLatency() {
		t.Errorf("unloaded delivery = %d, want %d", got, 100+n.BaseLatency())
	}
	if n.Stats.Transfers != 1 || n.Stats.QueueCycles != 0 {
		t.Errorf("stats = %+v", n.Stats)
	}
}

func TestDeliverSerializesPerPort(t *testing.T) {
	n := New(4, 4, 2)
	a1 := n.Deliver(0, 0)
	a2 := n.Deliver(0, 0)
	a3 := n.Deliver(0, 0)
	if a2 != a1+1 || a3 != a2+1 {
		t.Errorf("same-port deliveries = %d,%d,%d, want consecutive", a1, a2, a3)
	}
	if n.Stats.QueueCycles == 0 {
		t.Error("queueing cycles should be recorded")
	}
	// A different port is not delayed.
	if b := n.Deliver(0, 1); b != n.BaseLatency() {
		t.Errorf("other port delayed: %d", b)
	}
}

func TestDeliverOutOfRangePanics(t *testing.T) {
	n := New(2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range output did not panic")
		}
	}()
	n.Deliver(0, 5)
}

func TestDeliverMonotonePerPort(t *testing.T) {
	// Property: arrivals at one port strictly increase regardless of
	// injection times.
	f := func(times []uint16) bool {
		n := New(8, 8, 2)
		last := int64(-1)
		for _, raw := range times {
			got := n.Deliver(int64(raw), 3)
			if got <= last {
				return false
			}
			last = got
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeliverUncontended(t *testing.T) {
	n := New(4, 4, 2)
	// Out-of-order entry times must not queue behind each other.
	late := n.DeliverUncontended(1000, 2)
	early := n.DeliverUncontended(10, 2)
	if late != 1000+n.BaseLatency() || early != 10+n.BaseLatency() {
		t.Errorf("uncontended deliveries = %d, %d; want pure latency", late, early)
	}
	if n.Stats.Transfers != 2 {
		t.Errorf("transfers = %d, want 2", n.Stats.Transfers)
	}
}

func TestDeliverUncontendedOutOfRangePanics(t *testing.T) {
	n := New(2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range output did not panic")
		}
	}()
	n.DeliverUncontended(0, 7)
}

// BenchmarkDeliver sends a fixed stream of request-network transfers
// from 15 SMs to 6 banks: entry cycles advance 0–3 per transfer, so
// ports serialize some transfers and not others. One op is one Deliver.
func BenchmarkDeliver(b *testing.B) {
	type transfer struct {
		gap    int64
		output int
	}
	stream := make([]transfer, 1<<12)
	x := uint64(1)
	for i := range stream {
		x = x*6364136223846793005 + 1442695040888963407
		stream[i] = transfer{gap: int64(x >> 62), output: int(x>>32) % 6}
	}
	n := New(15, 6, 2)
	now := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := stream[i%len(stream)]
		now += t.gap
		n.Deliver(now, t.output)
	}
}
