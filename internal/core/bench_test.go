package core_test

import (
	"testing"

	"sttllc/internal/config"
)

type bankOp struct {
	addr  uint64
	write bool
}

// bankStream is a fixed synthetic L2 stream: 70% of accesses fall in a
// 64 KB hot set, the rest stream over 4 MB, and 30% are writes.
func bankStream(n int) []bankOp {
	ops := make([]bankOp, n)
	x := uint64(1)
	for i := range ops {
		x = x*6364136223846793005 + 1442695040888963407
		span := uint64(4 << 20)
		if x>>60 < 11 {
			span = 64 << 10
		}
		ops[i] = bankOp{addr: (x >> 16) % span &^ 0x7f, write: (x>>8)%10 < 3}
	}
	return ops
}

// BenchmarkBankAccess replays one fixed stream into one bank's tier
// chain for a C1 two-part bank, a baseline-STT uniform bank and a C1-L3
// chain. Like a replay, it relies on each tier catching its retention
// counters up on access. One op is one access at the top of the chain.
// One untimed pass over the stream first grows the MSHR tables and
// touches every lazily built set group, so each row measures the steady
// state.
func BenchmarkBankAccess(b *testing.B) {
	stream := bankStream(1 << 16)
	for _, tc := range []struct {
		name string
		cfg  config.GPUConfig
	}{
		{"twopart-C1", config.C1()},
		{"uniform-baselineSTT", config.BaselineSTT()},
		{"chain-C1L3", config.C1L3()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tiers, err := tc.cfg.NewTiers(tc.cfg.NewDRAM())
			if err != nil {
				b.Fatal(err)
			}
			top := tiers[0]
			now := int64(0)
			for _, op := range stream {
				top.Access(now, op.addr, op.write)
				now += 2
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := stream[i%len(stream)]
				top.Access(now, op.addr, op.write)
				now += 2
			}
		})
	}
}
