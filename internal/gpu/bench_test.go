package gpu_test

import (
	"math"
	"testing"

	"sttllc/internal/gpu"
	"sttllc/internal/workloads"
)

// flatMem answers every L1 miss and store after a fixed latency, so
// the SM benchmarks measure issue, not the memory system.
type flatMem int64

func (m flatMem) Access(now int64, _ int, _ uint64, _ bool) int64 { return now + int64(m) }

// benchSM is one SM running bfs warps at the occupancy bfs gets on the
// default SM, with more jobs than any benchmark reaches.
func benchSM(b *testing.B) *gpu.SM {
	spec, ok := workloads.ByName("bfs")
	if !ok {
		b.Fatal("bfs missing")
	}
	cfg := gpu.DefaultSMConfig()
	resident := gpu.ResidentWarps(cfg, spec.RegsPerThread, spec.ThreadsPerBlock)
	return gpu.NewSM(0, cfg, spec.Model(), flatMem(200), resident, 0, math.MaxInt32)
}

// BenchmarkSMStep steps the SM the way the simulation loop does
// without run-ahead: the next cycle after an issue, the SM's NextWake
// after a failed attempt. One op is one Step.
func BenchmarkSMStep(b *testing.B) {
	sm := benchSM(b)
	now := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sm.Step(now) {
			now++
		} else {
			now = sm.NextWake(now)
		}
	}
}

// BenchmarkSMRunAhead is BenchmarkSMStep with the simulation loop's
// run-ahead: after each issue the SM commits pure-ALU cycles alone
// until one needs the shared timeline. One op is one Step plus, after
// an issue, one RunAhead.
func BenchmarkSMRunAhead(b *testing.B) {
	sm := benchSM(b)
	now := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sm.Step(now) {
			now = sm.RunAhead(now+1, math.MaxInt64)
		} else {
			now = sm.NextWake(now)
		}
	}
}
