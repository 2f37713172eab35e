// Package config encodes Table 2 of the paper: the GTX480-like baseline
// GPU and the five L2 organizations the evaluation compares — the SRAM
// baseline, the naive 4x archival STT-RAM baseline, and the proposed
// two-part configurations C1 (all saved area to a 4x L2), C2
// (iso-capacity L2, saved area to larger register files), and C3 (2x L2
// plus a register bonus). Register-file sizes for C2/C3 are derived from
// the area model rather than hard-coded, closing the paper's iso-area
// accounting loop.
package config

import (
	"fmt"
	"time"

	"sttllc/internal/arraymodel"
	"sttllc/internal/cache"
	"sttllc/internal/core"
	"sttllc/internal/dram"
	"sttllc/internal/gpu"
)

// L2Kind selects the bank organization.
type L2Kind int

const (
	L2SRAM L2Kind = iota
	L2STTUniform
	L2TwoPart
)

// L2Spec describes the whole (all-bank) L2 organization.
type L2Spec struct {
	Kind L2Kind

	// Uniform organizations.
	TotalBytes int
	Ways       int

	// Two-part organizations (totals across banks).
	HRBytes int
	HRWays  int
	LRBytes int
	LRWays  int

	WriteThreshold   uint8
	BufferBlocks     int
	ParallelSearch   bool
	DisableMigration bool

	// LRRetention overrides the LR part's retention class (0 = the
	// default 1ms cell). Used by the retention-sensitivity sweep.
	LRRetention time.Duration
	// HRRetention overrides the HR part's retention class (0 = the
	// default 40ms cell). Used by the adaptive policy sweep's fixed
	// competitors — the static tiers C4's controller chooses among.
	HRRetention time.Duration
	// Replacement selects the victim policy of every L2 array
	// (default LRU).
	Replacement cache.Policy
	// SRAMLR builds the LR part out of SRAM instead of low-retention
	// STT-RAM — the hybrid design of the related work (Goswami et al.,
	// HPCA'13). Note this breaks the iso-area premise: SRAM bits cost
	// 4x the area, so a same-capacity SRAM LR would not actually fit.
	SRAMLR bool
}

// Capacity returns the total L2 data capacity in bytes.
func (s L2Spec) Capacity() int {
	if s.Kind == L2TwoPart {
		return s.HRBytes + s.LRBytes
	}
	return s.TotalBytes
}

// GPUConfig is one full system configuration.
type GPUConfig struct {
	Name        string
	Description string
	ClockHz     float64
	NumSMs      int
	NumBanks    int // L2 banks == memory controllers (Table 2: 6)
	LineBytes   int // L2 line size (256B)
	SM          gpu.SMConfig
	L2          L2Spec
	// NoCStageCycles is the router latency of one stage of the SM–bank
	// butterfly (Table 2). The port-level NoC charges it once per stage
	// and serializes transfers at each destination port; links inside
	// the butterfly are not modelled.
	NoCStageCycles int64
	// L3 optionally stacks an STT-MRAM tier between the L2 banks and
	// DRAM (the zero value keeps the paper's two-level hierarchy).
	L3 L3Spec
	// DRAM configures each bank's private memory channel (zero fields
	// take the paper's defaults).
	DRAM DRAMSpec
	// Adaptive enables the C4 online reconfiguration controller on a
	// two-part L2 (the zero value keeps the organization static).
	Adaptive AdaptiveSpec
}

// Baseline hardware constants (Table 2).
const (
	BaseClockHz    = 700e6
	BaseSMs        = 15
	BaseBanks      = 6
	BaseLineBytes  = 256
	BaseL2Bytes    = 384 << 10
	BaseL2Ways     = 8
	BaseRegsPerSM  = 32768
	baseNoCStageCy = 2
)

func baseGPU(name, desc string) GPUConfig {
	return GPUConfig{
		Name:           name,
		Description:    desc,
		ClockHz:        BaseClockHz,
		NumSMs:         BaseSMs,
		NumBanks:       BaseBanks,
		LineBytes:      BaseLineBytes,
		SM:             gpu.DefaultSMConfig(),
		NoCStageCycles: baseNoCStageCy,
	}
}

// BaselineSRAM returns the conventional GPU: 384KB 8-way SRAM L2.
func BaselineSRAM() GPUConfig {
	g := baseGPU("baseline-SRAM", "conventional SRAM L2 (GTX480-like)")
	g.L2 = L2Spec{Kind: L2SRAM, TotalBytes: BaseL2Bytes, Ways: BaseL2Ways}
	return g
}

// BaselineSTT returns the naive STT-RAM replacement: same area, so 4x the
// capacity, but archival (10-year) cells with slow, hot writes.
func BaselineSTT() GPUConfig {
	g := baseGPU("baseline-STT", "naive archival STT-RAM L2, 4x capacity at equal area")
	g.L2 = L2Spec{
		Kind:       L2STTUniform,
		TotalBytes: arraymodel.EqualAreaSTTBytes(BaseL2Bytes),
		Ways:       BaseL2Ways,
	}
	return g
}

// twoPart builds an L2Spec with the paper's 7-way HR + 2-way LR split for
// a given total capacity: LR is 1/8 of the total (192KB of 1536KB in C1).
func twoPart(totalBytes int) L2Spec {
	lr := totalBytes / 8
	return L2Spec{
		Kind:           L2TwoPart,
		HRBytes:        totalBytes - lr,
		HRWays:         7,
		LRBytes:        lr,
		LRWays:         2,
		WriteThreshold: 1,
		BufferBlocks:   2,
	}
}

// C1 spends all the saved area on a 4x larger two-part L2
// (1344KB 7-way HR + 192KB 2-way LR).
func C1() GPUConfig {
	g := baseGPU("C1", "4x two-part STT-RAM L2 at equal area")
	g.L2 = twoPart(arraymodel.EqualAreaSTTBytes(BaseL2Bytes))
	return g
}

// C2 keeps the L2 capacity at the SRAM baseline (336KB HR + 48KB LR) and
// spends the saved area on larger per-SM register files.
func C2() GPUConfig {
	g := baseGPU("C2", "iso-capacity two-part STT-RAM L2, saved area to registers")
	g.L2 = twoPart(BaseL2Bytes)
	g.SM.Registers = BaseRegsPerSM + RegisterBonusPerSM(BaseL2Bytes)
	return g
}

// C3 doubles the L2 (672KB HR + 96KB LR) and spends the remaining saved
// area on registers.
func C3() GPUConfig {
	g := baseGPU("C3", "2x two-part STT-RAM L2 plus register bonus")
	g.L2 = twoPart(2 * BaseL2Bytes)
	g.SM.Registers = BaseRegsPerSM + RegisterBonusPerSM(2*BaseL2Bytes)
	return g
}

// RegisterBonusPerSM returns how many extra 32-bit registers each SM
// gains when the SRAM L2 is replaced by an STT-RAM L2 of sttBytes and the
// remaining area goes to register files.
func RegisterBonusPerSM(sttBytes int) int {
	saved := arraymodel.SavedAreaMM2(BaseL2Bytes, sttBytes)
	if saved <= 0 {
		return 0
	}
	return arraymodel.RegistersFromAreaMM2(saved) / BaseSMs
}

// All returns the five configurations in evaluation order.
func All() []GPUConfig {
	return []GPUConfig{BaselineSRAM(), BaselineSTT(), C1(), C2(), C3()}
}

// ByName returns the named configuration, searching the extended set
// (the paper's five plus the stacked-L3 variants).
func ByName(name string) (GPUConfig, bool) {
	for _, g := range Extended() {
		if g.Name == name {
			return g, true
		}
	}
	return GPUConfig{}, false
}

// NewBank compiles the hierarchy and returns the top tier of one bank's
// chain (the L2 the interconnect talks to); lower tiers are reachable
// through the Backing links. Retained for single-bank tools and the
// differential harness; the simulator builds chains via NewTiers.
// Panics on an invalid hierarchy — Validate reports errors instead.
func (g GPUConfig) NewBank(mc *dram.Controller) core.Bank {
	tiers, err := g.NewTiers(mc)
	if err != nil {
		panic(err)
	}
	return tiers[0]
}

// NewDRAM constructs one bank's memory controller from the DRAM spec
// (the zero spec reproduces the paper's 8-bank, 2KB-row channel).
func (g GPUConfig) NewDRAM() *dram.Controller {
	d := g.DRAM.withDefaults()
	return dram.New(d.Banks, d.RowBytes, dram.Timing{
		RowHitLatency:  d.RowHitLatency,
		RowMissLatency: d.RowMissLatency,
		BurstGap:       d.BurstGap,
	})
}

// Table2Row is one row of the reproduced Table 2.
type Table2Row struct {
	Name        string
	RegsPerSM   int
	L2          string
	L2TotalKB   int
	Description string
}

// Table2 reproduces the paper's Table 2 from the configuration code.
func Table2() []Table2Row {
	rows := make([]Table2Row, 0, 5)
	for _, g := range All() {
		var l2 string
		switch g.L2.Kind {
		case L2SRAM:
			l2 = fmt.Sprintf("%dKB %d-way SRAM, %dB line",
				g.L2.TotalBytes>>10, g.L2.Ways, g.LineBytes)
		case L2STTUniform:
			l2 = fmt.Sprintf("%dKB %d-way STT-RAM (10yr), %dB line",
				g.L2.TotalBytes>>10, g.L2.Ways, g.LineBytes)
		case L2TwoPart:
			l2 = fmt.Sprintf("%dKB %d-way HR + %dKB %d-way LR, %dB line",
				g.L2.HRBytes>>10, g.L2.HRWays, g.L2.LRBytes>>10, g.L2.LRWays, g.LineBytes)
		}
		rows = append(rows, Table2Row{
			Name:        g.Name,
			RegsPerSM:   g.SM.Registers,
			L2:          l2,
			L2TotalKB:   g.L2.Capacity() >> 10,
			Description: g.Description,
		})
	}
	return rows
}

// FormatTable2 renders Table 2 as text.
func FormatTable2() string {
	s := fmt.Sprintf("%-14s %10s %8s  %s\n", "Config", "Regs/SM", "L2 KB", "L2 organization")
	for _, r := range Table2() {
		s += fmt.Sprintf("%-14s %10d %8d  %s\n", r.Name, r.RegsPerSM, r.L2TotalKB, r.L2)
	}
	return s
}
