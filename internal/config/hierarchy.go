// Hierarchy specs: the declarative description of a bank's memory
// stack. A GPUConfig compiles into an ordered list of tiers (L2 first,
// optionally a stacked STT-MRAM L3) ending implicitly at the bank's
// DRAM channel, and NewTiers instantiates that list bottom-up into a
// chain of core.Tier values. The stacked-L3 scenario follows the
// related work the paper cites forward to: FUSE-style on-package
// STT-MRAM absorbing off-chip traffic behind the banked L2.
package config

import (
	"fmt"

	"sttllc/internal/arraymodel"
	"sttllc/internal/core"
	"sttllc/internal/dram"
	"sttllc/internal/sttram"
)

// TierKind names a tier implementation in a HierarchySpec.
type TierKind string

const (
	// TierSRAM is a conventional single-technology SRAM bank.
	TierSRAM TierKind = "sram"
	// TierSTTUniform is the naive archival STT-RAM bank.
	TierSTTUniform TierKind = "stt-uniform"
	// TierTwoPart is the paper's LR/HR two-part bank.
	TierTwoPart TierKind = "two-part"
	// TierSTTL3 is a stacked STT-MRAM tier behind the L2.
	TierSTTL3 TierKind = "stt-l3"
)

// CellVariant selects the timing flavor of a stacked STT tier's cell.
type CellVariant string

const (
	// CellReadTuned favors retention (archival cell): read-mostly data
	// sits below the L2 indefinitely at the cost of the full write
	// pulse. The default.
	CellReadTuned CellVariant = "read-tuned"
	// CellWriteTuned relaxes retention to the refresh-free floor,
	// trading retention margin for a shorter, cooler write pulse.
	CellWriteTuned CellVariant = "write-tuned"
)

// TierSpec is one level of a compiled hierarchy: kind, data capacity
// across all banks, associativity, the resolved cell, and (for stacked
// STT tiers) the timing variant. Two-part tiers carry their HR/LR split
// and tuning knobs in the owning GPUConfig's L2Spec; the TierSpec holds
// the tier's headline shape.
type TierSpec struct {
	Kind       TierKind
	TotalBytes int
	Ways       int
	Cell       string
	Variant    CellVariant
}

// HierarchySpec is the ordered tier list, L2 first; every chain ends
// implicitly at the bank's DRAM channel.
type HierarchySpec []TierSpec

// L3Spec configures the optional stacked STT-MRAM L3 tier between the
// L2 banks and DRAM. The zero value disables it (the paper's two-level
// hierarchy).
type L3Spec struct {
	// TotalBytes is the L3 data capacity across all banks (0 = no L3).
	TotalBytes int
	// Ways is the set associativity (0 = the L2 default of 8).
	Ways int
	// Variant picks the cell timing flavor ("" = read-tuned).
	Variant CellVariant
}

// DRAMSpec configures each bank's private memory channel. Zero fields
// take the paper's GTX480-like defaults (8 DRAM banks, 2KB row buffer,
// default GDDR5 timing), so the zero value reproduces NewDRAM's
// historical behavior exactly.
type DRAMSpec struct {
	// Banks is the number of DRAM banks per channel (power of two).
	Banks int
	// RowBytes is the row-buffer size in bytes (power of two).
	RowBytes int
	// Timing overrides, in core cycles (0 = default).
	RowHitLatency  int64
	RowMissLatency int64
	BurstGap       int64
}

// withDefaults resolves zero fields to the paper's values.
func (d DRAMSpec) withDefaults() DRAMSpec {
	def := dram.DefaultTiming()
	if d.Banks == 0 {
		d.Banks = 8
	}
	if d.RowBytes == 0 {
		d.RowBytes = 2048
	}
	if d.RowHitLatency == 0 {
		d.RowHitLatency = def.RowHitLatency
	}
	if d.RowMissLatency == 0 {
		d.RowMissLatency = def.RowMissLatency
	}
	if d.BurstGap == 0 {
		d.BurstGap = def.BurstGap
	}
	return d
}

// validate reports geometry errors dram.New would panic on, plus
// nonsensical timing.
func (d DRAMSpec) validate() error {
	w := d.withDefaults()
	if w.Banks <= 0 || w.Banks&(w.Banks-1) != 0 {
		return fmt.Errorf("dram banks %d must be a positive power of two", w.Banks)
	}
	if w.RowBytes <= 0 || w.RowBytes&(w.RowBytes-1) != 0 {
		return fmt.Errorf("dram row size %d must be a positive power of two", w.RowBytes)
	}
	if w.RowHitLatency < 0 || w.RowMissLatency < 0 || w.BurstGap < 0 {
		return fmt.Errorf("dram timing must be non-negative")
	}
	return nil
}

// lrCell resolves the LR part's cell, honoring the retention-sweep and
// SRAM-LR overrides.
func (g GPUConfig) lrCell() sttram.Cell {
	cell := sttram.LRCell()
	if g.L2.LRRetention > 0 {
		cell = sttram.NewCell(fmt.Sprintf("STT-%v", g.L2.LRRetention), g.L2.LRRetention)
	}
	if g.L2.SRAMLR {
		cell = sttram.SRAMCell()
	}
	return cell
}

// hrCell resolves the HR part's cell, honoring the retention override.
func (g GPUConfig) hrCell() sttram.Cell {
	if g.L2.HRRetention > 0 {
		return sttram.NewCell(fmt.Sprintf("STT-%v", g.L2.HRRetention), g.L2.HRRetention)
	}
	return sttram.HRCell()
}

// l3Cell resolves a stacked tier's cell variant.
func l3Cell(v CellVariant) (sttram.Cell, error) {
	switch v {
	case CellReadTuned:
		return sttram.L3ReadTunedCell(), nil
	case CellWriteTuned:
		return sttram.L3WriteTunedCell(), nil
	default:
		return sttram.Cell{}, fmt.Errorf("unknown L3 cell variant %q", v)
	}
}

// Hierarchy compiles the configuration into its declarative tier list.
// Unknown kinds or variants are errors, not panics, so callers that
// accept untrusted configurations (the service) can reject them
// cleanly.
func (g GPUConfig) Hierarchy() (HierarchySpec, error) {
	var l2 TierSpec
	switch g.L2.Kind {
	case L2SRAM:
		l2 = TierSpec{Kind: TierSRAM, TotalBytes: g.L2.TotalBytes, Ways: g.L2.Ways,
			Cell: sttram.SRAMCell().Name}
	case L2STTUniform:
		l2 = TierSpec{Kind: TierSTTUniform, TotalBytes: g.L2.TotalBytes, Ways: g.L2.Ways,
			Cell: sttram.ArchivalCell().Name}
	case L2TwoPart:
		l2 = TierSpec{Kind: TierTwoPart, TotalBytes: g.L2.Capacity(), Ways: g.L2.HRWays + g.L2.LRWays,
			Cell: g.hrCell().Name + "+" + g.lrCell().Name}
	default:
		return nil, fmt.Errorf("config %s: unknown L2 kind %d", g.Name, g.L2.Kind)
	}
	spec := HierarchySpec{l2}

	if g.L3.TotalBytes < 0 {
		return nil, fmt.Errorf("config %s: negative L3 capacity %d", g.Name, g.L3.TotalBytes)
	}
	if g.L3.TotalBytes > 0 {
		v := g.L3.Variant
		if v == "" {
			v = CellReadTuned
		}
		cell, err := l3Cell(v)
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", g.Name, err)
		}
		ways := g.L3.Ways
		if ways == 0 {
			ways = BaseL2Ways
		}
		spec = append(spec, TierSpec{Kind: TierSTTL3, TotalBytes: g.L3.TotalBytes, Ways: ways,
			Cell: cell.Name, Variant: v})
	}
	return spec, nil
}

// newTier instantiates one tier of the compiled spec on top of back.
func (g GPUConfig) newTier(t TierSpec, back core.Backing) (core.Tier, error) {
	uniform := func(cell sttram.Cell) core.Tier {
		return core.NewUniformBank(core.UniformConfig{
			CapacityBytes: t.TotalBytes / g.NumBanks,
			Ways:          t.Ways,
			LineBytes:     g.LineBytes,
			Cell:          cell,
			ClockHz:       g.ClockHz,
			Replacement:   g.L2.Replacement,
		}, back)
	}
	switch t.Kind {
	case TierSRAM:
		return uniform(sttram.SRAMCell()), nil
	case TierSTTUniform:
		return uniform(sttram.ArchivalCell()), nil
	case TierSTTL3:
		cell, err := l3Cell(t.Variant)
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", g.Name, err)
		}
		return core.NewUniformBank(core.UniformConfig{
			CapacityBytes: t.TotalBytes / g.NumBanks,
			Ways:          t.Ways,
			LineBytes:     g.LineBytes,
			Cell:          cell,
			ClockHz:       g.ClockHz,
		}, back), nil
	case TierTwoPart:
		return core.NewTwoPartBank(core.TwoPartConfig{
			LRBytes:          g.L2.LRBytes / g.NumBanks,
			LRWays:           g.L2.LRWays,
			LRCell:           g.lrCell(),
			HRBytes:          g.L2.HRBytes / g.NumBanks,
			HRWays:           g.L2.HRWays,
			HRCell:           g.hrCell(),
			LineBytes:        g.LineBytes,
			ClockHz:          g.ClockHz,
			WriteThreshold:   g.L2.WriteThreshold,
			BufferBlocks:     g.L2.BufferBlocks,
			ParallelSearch:   g.L2.ParallelSearch,
			DisableMigration: g.L2.DisableMigration,
			Replacement:      g.L2.Replacement,
		}, back), nil
	default:
		return nil, fmt.Errorf("config %s: unknown tier kind %q", g.Name, t.Kind)
	}
}

// NewTiers compiles the hierarchy and instantiates one bank's tier
// chain on top of mc, built bottom-up so each tier's miss path drains
// into the one below it. The returned slice is ordered top-down
// (tiers[0] is the L2 the interconnect talks to).
func (g GPUConfig) NewTiers(mc *dram.Controller) ([]core.Tier, error) {
	spec, err := g.Hierarchy()
	if err != nil {
		return nil, err
	}
	tiers := make([]core.Tier, len(spec))
	var back core.Backing = mc
	for i := len(spec) - 1; i >= 0; i-- {
		t, err := g.newTier(spec[i], back)
		if err != nil {
			return nil, err
		}
		tiers[i] = t
		back = core.AsBacking(t)
	}
	return tiers, nil
}

// Validate compiles the hierarchy and DRAM geometry, reporting any
// configuration error (including ones the constructors would panic on)
// without leaving simulator state behind.
func (g GPUConfig) Validate() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("config %s: %v", g.Name, r)
		}
	}()
	if err := g.DRAM.validate(); err != nil {
		return fmt.Errorf("config %s: %w", g.Name, err)
	}
	if err := g.Adaptive.validate(g); err != nil {
		return fmt.Errorf("config %s: %w", g.Name, err)
	}
	if g.L2.HRRetention > 0 {
		if lr := g.lrCell().Retention; lr > 0 && g.L2.HRRetention < lr {
			// hrTick >= lrTick keeps the bank's TickPeriod the LR scan.
			return fmt.Errorf("config %s: HR retention %v below the LR retention %v",
				g.Name, g.L2.HRRetention, lr)
		}
	}
	if _, err := g.NewTiers(g.NewDRAM()); err != nil {
		return err
	}
	return nil
}

// WithL3 returns a copy of g with a stacked STT-MRAM L3 tier attached.
func WithL3(g GPUConfig, totalBytes, ways int, v CellVariant) GPUConfig {
	g.L3 = L3Spec{TotalBytes: totalBytes, Ways: ways, Variant: v}
	return g
}

// C1L3 stacks a read-tuned L3 of 4x the C1 L2 capacity behind C1's
// two-part L2: the FUSE-style scenario where a large on-package tier
// absorbs off-chip read traffic.
func C1L3() GPUConfig {
	g := WithL3(C1(), 4*arraymodel.EqualAreaSTTBytes(BaseL2Bytes), BaseL2Ways, CellReadTuned)
	g.Name = "C1-L3"
	g.Description = "C1 plus a stacked read-tuned STT-MRAM L3 (4x L2 capacity)"
	return g
}

// C2L3 stacks a write-tuned L3 of 4x the baseline L2 capacity behind
// C2's iso-capacity two-part L2, so the small L2's writebacks land in
// cheap on-package writes instead of DRAM.
func C2L3() GPUConfig {
	g := WithL3(C2(), 4*BaseL2Bytes, BaseL2Ways, CellWriteTuned)
	g.Name = "C2-L3"
	g.Description = "C2 plus a stacked write-tuned STT-MRAM L3 (4x baseline capacity)"
	return g
}

// Extended returns every named configuration: the paper's five (All)
// plus the stacked-L3 variants and the adaptive organization C4.
// Table 2 and the paper-facing sweeps stay on All; name lookup
// (ByName) covers the extended set.
func Extended() []GPUConfig {
	return append(All(), C1L3(), C2L3(), C4())
}
