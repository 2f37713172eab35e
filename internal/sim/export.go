// Machine-readable stats export: one JSON schema shared by every tool
// that reports simulation results (sttsim, sttexp, sttreport), so
// downstream analysis scripts parse one format instead of scraping
// printf tables. The schema is versioned and pinned by a golden test;
// additions bump the minor shape (new optional fields), removals or
// renames bump the version string.
package sim

import (
	"bytes"
	"encoding/json"
	"io"

	"sttllc/internal/metrics"
	"sttllc/internal/power"
)

// StatsSchema identifies the dump format. Consumers should reject
// dumps whose schema string they don't recognize.
const StatsSchema = "sttllc-stats/v1"

// StatsSchemaV2 marks dumps of multi-tier hierarchies: v1 plus a
// trailing "tiers" array with per-level roll-ups. Two-level runs keep
// emitting v1 byte-identically, so existing consumers and goldens are
// untouched.
const StatsSchemaV2 = "sttllc-stats/v2"

// StatsDump is the machine-readable form of one run's Result, plus
// whatever the run's metrics registry collected.
type StatsDump struct {
	Schema    string `json:"schema"`
	Config    string `json:"config"`
	Benchmark string `json:"benchmark"`

	Cycles        int64   `json:"cycles"`
	Instructions  uint64  `json:"instructions"`
	IPC           float64 `json:"ipc"`
	ResidentWarps int     `json:"resident_warps"`

	L2    L2Dump    `json:"l2"`
	Power PowerDump `json:"power"`

	// Counters is the registry's scalar snapshot (empty without an
	// enabled registry), sorted by name. It encodes as a JSON object in
	// that order, exactly as encoding/json writes the equivalent map.
	Counters metrics.Samples `json:"counters,omitempty"`
	// Histograms are the registry's bucket snapshots, sorted by name.
	Histograms []HistogramDump `json:"histograms,omitempty"`

	// Tiers is the per-level hierarchy roll-up (schema v2 only; absent
	// from two-level runs so v1 dumps stay byte-identical).
	Tiers []TierDump `json:"tiers,omitempty"`
}

// TierDump is one hierarchy level's roll-up across all banks.
type TierDump struct {
	Level          string  `json:"level"`
	Kind           string  `json:"kind"`
	Reads          uint64  `json:"reads"`
	Writes         uint64  `json:"writes"`
	HitRate        float64 `json:"hit_rate"`
	DynamicEnergyJ float64 `json:"dynamic_energy_j"`
	LeakageW       float64 `json:"leakage_w"`
}

// L2Dump carries the merged bank counters and the derived rates the
// paper's figures are built from.
type L2Dump struct {
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`

	HitRate float64 `json:"hit_rate"`
	// LRHitRate is the share of all bank accesses served by the LR
	// part; LRWriteShare is Fig. 5's LR write utilization.
	LRHitRate    float64 `json:"lr_hit_rate"`
	LRWriteShare float64 `json:"lr_write_share"`

	MigrationsToLR      uint64 `json:"migrations_to_lr"`
	EvictionsToHR       uint64 `json:"evictions_to_hr"`
	Refreshes           uint64 `json:"refreshes"`
	LRExpiryDrops       uint64 `json:"lr_expiry_drops"`
	HRExpiries          uint64 `json:"hr_expiries"`
	SwapBufferOverflows uint64 `json:"swap_buffer_overflows"`
	DRAMFills           uint64 `json:"dram_fills"`
	DRAMWritebacks      uint64 `json:"dram_writebacks"`

	// RewriteIntervalsUS is the Fig. 6 histogram (microsecond edges).
	RewriteIntervalsUS *FloatHistogramDump `json:"rewrite_intervals_us,omitempty"`
}

// PowerDump is the L2 power breakdown (Fig. 8b/8c inputs).
type PowerDump struct {
	DynamicEnergyJ float64            `json:"dynamic_energy_j"`
	DynamicW       float64            `json:"dynamic_w"`
	LeakageW       float64            `json:"leakage_w"`
	TotalW         float64            `json:"total_w"`
	Seconds        float64            `json:"seconds"`
	ComponentsJ    map[string]float64 `json:"components_j"`
}

// HistogramDump is one integer-edged registry histogram.
type HistogramDump struct {
	Name     string   `json:"name"`
	Edges    []int64  `json:"edges"`
	Counts   []uint64 `json:"counts"`
	Overflow uint64   `json:"overflow"`
}

// FloatHistogramDump is a float-edged histogram (rewrite intervals).
type FloatHistogramDump struct {
	Edges    []float64 `json:"edges"`
	Counts   []uint64  `json:"counts"`
	Overflow uint64    `json:"overflow"`
}

// Dump converts the result alone; DumpStats also folds in a registry.
func (r Result) Dump() StatsDump {
	d := StatsDump{
		Schema:        StatsSchema,
		Config:        r.Config,
		Benchmark:     r.Benchmark,
		Cycles:        r.Cycles,
		Instructions:  r.Instructions,
		IPC:           r.IPC,
		ResidentWarps: r.ResidentWarps,
	}
	b := &r.Bank
	d.L2 = L2Dump{
		Reads:               b.Reads,
		Writes:              b.Writes,
		HitRate:             b.HitRate(),
		LRWriteShare:        b.LRWriteShare(),
		MigrationsToLR:      b.MigrationsToLR,
		EvictionsToHR:       b.EvictionsToHR,
		Refreshes:           b.Refreshes,
		LRExpiryDrops:       b.LRExpiryDrops,
		HRExpiries:          b.HRExpiries,
		SwapBufferOverflows: b.OverflowWritebacks,
		DRAMFills:           b.DRAMFills,
		DRAMWritebacks:      b.DRAMWritebacks,
	}
	if total := b.Reads + b.Writes; total > 0 {
		d.L2.LRHitRate = float64(b.LRReadHits+b.LRWriteHits) / float64(total)
	}
	if h := b.RewriteIntervals; h != nil && h.N > 0 {
		d.L2.RewriteIntervalsUS = &FloatHistogramDump{
			Edges:    append([]float64(nil), h.Edges...),
			Counts:   append([]uint64(nil), h.Counts...),
			Overflow: h.Overflow,
		}
	}
	comp := make(map[string]float64)
	for _, c := range power.Components() {
		comp[c.String()] = r.Power.EnergyJ[c]
	}
	d.Power = PowerDump{
		DynamicEnergyJ: r.Power.DynamicEnergyJ(),
		DynamicW:       r.Power.DynamicW(),
		LeakageW:       r.Power.LeakageW,
		TotalW:         r.Power.TotalW(),
		Seconds:        r.Power.Seconds,
		ComponentsJ:    comp,
	}
	for _, t := range r.Tiers {
		d.Schema = StatsSchemaV2
		d.Tiers = append(d.Tiers, TierDump{
			Level:          t.Level,
			Kind:           t.Kind,
			Reads:          t.Reads,
			Writes:         t.Writes,
			HitRate:        t.HitRate,
			DynamicEnergyJ: t.DynamicEnergyJ,
			LeakageW:       t.LeakageW,
		})
	}
	return d
}

// DumpStats converts a result and folds in the registry's counters and
// histograms. A nil or disabled registry contributes nothing.
func DumpStats(r Result, reg *metrics.Registry) StatsDump {
	d := r.Dump()
	if reg == nil {
		return d
	}
	d.Counters = reg.Sorted()
	for _, h := range reg.Histograms() {
		d.Histograms = append(d.Histograms, HistogramDump{
			Name:     h.Name,
			Edges:    h.Edges,
			Counts:   h.Counts,
			Overflow: h.Overflow,
		})
	}
	return d
}

// AppendJSON appends d's compact JSON encoding to b: byte for byte what
// json.Marshal(d) writes. The fields before and after Counters go
// through encoding/json; Counters, nearly all of a dump's bytes, is
// written straight from its sorted slice.
func (d *StatsDump) AppendJSON(b []byte) ([]byte, error) {
	head := *d
	head.Counters, head.Histograms, head.Tiers = nil, nil, nil
	hb, err := json.Marshal(&head)
	if err != nil {
		return b, err
	}
	tail, err := json.Marshal(struct {
		Histograms []HistogramDump `json:"histograms,omitempty"`
		Tiers      []TierDump      `json:"tiers,omitempty"`
	}{d.Histograms, d.Tiers})
	if err != nil {
		return b, err
	}
	b = append(b, hb[:len(hb)-1]...) // reopen the object
	if len(d.Counters) > 0 {
		b = append(b, `,"counters":`...)
		b = d.Counters.AppendJSON(b)
	}
	if len(tail) > len("{}") {
		b = append(b, ',')
		return append(b, tail[1:]...), nil
	}
	return append(b, '}'), nil
}

// WriteJSON serializes the dump, indented, with a trailing newline:
// what a json.Encoder with a two-space indent writes.
func (d StatsDump) WriteJSON(w io.Writer) error {
	b, err := d.AppendJSON(nil)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.Grow(2 * len(b))
	json.Indent(&buf, b, "", "  ") // b is valid JSON: Indent cannot fail
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

// WriteStatsDumps serializes a list of dumps as one JSON array — the
// multi-run form sttexp and sttreport emit.
func WriteStatsDumps(w io.Writer, dumps []StatsDump) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dumps)
}
