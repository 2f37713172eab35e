// Package ingest converts external memory traces into the simulator's
// native recording format. It owns two input syntaxes — the documented
// sttllc-trace/v1 NDJSON interchange format (this file) and the
// GPGPU-Sim/Accel-Sim-style access log (gpgpusim.go) — plus the
// auto-detecting importer that turns either (or a native binary
// recording) into a content-addressed trace.Recording ready for
// sim.ReplayMany, the recording cache, and the service's disk store
// (import.go).
//
// # sttllc-trace/v1
//
// One JSON object per line. The first line is the header and must carry
// the format name:
//
//	{"format":"sttllc-trace/v1","workload":"myapp","config":"C2","line_bytes":256,"sms":15,"end_cycle":90000}
//
// Only "format" is required; the rest default (workload "imported",
// line_bytes 256, sms 15, end_cycle = last record's cycle). Every
// following line is one of:
//
//	{"cycle":120,"addr":"0x7f001200","size":512,"op":"R","sm":3}   // access
//	{"phase":"kernel_2","cycle":41000}                             // kernel-phase marker
//	{"warmup":true,"cycle":20000}                                  // warmup boundary (at most one)
//
// Access fields: "cycle" (required, non-decreasing), "addr" (required;
// a JSON number, or a string of hex digits with or without a 0x prefix
// — a string address is always hex, so "10" and "0x10" are both 16),
// "op" (required, "R" or "W", case-insensitive), "sm" (default 0; must
// be < the header's SM count), and optionally "size" in bytes. A sized
// access expands into one line-aligned record per cache line it
// touches — the shape the bank models replay — while an access with no
// size becomes exactly one record at the raw address. Blank lines and
// lines starting with '#' are ignored.
//
// The parser is streaming — constant memory per line — and validating:
// a malformed line fails immediately with an *Error carrying both the
// 1-based line number and the 0-based index of the offending record.
// Plain access lines take a scanner that allocates nothing (scan.go);
// every other line, and any access line it declines, is decoded by
// encoding/json, which defines the format.
package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"sttllc/internal/config"
	"sttllc/internal/trace"
)

// FormatName is the wire name of the NDJSON interchange format; the
// header line's "format" field must match it exactly. It doubles as the
// content-hash domain tag for imported traces (see HashRecording), so
// an imported trace can never alias a builtin workload's cache key.
const FormatName = "sttllc-trace/v1"

// maxAccessBytes bounds one access's "size": a single reference larger
// than this is a malformed trace, not a workload, and would otherwise
// expand into an unbounded record flood.
const maxAccessBytes = 1 << 20

// maxLineBytes bounds one NDJSON input line.
const maxLineBytes = 1 << 20

// Error reports a malformed input and where it sits: the 1-based line
// of the source file and the 0-based index of the record being decoded
// when the failure hit (the index the next valid access would have
// taken). It is the ingest counterpart of trace.RecordError.
type Error struct {
	Line   int
	Record int
	Err    error
}

func (e *Error) Error() string {
	return fmt.Sprintf("ingest: line %d (record %d): %v", e.Line, e.Record, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Header is the first line of an sttllc-trace/v1 stream.
type Header struct {
	Format   string `json:"format"`
	Workload string `json:"workload,omitempty"`
	Config   string `json:"config,omitempty"`
	// LineBytes is the cache-line granularity sized accesses expand at
	// (default config.BaseLineBytes).
	LineBytes int `json:"line_bytes,omitempty"`
	// SMs bounds the "sm" field of every access (default
	// config.BaseSMs). Replaying an out-of-range SM id would panic in
	// the interconnect, so the parser rejects it here instead.
	SMs int `json:"sms,omitempty"`
	// EndCycle is the final cycle of the traced run (0 = the last
	// record's cycle).
	EndCycle int64 `json:"end_cycle,omitempty"`
}

// line is the union of every sttllc-trace/v1 line shape; pointer fields
// distinguish "absent" from zero.
type line struct {
	// Header fields (first line only).
	Format    string `json:"format,omitempty"`
	Workload  string `json:"workload,omitempty"`
	Config    string `json:"config,omitempty"`
	LineBytes int    `json:"line_bytes,omitempty"`
	SMs       int    `json:"sms,omitempty"`
	EndCycle  int64  `json:"end_cycle,omitempty"`

	// Marker fields.
	Phase  *string `json:"phase,omitempty"`
	Warmup bool    `json:"warmup,omitempty"`

	// Access fields.
	Cycle *int64   `json:"cycle,omitempty"`
	Addr  *address `json:"addr,omitempty"`
	Size  *uint64  `json:"size,omitempty"`
	Op    string   `json:"op,omitempty"`
	SM    *int     `json:"sm,omitempty"`
}

// address accepts a JSON number or a hex string (see parseHexAddr).
type address uint64

func (a *address) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := parseHexAddr([]byte(s))
		if err != nil {
			return err
		}
		*a = address(v)
		return nil
	}
	var v uint64
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("address: %v", err)
	}
	*a = address(v)
	return nil
}

// Parser is the streaming sttllc-trace/v1 decoder. Next returns the
// record stream one line-granular access at a time; markers and header
// metadata accumulate and are folded into the final Recording.
type Parser struct {
	sc      *bufio.Scanner
	header  Header
	started bool
	lineNo  int
	count   int // records emitted
	last    int64

	// pending holds the line-expanded records of the last access;
	// pending[next:] are not yet drained by Next.
	pending []trace.Record
	next    int
	// l and vals hold the line being applied; reused, so a scanned
	// access line allocates nothing.
	l    line
	vals accessVals

	phases      []trace.Phase
	warmupSeen  bool
	warmupIndex int
	warmupCycle int64
	err         error
}

// NewParser starts decoding an sttllc-trace/v1 stream from r.
func NewParser(r io.Reader) *Parser {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	return &Parser{sc: sc}
}

func (p *Parser) fail(err error) error {
	if p.err == nil {
		p.err = &Error{Line: p.lineNo, Record: p.count, Err: err}
	}
	return p.err
}

// Header returns the stream's header, reading it if Next has not. The
// parser validates the header's format name eagerly, so a non-trace
// input fails on its first line.
func (p *Parser) Header() (Header, error) {
	if err := p.start(); err != nil {
		return Header{}, err
	}
	return p.header, nil
}

func (p *Parser) start() error {
	if p.err != nil {
		return p.err
	}
	if p.started {
		return nil
	}
	raw, ok := p.scanLine()
	if !ok {
		if p.err != nil {
			return p.err
		}
		return p.fail(fmt.Errorf("empty input: missing %s header", FormatName))
	}
	var l line
	if err := decodeLine(raw, &l); err != nil {
		return p.fail(err)
	}
	if l.Format != FormatName {
		return p.fail(fmt.Errorf("first line is not a %s header (format %q)", FormatName, l.Format))
	}
	if l.Phase != nil || l.Cycle != nil || l.Addr != nil || l.Warmup {
		return p.fail(fmt.Errorf("header line carries record fields"))
	}
	h := Header{
		Format:   l.Format,
		Workload: l.Workload,
		Config:   l.Config,
		LineBytes: func() int {
			if l.LineBytes != 0 {
				return l.LineBytes
			}
			return config.BaseLineBytes
		}(),
		SMs:      l.SMs,
		EndCycle: l.EndCycle,
	}
	if h.SMs == 0 {
		h.SMs = config.BaseSMs
	}
	if h.LineBytes < 1 || h.LineBytes&(h.LineBytes-1) != 0 {
		return p.fail(fmt.Errorf("line_bytes %d is not a power of two", h.LineBytes))
	}
	if h.SMs < 1 || h.SMs > 256 {
		return p.fail(fmt.Errorf("sms %d outside 1..256", h.SMs))
	}
	if h.EndCycle < 0 {
		return p.fail(fmt.Errorf("negative end_cycle %d", h.EndCycle))
	}
	p.header = h
	p.started = true
	return nil
}

// scanLine advances to the next non-blank, non-comment line. It returns
// false at EOF or on a scanner error (recorded via fail).
func (p *Parser) scanLine() ([]byte, bool) {
	for p.sc.Scan() {
		p.lineNo++
		raw := bytes.TrimSpace(p.sc.Bytes())
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		return raw, true
	}
	if err := p.sc.Err(); err != nil {
		p.fail(err)
	}
	return nil, false
}

func decodeLine(raw []byte, l *line) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(l); err != nil {
		return err
	}
	// Trailing garbage after the object means the line is not NDJSON.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON object")
	}
	return nil
}

// Next returns the next line-granular access record, validating as it
// goes, or io.EOF at a clean end of stream. Marker lines are consumed
// transparently.
func (p *Parser) Next() (trace.Record, error) {
	if err := p.start(); err != nil {
		return trace.Record{}, err
	}
	for {
		if p.next < len(p.pending) {
			rec := p.pending[p.next]
			p.next++
			p.count++
			return rec, nil
		}
		p.pending, p.next = p.pending[:0], 0
		raw, ok := p.scanLine()
		if !ok {
			if p.err != nil {
				return trace.Record{}, p.err
			}
			return trace.Record{}, io.EOF
		}
		if !scanAccess(raw, &p.l, &p.vals) {
			p.l = line{}
			if err := decodeLine(raw, &p.l); err != nil {
				return trace.Record{}, p.fail(err)
			}
		}
		if err := p.apply(&p.l); err != nil {
			return trace.Record{}, err
		}
	}
}

// apply validates one decoded line and either queues its expanded
// records or folds its marker into the parser state.
func (p *Parser) apply(l *line) error {
	if l.Format != "" {
		return p.fail(fmt.Errorf("duplicate header line"))
	}
	switch {
	case l.Phase != nil:
		if l.Addr != nil || l.Op != "" || l.SM != nil || l.Warmup {
			return p.fail(fmt.Errorf("phase marker carries access fields"))
		}
		cycle := p.last
		if l.Cycle != nil {
			cycle = *l.Cycle
		}
		if cycle < p.last {
			return p.fail(fmt.Errorf("phase %q at cycle %d before stream cycle %d", *l.Phase, cycle, p.last))
		}
		p.phases = append(p.phases, trace.Phase{Name: *l.Phase, Index: p.count, Cycle: cycle})
		return nil
	case l.Warmup:
		if l.Addr != nil || l.Op != "" || l.SM != nil {
			return p.fail(fmt.Errorf("warmup marker carries access fields"))
		}
		if p.warmupSeen {
			return p.fail(fmt.Errorf("duplicate warmup marker"))
		}
		cycle := p.last
		if l.Cycle != nil {
			cycle = *l.Cycle
		}
		if cycle < p.last {
			return p.fail(fmt.Errorf("warmup at cycle %d before stream cycle %d", cycle, p.last))
		}
		p.warmupSeen = true
		p.warmupIndex = p.count
		p.warmupCycle = cycle
		return nil
	}
	// Access line.
	if l.Cycle == nil {
		return p.fail(fmt.Errorf("access missing cycle"))
	}
	if l.Addr == nil {
		return p.fail(fmt.Errorf("access missing addr"))
	}
	cycle := *l.Cycle
	if cycle < 0 {
		return p.fail(fmt.Errorf("negative cycle %d", cycle))
	}
	if cycle < p.last {
		return p.fail(fmt.Errorf("cycle %d before previous %d", cycle, p.last))
	}
	if p.header.EndCycle != 0 && cycle > p.header.EndCycle {
		return p.fail(fmt.Errorf("cycle %d beyond declared end_cycle %d", cycle, p.header.EndCycle))
	}
	var write bool
	switch strings.ToUpper(l.Op) {
	case "R":
		write = false
	case "W":
		write = true
	case "":
		return p.fail(fmt.Errorf("access missing op"))
	default:
		return p.fail(fmt.Errorf("op %q is not R or W", l.Op))
	}
	sm := 0
	if l.SM != nil {
		sm = *l.SM
	}
	if sm < 0 || sm >= p.header.SMs {
		return p.fail(fmt.Errorf("sm %d outside 0..%d", sm, p.header.SMs-1))
	}
	addr := uint64(*l.Addr)
	if l.Size == nil {
		// No size: one record at the raw address — the exact shape the
		// simulator records, so export → import round-trips identically.
		p.pending = append(p.pending, trace.Record{
			Cycle: cycle, Addr: addr, SM: uint8(sm), Write: write,
		})
		p.last = cycle
		return nil
	}
	size := *l.Size
	if size == 0 || size > maxAccessBytes {
		return p.fail(fmt.Errorf("size %d outside 1..%d", size, maxAccessBytes))
	}
	lb := uint64(p.header.LineBytes)
	if addr > math.MaxUint64-size {
		return p.fail(fmt.Errorf("access at %#x of %d bytes overflows the address space", addr, size))
	}
	// Expand the byte range into one line-aligned record per touched
	// cache line.
	first := addr &^ (lb - 1)
	last := (addr + size - 1) &^ (lb - 1)
	for a := first; ; a += lb {
		p.pending = append(p.pending, trace.Record{
			Cycle: cycle,
			Addr:  a,
			SM:    uint8(sm),
			Write: write,
		})
		if a == last {
			break
		}
	}
	p.last = cycle
	return nil
}

// Recording drains the parser and assembles the full trace.Recording
// (workload name, phases, warmup boundary, end cycle). The recording's
// WorkloadHash is left empty; Import fills it with the content address.
func (p *Parser) Recording() (*trace.Recording, error) {
	if err := p.start(); err != nil {
		return nil, err
	}
	var records []trace.Record
	for {
		rec, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
	rec := &trace.Recording{
		Workload:    p.header.Workload,
		Config:      p.header.Config,
		EndCycle:    p.header.EndCycle,
		WarmupIndex: p.warmupIndex,
		WarmupCycle: p.warmupCycle,
		Phases:      p.phases,
		Records:     records,
	}
	if rec.Workload == "" {
		rec.Workload = "imported"
	}
	if rec.EndCycle == 0 && len(records) > 0 {
		rec.EndCycle = records[len(records)-1].Cycle
	}
	if err := rec.Validate(); err != nil {
		return nil, &Error{Line: p.lineNo, Record: p.count, Err: err}
	}
	return rec, nil
}

// ParseNDJSON decodes a complete sttllc-trace/v1 stream.
func ParseNDJSON(r io.Reader) (*trace.Recording, error) {
	return NewParser(r).Recording()
}

// WriteNDJSON emits a recording in sttllc-trace/v1 form — the inverse
// of ParseNDJSON, used to export native recordings for other tools and
// to round-trip in tests. Records are written at line granularity with
// no size field, so re-importing reproduces the stream exactly.
func WriteNDJSON(w io.Writer, rec *trace.Recording) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	h := Header{
		Format:   FormatName,
		Workload: rec.Workload,
		Config:   rec.Config,
		EndCycle: rec.EndCycle,
	}
	if err := enc.Encode(h); err != nil {
		return err
	}
	phase := 0
	warmupDue := rec.Warmed()
	emitMarkers := func(i int) error {
		for phase < len(rec.Phases) && rec.Phases[phase].Index == i {
			ph := rec.Phases[phase]
			if err := enc.Encode(map[string]any{"phase": ph.Name, "cycle": ph.Cycle}); err != nil {
				return err
			}
			phase++
		}
		if warmupDue && rec.WarmupIndex == i {
			warmupDue = false
			if err := enc.Encode(map[string]any{"warmup": true, "cycle": rec.WarmupCycle}); err != nil {
				return err
			}
		}
		return nil
	}
	for i, r := range rec.Records {
		if err := emitMarkers(i); err != nil {
			return err
		}
		op := "R"
		if r.Write {
			op = "W"
		}
		line := struct {
			Cycle int64  `json:"cycle"`
			Addr  string `json:"addr"`
			Op    string `json:"op"`
			SM    int    `json:"sm"`
		}{r.Cycle, "0x" + strconv.FormatUint(r.Addr, 16), op, int(r.SM)}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if err := emitMarkers(len(rec.Records)); err != nil {
		return err
	}
	return bw.Flush()
}
