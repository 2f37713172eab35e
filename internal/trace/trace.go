// Package trace records and replays L2 access streams in a compact
// binary format (varint-delta encoded). Recorded traces decouple cache
// studies from the timing simulator: a trace captured once can be
// replayed into any bank organization (see sim.ReplayMany), shared, or
// inspected offline — the GPGPU-Sim workflow the paper's
// characterization section depends on.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Record is one L2-bound memory access.
type Record struct {
	// Cycle is the core cycle the access entered the memory system.
	Cycle int64
	// Addr is the (line-aligned or raw) physical address.
	Addr uint64
	// SM is the issuing streaming multiprocessor.
	SM uint8
	// Write distinguishes stores/writebacks from loads.
	Write bool
}

// Format constants. Version 1 is a bare record stream; version 2 (see
// recording.go) prefixes the same stream with a metadata block carrying
// the workload identity, warmup boundary, and kernel-phase markers.
var magic = [4]byte{'S', 'T', 'T', 'T'}

const (
	version          = 1
	versionRecording = 2
)

// flagWrite is the only defined record flag bit; the rest of the flags
// byte is reserved and must be zero.
const flagWrite = 1

// ErrBadHeader reports a stream that is not a trace or has an
// unsupported version.
var ErrBadHeader = errors.New("trace: bad header")

// RecordError reports a corrupt or truncated record and where it sits
// in the stream, so a bad on-disk trace fails at decode time with an
// index instead of surfacing as a bogus replay divergence downstream.
type RecordError struct {
	// Index is the 0-based position of the record that failed to decode.
	Index uint64
	Err   error
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("trace: record %d: %v", e.Index, e.Err)
}

func (e *RecordError) Unwrap() error { return e.Err }

// Writer encodes records onto an io.Writer. Close (or Flush) must be
// called to drain the internal buffer.
type Writer struct {
	w         *bufio.Writer
	lastCycle int64
	count     uint64
	headerOK  bool
}

// NewWriter starts a trace stream on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (w *Writer) writeHeader() error {
	if w.headerOK {
		return nil
	}
	if _, err := w.w.Write(magic[:]); err != nil {
		return err
	}
	if err := w.w.WriteByte(version); err != nil {
		return err
	}
	w.headerOK = true
	return nil
}

// Append encodes one record. Records must be appended in non-decreasing
// cycle order (the natural order the simulator produces).
func (w *Writer) Append(r Record) error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	if r.Cycle < w.lastCycle {
		return fmt.Errorf("trace: cycle %d before previous %d", r.Cycle, w.lastCycle)
	}
	var buf [3*binary.MaxVarintLen64 + 2]byte
	n := binary.PutUvarint(buf[:], uint64(r.Cycle-w.lastCycle))
	n += binary.PutUvarint(buf[n:], r.Addr)
	buf[n] = r.SM
	n++
	flags := byte(0)
	if r.Write {
		flags |= flagWrite
	}
	buf[n] = flags
	n++
	if _, err := w.w.Write(buf[:n]); err != nil {
		return err
	}
	w.lastCycle = r.Cycle
	w.count++
	return nil
}

// Count returns the number of records appended.
func (w *Writer) Count() uint64 { return w.count }

// Flush drains buffered output.
func (w *Writer) Flush() error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	return w.w.Flush()
}

// Limits bounds the values a decoded stream may carry. Zero fields
// disable the corresponding check. A bare v1 trace carries no metadata
// to validate against, so these are the reader-side sanity pass that
// the v2 recording gets from its metadata block: a stream whose
// addresses wander outside the configured space or whose cycles exceed
// a stated end is rejected at the offending record instead of surfacing
// as a bogus replay divergence downstream.
type Limits struct {
	// MaxAddr rejects records whose address is >= MaxAddr (0 = no
	// bound). DefaultLimits sets it above every address segment the
	// synthetic workloads emit.
	MaxAddr uint64
	// MaxCycle rejects records whose cycle exceeds MaxCycle (0 = no
	// bound).
	MaxCycle int64
	// MaxSM rejects records whose SM id is >= MaxSM (0 = no bound).
	// Replaying a record with an out-of-range SM id panics in the
	// interconnect, so importers set this to the target's SM count.
	MaxSM int
}

// DefaultLimits is the bounds pass applied to v1 streams that do not
// configure their own: addresses must fit the simulator's physical
// space. The synthetic address map tops out at the texture segment base
// (3<<40) plus a footprint; 1<<52 leaves every legitimate stream
// untouched while catching framing slips that decode garbage addresses.
func DefaultLimits() Limits {
	return Limits{MaxAddr: 1 << 52}
}

// Reader decodes a trace stream, either format version. Metadata from a
// version-2 recording stream is available through Meta.
type Reader struct {
	r         *bufio.Reader
	lastCycle int64
	index     uint64
	headerOK  bool
	meta      *Recording // non-nil after the header of a v2 stream
	limits    Limits
}

// NewReader reads a trace stream from r, validating records against
// DefaultLimits. Use SetLimits to tighten or disable the bounds.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r), limits: DefaultLimits()}
}

// SetLimits replaces the reader's validation bounds. It must be called
// before the first Next. A zero Limits disables bounds checking.
func (r *Reader) SetLimits(l Limits) { r.limits = l }

func (r *Reader) readHeader() error {
	if r.headerOK {
		return nil
	}
	var h [5]byte
	if _, err := io.ReadFull(r.r, h[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return ErrBadHeader
		}
		return err
	}
	if [4]byte(h[:4]) != magic {
		return ErrBadHeader
	}
	switch h[4] {
	case version:
	case versionRecording:
		meta, err := readMeta(r.r)
		if err != nil {
			return err
		}
		r.meta = meta
	default:
		return ErrBadHeader
	}
	r.headerOK = true
	return nil
}

// Meta returns the metadata block of a version-2 recording stream
// (Records nil — the stream itself follows via Next), or nil for a
// bare version-1 trace. It consumes the header if Next has not.
func (r *Reader) Meta() (*Recording, error) {
	if err := r.readHeader(); err != nil {
		return nil, err
	}
	return r.meta, nil
}

// maxRecordBytes is the longest encoding of one record: two maximal
// uvarints (cycle delta, address) plus the SM and flags bytes.
const maxRecordBytes = 2*binary.MaxVarintLen64 + 2

// Next decodes the next record, validating it as it goes — the same
// ordering/bounds discipline Validate applies to in-memory streams,
// applied incrementally. A corrupt or truncated stream fails at the
// offending record with a *RecordError carrying its index; it returns
// io.EOF at a clean end of stream.
func (r *Reader) Next() (Record, error) {
	if err := r.readHeader(); err != nil {
		return Record{}, err
	}
	delta, addr, sm, flags, err := r.decode()
	if err != nil {
		return Record{}, err
	}
	// The delta encoding cannot produce a decreasing cycle, but it can
	// overflow int64; and set reserved flag bits mean the stream is not
	// ours (or the reader lost record framing).
	if delta > math.MaxInt64 || r.lastCycle > math.MaxInt64-int64(delta) {
		return Record{}, r.corrupt(fmt.Errorf("cycle delta %d after cycle %d overflows int64", delta, r.lastCycle))
	}
	if extra := flags &^ flagWrite; extra != 0 {
		return Record{}, r.corrupt(fmt.Errorf("unknown flag bits %#02x", extra))
	}
	if r.limits.MaxAddr != 0 && addr >= r.limits.MaxAddr {
		return Record{}, r.corrupt(fmt.Errorf("address %#x outside configured space (max %#x)", addr, r.limits.MaxAddr))
	}
	if r.limits.MaxSM != 0 && int(sm) >= r.limits.MaxSM {
		return Record{}, r.corrupt(fmt.Errorf("SM id %d out of range (max %d)", sm, r.limits.MaxSM-1))
	}
	if r.limits.MaxCycle != 0 && r.lastCycle+int64(delta) > r.limits.MaxCycle {
		return Record{}, r.corrupt(fmt.Errorf("cycle %d beyond configured end %d", r.lastCycle+int64(delta), r.limits.MaxCycle))
	}
	r.lastCycle += int64(delta)
	r.index++
	return Record{
		Cycle: r.lastCycle,
		Addr:  addr,
		SM:    sm,
		Write: flags&flagWrite != 0,
	}, nil
}

// decode reads the raw fields of the next record. When a maximal
// record is already buffered it decodes in place from bufio's buffer;
// a record straddling the buffer end, or one that does not decode,
// takes the byte-wise path, so every error comes from decodeBytes.
func (r *Reader) decode() (delta, addr uint64, sm, flags byte, err error) {
	if r.r.Buffered() >= maxRecordBytes {
		buf, _ := r.r.Peek(maxRecordBytes)
		if d, n := binary.Uvarint(buf); n > 0 {
			if a, m := binary.Uvarint(buf[n:]); m > 0 {
				sm, flags = buf[n+m], buf[n+m+1]
				r.r.Discard(n + m + 2)
				return d, a, sm, flags, nil
			}
		}
	}
	return r.decodeBytes()
}

// decodeBytes is decode's byte-wise path.
func (r *Reader) decodeBytes() (delta, addr uint64, sm, flags byte, err error) {
	delta, err = binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return 0, 0, 0, 0, io.EOF
		}
		return 0, 0, 0, 0, r.corrupt(err)
	}
	addr, err = binary.ReadUvarint(r.r)
	if err != nil {
		return 0, 0, 0, 0, r.corrupt(unexpected(err))
	}
	sm, err = r.r.ReadByte()
	if err != nil {
		return 0, 0, 0, 0, r.corrupt(unexpected(err))
	}
	flags, err = r.r.ReadByte()
	if err != nil {
		return 0, 0, 0, 0, r.corrupt(unexpected(err))
	}
	return delta, addr, sm, flags, nil
}

// corrupt wraps a decode failure with the index of the record being
// decoded.
func (r *Reader) corrupt(err error) error {
	return &RecordError{Index: r.index, Err: err}
}

// Validate checks that records form a replayable stream: cycles are
// non-decreasing, the order every bank's Access contract requires and
// the order the writer's delta encoding can represent. Harnesses that
// accept records from outside a Reader (hand-built tests, fuzzers,
// differential replays) should validate before replaying so a malformed
// stream fails here instead of surfacing as a bogus model divergence.
func Validate(records []Record) error {
	for i := 1; i < len(records); i++ {
		if records[i].Cycle < records[i-1].Cycle {
			return fmt.Errorf("trace: record %d: cycle %d before previous %d",
				i, records[i].Cycle, records[i-1].Cycle)
		}
	}
	return nil
}

// ReadAll decodes every record. On error it returns the records
// decoded before the failure.
func ReadAll(rd io.Reader) ([]Record, error) {
	return NewReader(rd).readAll()
}

// decodeChunk is the number of records readAll decodes into each
// fixed-size chunk before the final exactly sized copy.
const decodeChunk = 4096

// readAll decodes the rest of the stream. Records land in fixed-size
// chunks and are copied once into an exactly sized slice, so decoding
// allocates about twice the result instead of append's regrowth
// series. The length is never taken from the stream's own metadata: a
// forged count must not be able to force a huge allocation.
func (r *Reader) readAll() ([]Record, error) {
	var (
		full  [][]Record
		chunk []Record
		n     int
		err   error
	)
	for {
		var rec Record
		if rec, err = r.Next(); err != nil {
			break
		}
		if len(chunk) == cap(chunk) {
			full = append(full, chunk)
			chunk = make([]Record, 0, decodeChunk)
		}
		chunk = append(chunk, rec)
		n++
	}
	if errors.Is(err, io.EOF) {
		err = nil
	}
	if n == 0 {
		return nil, err
	}
	out := make([]Record, 0, n)
	for _, c := range append(full, chunk) {
		out = append(out, c...)
	}
	return out, err
}

func unexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
