// Recording: a captured reference stream plus the metadata replay needs
// to stand in for the run that produced it — which workload (by name and
// by content hash, so recordings are shared across jobs that spell the
// same spec differently), which configuration recorded it, where the
// warmup boundary sits, where each kernel phase begins, and the final
// cycle of the recording run (so a replay's power window matches the
// original's).
//
// Wire format (version 2): the version-1 header with version byte 2,
// then a uvarint-length-prefixed JSON metadata block, then the same
// delta-encoded record stream version 1 carries. Readers accept both
// versions, so v1 traces (the fuzz corpus, old recordings) keep
// decoding.
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Phase marks one kernel launch inside a recording: the record index
// where the kernel's traffic begins and the cycle it launched at.
type Phase struct {
	Name string `json:"name"`
	// Index is the position of the phase's first record (== the number
	// of records recorded before the launch).
	Index int   `json:"index"`
	Cycle int64 `json:"cycle"`
}

// Recording is one workload's L2-side reference stream with replay
// metadata. The zero value with only Records set is a valid anonymous
// recording (what a bare v1 trace loads as).
type Recording struct {
	// Workload names the benchmark or application that produced the
	// stream; WorkloadHash is its content address (workloads.Spec.Hash),
	// which is what recording caches key on.
	Workload     string `json:"workload,omitempty"`
	WorkloadHash string `json:"workload_hash,omitempty"`
	// Config names the configuration the stream was recorded under. A
	// replay into the same configuration is bit-identical to the
	// recording run's bank behaviour; replays into other configurations
	// are trace-driven approximations (timing cannot feed back).
	Config string `json:"config,omitempty"`
	// EndCycle is the final cycle of the recording run — usually past
	// the last record's cycle, since the last reply still has to drain.
	// Replays finalize here so retention expiry and the power window
	// match the original run (0 = finalize at the last record).
	EndCycle int64 `json:"end_cycle,omitempty"`
	// WarmupIndex/WarmupCycle mark the recording run's warmup-reset
	// boundary: statistics reset just before record WarmupIndex was
	// issued, at cycle WarmupCycle. Both zero when the run had no
	// warmup.
	WarmupIndex int     `json:"warmup_index,omitempty"`
	WarmupCycle int64   `json:"warmup_cycle,omitempty"`
	Phases      []Phase `json:"phases,omitempty"`

	Records []Record `json:"-"`
}

// Warmed reports whether the recording carries a warmup boundary.
func (rec *Recording) Warmed() bool {
	return rec.WarmupIndex > 0 || rec.WarmupCycle > 0
}

// Validate checks the recording's internal consistency: an ordered
// record stream, marker indices within bounds, and an end cycle that
// does not precede the stream it closes. ReadRecording validates on
// load; harnesses that build recordings by hand should validate before
// replaying.
func (rec *Recording) Validate() error {
	if err := Validate(rec.Records); err != nil {
		return err
	}
	if rec.WarmupIndex < 0 || rec.WarmupIndex > len(rec.Records) {
		return fmt.Errorf("trace: warmup index %d outside stream of %d records",
			rec.WarmupIndex, len(rec.Records))
	}
	if rec.WarmupCycle < 0 {
		return fmt.Errorf("trace: negative warmup cycle %d", rec.WarmupCycle)
	}
	last := 0
	for i, ph := range rec.Phases {
		if ph.Index < last || ph.Index > len(rec.Records) {
			return fmt.Errorf("trace: phase %d (%q) index %d out of order or outside stream of %d records",
				i, ph.Name, ph.Index, len(rec.Records))
		}
		last = ph.Index
	}
	if n := len(rec.Records); n > 0 && rec.EndCycle != 0 && rec.EndCycle < rec.Records[n-1].Cycle {
		return fmt.Errorf("trace: end cycle %d before last record's cycle %d",
			rec.EndCycle, rec.Records[n-1].Cycle)
	}
	return nil
}

// maxMetaBytes bounds the metadata block: real metadata is a few
// hundred bytes, so a huge declared length means a corrupt stream and
// should fail before any allocation.
const maxMetaBytes = 1 << 20

func readMeta(br *bufio.Reader) (*Recording, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: recording metadata length: %w", unexpected(err))
	}
	if n > maxMetaBytes {
		return nil, fmt.Errorf("trace: recording metadata block of %d bytes exceeds the %d limit", n, maxMetaBytes)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("trace: recording metadata: %w", unexpected(err))
	}
	meta := &Recording{}
	if err := json.Unmarshal(buf, meta); err != nil {
		return nil, fmt.Errorf("trace: recording metadata: %w", err)
	}
	return meta, nil
}

// WriteRecording serializes a recording in wire-format version 2.
func WriteRecording(w io.Writer, rec *Recording) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	meta, err := json.Marshal(rec) // Records excluded via json:"-"
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	bw.Write(magic[:])
	bw.WriteByte(versionRecording)
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(meta)))
	bw.Write(lenBuf[:n])
	if _, err := bw.Write(meta); err != nil {
		return err
	}
	sw := &Writer{w: bw, headerOK: true}
	for _, r := range rec.Records {
		if err := sw.Append(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRecording decodes a recording from either wire format: a
// version-2 stream loads with its metadata, a bare version-1 trace
// loads as an anonymous recording (only Records set), so every trace
// ever written remains replayable.
func ReadRecording(rd io.Reader) (*Recording, error) {
	r := NewReader(rd)
	meta, err := r.Meta()
	if err != nil {
		return nil, err
	}
	rec := &Recording{}
	if meta != nil {
		*rec = *meta
	}
	if rec.Records, err = r.readAll(); err != nil {
		return nil, err
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}
