package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"unsafe"
)

func sampleRecording() *Recording {
	return &Recording{
		Workload:     "bfs",
		WorkloadHash: "deadbeefdeadbeefdeadbeefdeadbeef",
		Config:       "C1",
		EndCycle:     5000,
		WarmupIndex:  2,
		WarmupCycle:  40,
		Phases:       []Phase{{Name: "bfs", Index: 0, Cycle: 0}},
		Records: []Record{
			{Cycle: 10, Addr: 0x1000, SM: 1},
			{Cycle: 20, Addr: 0x2000, SM: 2, Write: true},
			{Cycle: 50, Addr: 0x1000, SM: 1},
			{Cycle: 70, Addr: 0x3000, SM: 0, Write: true},
		},
	}
}

func TestRecordingRoundTrip(t *testing.T) {
	in := sampleRecording()
	var buf bytes.Buffer
	if err := WriteRecording(&buf, in); err != nil {
		t.Fatalf("WriteRecording: %v", err)
	}
	out, err := ReadRecording(&buf)
	if err != nil {
		t.Fatalf("ReadRecording: %v", err)
	}
	if out.Workload != in.Workload || out.WorkloadHash != in.WorkloadHash ||
		out.Config != in.Config || out.EndCycle != in.EndCycle ||
		out.WarmupIndex != in.WarmupIndex || out.WarmupCycle != in.WarmupCycle {
		t.Errorf("metadata mismatch: %+v vs %+v", out, in)
	}
	if len(out.Phases) != 1 || out.Phases[0] != in.Phases[0] {
		t.Errorf("phases = %+v, want %+v", out.Phases, in.Phases)
	}
	if len(out.Records) != len(in.Records) {
		t.Fatalf("records = %d, want %d", len(out.Records), len(in.Records))
	}
	for i := range in.Records {
		if out.Records[i] != in.Records[i] {
			t.Errorf("record %d = %+v, want %+v", i, out.Records[i], in.Records[i])
		}
	}
}

func TestReadRecordingAcceptsV1(t *testing.T) {
	// Every v1 trace ever written must load as an anonymous recording.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(Record{Cycle: 3, Addr: 0x80, SM: 5, Write: true})
	w.Append(Record{Cycle: 9, Addr: 0x100})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadRecording(&buf)
	if err != nil {
		t.Fatalf("ReadRecording(v1): %v", err)
	}
	if rec.Workload != "" || rec.EndCycle != 0 || rec.Warmed() {
		t.Errorf("v1 trace grew metadata: %+v", rec)
	}
	if len(rec.Records) != 2 || rec.Records[0].Addr != 0x80 {
		t.Errorf("records = %+v", rec.Records)
	}
}

func TestReadAllAcceptsV2(t *testing.T) {
	// Plain stream readers skip the metadata transparently.
	in := sampleRecording()
	var buf bytes.Buffer
	if err := WriteRecording(&buf, in); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll(v2): %v", err)
	}
	if len(recs) != len(in.Records) {
		t.Fatalf("records = %d, want %d", len(recs), len(in.Records))
	}
}

func TestRecordingValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Recording)
	}{
		{"warmup index past stream", func(r *Recording) { r.WarmupIndex = len(r.Records) + 1 }},
		{"negative warmup index", func(r *Recording) { r.WarmupIndex = -1 }},
		{"phase index out of order", func(r *Recording) {
			r.Phases = []Phase{{Name: "a", Index: 3}, {Name: "b", Index: 1}}
		}},
		{"phase index past stream", func(r *Recording) { r.Phases = []Phase{{Index: 99}} }},
		{"end cycle before last record", func(r *Recording) { r.EndCycle = 1 }},
		{"disordered records", func(r *Recording) { r.Records[2].Cycle = 0 }},
	} {
		rec := sampleRecording()
		tc.mutate(rec)
		if err := rec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt recording", tc.name)
		}
		var buf bytes.Buffer
		if err := WriteRecording(&buf, rec); err == nil {
			t.Errorf("%s: WriteRecording accepted a corrupt recording", tc.name)
		}
	}
	if err := sampleRecording().Validate(); err != nil {
		t.Errorf("valid recording rejected: %v", err)
	}
}

func TestCorruptMetadataFailsFast(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(versionRecording)
	var lenBuf [binary.MaxVarintLen64]byte
	// Declared length far past the cap: must fail before allocating.
	n := binary.PutUvarint(lenBuf[:], 1<<40)
	buf.Write(lenBuf[:n])
	if _, err := ReadRecording(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("oversized metadata length accepted")
	}

	buf.Reset()
	buf.Write(magic[:])
	buf.WriteByte(versionRecording)
	n = binary.PutUvarint(lenBuf[:], 4)
	buf.Write(lenBuf[:n])
	buf.WriteString("nope") // not JSON
	if _, err := ReadRecording(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("non-JSON metadata accepted")
	}
}

// TestNextValidatesIncrementally is the regression for the Reader.Next
// gap: corrupt on-disk streams must fail at the offending record with
// its index, not pass garbage downstream.
func TestNextValidatesIncrementally(t *testing.T) {
	encode := func(recs []Record) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		return buf.Bytes()
	}
	stream := encode([]Record{
		{Cycle: 5, Addr: 0x1000, SM: 1},
		{Cycle: 9, Addr: 0x2000, SM: 2, Write: true},
		{Cycle: 9, Addr: 0x3000, SM: 3},
	})

	t.Run("unknown flag bits", func(t *testing.T) {
		bad := bytes.Clone(stream)
		bad[len(bad)-1] |= 0x80 // corrupt the last record's flags byte
		_, err := ReadAll(bytes.NewReader(bad))
		var re *RecordError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v, want *RecordError", err)
		}
		if re.Index != 2 {
			t.Errorf("failing index = %d, want 2", re.Index)
		}
		if !strings.Contains(err.Error(), "record 2") {
			t.Errorf("error does not name the record: %v", err)
		}
	})

	t.Run("cycle overflow", func(t *testing.T) {
		// A delta that would push the running cycle past int64: encode a
		// record whose delta is 2^63 (valid uvarint, invalid cycle).
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Append(Record{Cycle: 10, Addr: 1, SM: 0})
		w.Flush()
		var deltaBuf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(deltaBuf[:], 1<<63)
		raw := buf.Bytes()
		raw = append(raw, deltaBuf[:n]...)
		raw = append(raw, 0x01, 0x00, 0x00) // addr, sm, flags
		_, err := ReadAll(bytes.NewReader(raw))
		var re *RecordError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v, want *RecordError", err)
		}
		if re.Index != 1 {
			t.Errorf("failing index = %d, want 1", re.Index)
		}
	})

	t.Run("truncation carries index", func(t *testing.T) {
		_, err := ReadAll(bytes.NewReader(stream[:len(stream)-1]))
		var re *RecordError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v, want *RecordError", err)
		}
		if re.Index != 2 {
			t.Errorf("failing index = %d, want 2", re.Index)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("truncation should unwrap to ErrUnexpectedEOF, got %v", err)
		}
	})
}

// syntheticRecording encodes an n-record v2 recording with GPU-like
// shapes: small cycle deltas, line-aligned addresses spread over a few
// MB, and a write mix.
func syntheticRecording(tb testing.TB, n int) []byte {
	rec := &Recording{Workload: "synthetic", Phases: []Phase{{Name: "k0"}}}
	rec.Records = make([]Record, n)
	cycle, x := int64(0), uint64(1)
	for i := range rec.Records {
		x = x*6364136223846793005 + 1442695040888963407
		cycle += int64(x >> 61)
		rec.Records[i] = Record{Cycle: cycle, Addr: (x >> 20) % (4 << 20) &^ 0x7f, SM: uint8(x>>8) % 15, Write: x>>40&3 == 0}
	}
	rec.EndCycle = cycle + 100
	var buf bytes.Buffer
	if err := WriteRecording(&buf, rec); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadRecordingAllocBound pins decode allocation to about twice the
// result (chunks plus one exact copy): append regrowth costs ~5x.
func TestReadRecordingAllocBound(t *testing.T) {
	const n = 100_000
	data := syntheticRecording(t, n)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ReadRecording(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	result := float64(n * unsafe.Sizeof(Record{}))
	if got := float64(res.AllocedBytesPerOp()); got > 2.5*result {
		t.Errorf("decoding %d records allocated %.0f B/op = %.2fx the %.0f B result, want <= 2.5x",
			n, got, got/result, result)
	}
}

func BenchmarkReadRecording(b *testing.B) {
	const n = 100_000
	data := syntheticRecording(b, n)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadRecording(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}
