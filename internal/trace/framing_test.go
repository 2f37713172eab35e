package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"
	"testing/iotest"

	"sttllc/internal/config"
	"sttllc/internal/sim"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

// The reader decodes in place from its buffer when a whole record is
// buffered and byte by byte otherwise. Which path a record takes
// depends only on how the underlying reader splits the stream, so
// decoding must not: bytes.Reader hands over 4 KB at a time (nearly
// every record takes the in-place path) and iotest.OneByteReader one
// byte at a time (every record takes the byte-wise path).

// decodeFramings decodes data through both framings and fails unless
// records and errors agree exactly.
func decodeFramings(t *testing.T, data []byte) ([]trace.Record, error) {
	t.Helper()
	whole, wholeErr := trace.ReadAll(bytes.NewReader(data))
	bytewise, bytewiseErr := trace.ReadAll(iotest.OneByteReader(bytes.NewReader(data)))
	if !slices.Equal(whole, bytewise) {
		t.Fatalf("records differ by framing: %d buffered vs %d byte-wise", len(whole), len(bytewise))
	}
	sameError(t, wholeErr, bytewiseErr)

	rec, recErr := trace.ReadRecording(bytes.NewReader(data))
	recBytewise, recBytewiseErr := trace.ReadRecording(iotest.OneByteReader(bytes.NewReader(data)))
	sameError(t, recErr, recBytewiseErr)
	if recErr == nil && !slices.Equal(rec.Records, recBytewise.Records) {
		t.Fatal("ReadRecording records differ by framing")
	}
	return whole, wholeErr
}

func sameError(t *testing.T, a, b error) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("errors differ by framing: %v vs %v", a, b)
	}
	if a == nil {
		return
	}
	if a.Error() != b.Error() {
		t.Fatalf("error messages differ by framing:\n  %v\n  %v", a, b)
	}
	var ra, rb *trace.RecordError
	if errors.As(a, &ra) != errors.As(b, &rb) || (ra != nil && ra.Index != rb.Index) {
		t.Fatalf("record errors differ by framing: %#v vs %#v", ra, rb)
	}
	for _, target := range []error{io.EOF, io.ErrUnexpectedEOF, trace.ErrBadHeader} {
		if errors.Is(a, target) != errors.Is(b, target) {
			t.Fatalf("errors.Is(%v) differs by framing: %v vs %v", target, a, b)
		}
	}
}

// encodeRecord is one record's wire encoding after a record at cycle
// prev.
func encodeRecord(prev int64, r trace.Record) []byte {
	raw := binary.AppendUvarint(nil, uint64(r.Cycle-prev))
	raw = binary.AppendUvarint(raw, r.Addr)
	flags := byte(0)
	if r.Write {
		flags = 1
	}
	return append(raw, r.SM, flags)
}

// splitAt splits encoded recording data around record k: the bytes
// before it, its own encoding, the bytes after it, and the length of
// its cycle-delta varint.
func splitAt(t *testing.T, data []byte, recs []trace.Record, k int) (head, raw, tail []byte, deltaLen int) {
	t.Helper()
	body, prev := 0, int64(0)
	var off int
	for i, r := range recs {
		enc := encodeRecord(prev, r)
		if i == k {
			off, raw = body, enc
			deltaLen = len(binary.AppendUvarint(nil, uint64(r.Cycle-prev)))
		}
		body += len(enc)
		prev = r.Cycle
	}
	hdr := len(data) - body
	off += hdr
	if hdr < 5 || !bytes.Equal(data[off:off+len(raw)], raw) {
		t.Fatal("record encoding does not match the writer's")
	}
	return data[:off:off], raw, data[off+len(raw):], deltaLen
}

func TestReaderFramingIndependent(t *testing.T) {
	spec, _ := workloads.ByName("bfs")
	spec = spec.Scale(0.25)
	spec.WarpsPerSM = 6
	_, rec := sim.Record(config.C1(), spec, sim.Options{})
	var buf bytes.Buffer
	if err := trace.WriteRecording(&buf, rec); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if len(data) < 32<<10 {
		t.Fatalf("recording is %d bytes; want several reader buffers' worth", len(data))
	}

	got, err := decodeFramings(t, data)
	if err != nil || !slices.Equal(got, rec.Records) {
		t.Fatalf("intact recording: %d records, err %v; want %d records", len(got), err, len(rec.Records))
	}

	k := len(rec.Records) / 2
	head, raw, tail, deltaLen := splitAt(t, data, rec.Records, k)
	if raw[deltaLen]&0x80 == 0 {
		t.Fatal("address varint is a single byte; cannot cut inside it")
	}
	overflow := bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64+1)
	flags := slices.Clone(raw)
	flags[len(flags)-1] |= 0x80
	cases := map[string][]byte{
		"truncated mid-varint": slices.Concat(head, raw[:deltaLen+1]),
		"overflowing delta":    slices.Concat(head, overflow, raw, tail),
		"overflowing address":  slices.Concat(head, raw[:deltaLen], overflow, raw[deltaLen:], tail),
		"reserved flag bits":   slices.Concat(head, flags, tail),
		"address beyond MaxAddr": slices.Concat(head, raw[:deltaLen],
			binary.AppendUvarint(nil, trace.DefaultLimits().MaxAddr), raw[len(raw)-2:], tail),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := decodeFramings(t, bad)
			var re *trace.RecordError
			if !errors.As(err, &re) || re.Index != uint64(k) {
				t.Fatalf("err = %v, want a *RecordError at record %d", err, k)
			}
			if !slices.Equal(got, rec.Records[:k]) {
				t.Errorf("decoded %d records before the failure, want %d", len(got), k)
			}
		})
	}
}

// FuzzReader checks the framing-independence property on arbitrary
// bytes: any input decodes to the same records and the same error
// whether the reader is handed the whole stream or one byte at a time.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeFramings(t, data)
	})
}
