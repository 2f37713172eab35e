package ingest

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"sttllc/internal/trace"
)

// FuzzImporter throws arbitrary bytes at the auto-detecting importer.
// The contract under fuzz: never panic, never loop, and fail only with
// the typed errors the importer documents; and any input that imports
// cleanly must yield a recording that validates, replays (ordered
// stream, in-range SMs), and hashes deterministically.
func FuzzImporter(f *testing.F) {
	f.Add([]byte(`{"format":"sttllc-trace/v1","workload":"w","end_cycle":40}
{"phase":"k0","cycle":0}
{"cycle":1,"addr":"0x1000","op":"R","sm":3}
{"warmup":true,"cycle":2}
{"cycle":3,"addr":4096,"size":512,"op":"W","sm":14}
`))
	f.Add([]byte("# log\nkernel k0 0\n10 3 LD 0x1000 256\n12 14 ST 4096\n"))
	var buf bytes.Buffer
	trace.WriteRecording(&buf, &trace.Recording{
		Workload: "bin",
		Phases:   []trace.Phase{{Name: "k", Index: 0, Cycle: 0}},
		Records:  []trace.Record{{Cycle: 1, Addr: 0x100, SM: 1}, {Cycle: 2, Addr: 0x200, SM: 2, Write: true}},
		EndCycle: 5,
	})
	f.Add(buf.Bytes())
	f.Add([]byte("STTT"))
	f.Add([]byte("{"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Import(bytes.NewReader(data), Options{})
		if err != nil {
			// A rejected input must carry a usable diagnostic: the typed
			// ingest/trace errors place the blame (record index), and the
			// residue (metadata JSON, scanner limits, truncation) must at
			// least stringify.
			var ie *Error
			var re *trace.RecordError
			typed := errors.As(err, &ie) || errors.As(err, &re) ||
				errors.Is(err, trace.ErrBadHeader) || errors.Is(err, io.ErrUnexpectedEOF)
			if !typed && err.Error() == "" {
				t.Fatal("undiagnosable import error")
			}
			return
		}
		if rec.WorkloadHash == "" {
			t.Fatal("clean import without a content address")
		}
		if rec.WorkloadHash != HashRecording(rec) {
			t.Fatal("content address is not deterministic")
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("clean import yielded an invalid recording: %v", err)
		}
		for i, r := range rec.Records {
			if int(r.SM) >= 15 {
				t.Fatalf("record %d carries out-of-range SM %d past the bounds pass", i, r.SM)
			}
		}
	})
}

// FuzzNDJSONLine holds the access-line scanner to encoding/json: any
// line the scanner accepts must decode through decodeLine, the format's
// definition, to an equal line. Lines it declines take decodeLine
// anyway, so they need no check. Reproducers go to
// testdata/fuzz/FuzzNDJSONLine.
func FuzzNDJSONLine(f *testing.F) {
	for _, s := range []string{
		`{"cycle":120,"addr":"0x7f001200","size":512,"op":"R","sm":3}`,
		`{"cycle":0,"addr":4096,"op":"w"}`,
		` { "sm" : 14 , "op" : "W" , "addr" : "ABCdef" , "cycle" : 18446744073709551615 } `,
		`{"cycle":1,"addr":"0x10","op":"R","cycle":2}`,
		`{"Cycle":1,"addr":1,"op":"R"}`,
		`{"cycle":1.0,"addr":1,"op":"R"}`,
		`{"cycle":01,"addr":1,"op":"R"}`,
		`{"cycle":1,"addr":"\u0030x1","op":"R"}`,
		`{"phase":"k","cycle":5}`,
		`{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var fast line
		var v accessVals
		if !scanAccess(raw, &fast, &v) {
			return
		}
		var slow line
		if err := decodeLine(raw, &slow); err != nil {
			t.Fatalf("scanner accepted %q, which decodeLine rejects: %v", raw, err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("%q: scanner decoded %+v, decodeLine %+v", raw, fast, slow)
		}
	})
}
