package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"sttllc/internal/config"
	"sttllc/internal/sim"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

func TestParseNDJSONBasic(t *testing.T) {
	in := `{"format":"sttllc-trace/v1","workload":"demo","config":"C2","line_bytes":256,"sms":15,"end_cycle":500}
# a comment line

{"phase":"k0","cycle":0}
{"cycle":10,"addr":"0x1000","op":"R","sm":3}
{"cycle":12,"addr":4608,"op":"w","sm":14}
{"warmup":true,"cycle":15}
{"cycle":20,"addr":"0x2080","size":512,"op":"W","sm":0}
`
	rec, err := ParseNDJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workload != "demo" || rec.Config != "C2" || rec.EndCycle != 500 {
		t.Errorf("metadata = %q/%q/%d", rec.Workload, rec.Config, rec.EndCycle)
	}
	// The sized access at 0x2080 (not line-aligned) spans 0x2000..0x2280
	// → three 256B lines.
	want := []trace.Record{
		{Cycle: 10, Addr: 0x1000, SM: 3},
		{Cycle: 12, Addr: 4608, SM: 14, Write: true},
		{Cycle: 20, Addr: 0x2000, SM: 0, Write: true},
		{Cycle: 20, Addr: 0x2100, SM: 0, Write: true},
		{Cycle: 20, Addr: 0x2200, SM: 0, Write: true},
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("records = %d, want %d: %+v", len(rec.Records), len(want), rec.Records)
	}
	for i := range want {
		if rec.Records[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, rec.Records[i], want[i])
		}
	}
	if len(rec.Phases) != 1 || rec.Phases[0] != (trace.Phase{Name: "k0", Index: 0, Cycle: 0}) {
		t.Errorf("phases = %+v", rec.Phases)
	}
	if rec.WarmupIndex != 2 || rec.WarmupCycle != 15 {
		t.Errorf("warmup = %d@%d, want 2@15", rec.WarmupIndex, rec.WarmupCycle)
	}
}

// TestParseNDJSONErrors is the table-driven malformed-input pass: every
// case pins the 1-based line and 0-based record index the parser blames.
func TestParseNDJSONErrors(t *testing.T) {
	const header = `{"format":"sttllc-trace/v1"}` + "\n"
	cases := []struct {
		name       string
		in         string
		wantLine   int
		wantRecord int
	}{
		{"empty input", "", 0, 0},
		{"not a header", `{"cycle":1,"addr":1,"op":"R"}` + "\n", 1, 0},
		{"wrong format name", `{"format":"sttllc-trace/v99"}` + "\n", 1, 0},
		{"header with record fields", `{"format":"sttllc-trace/v1","cycle":5}` + "\n", 1, 0},
		{"duplicate header", header + header, 2, 0},
		{"unknown field", header + `{"cycle":1,"addr":1,"op":"R","bogus":1}` + "\n", 2, 0},
		{"not json", header + "12 7 R 0x80\n", 2, 0},
		{"trailing garbage", header + `{"cycle":1,"addr":1,"op":"R"} tail` + "\n", 2, 0},
		{"missing op", header + `{"cycle":1,"addr":1}` + "\n", 2, 0},
		{"bad op", header + `{"cycle":1,"addr":1,"op":"X"}` + "\n", 2, 0},
		{"missing addr", header + `{"cycle":1,"op":"R"}` + "\n", 2, 0},
		{"bad hex addr", header + `{"cycle":1,"addr":"0xzz","op":"R"}` + "\n", 2, 0},
		{"negative cycle", header + `{"cycle":-1,"addr":1,"op":"R"}` + "\n", 2, 0},
		{"sm out of range", header + `{"cycle":1,"addr":1,"op":"R","sm":15}` + "\n", 2, 0},
		{"zero size", header + `{"cycle":1,"addr":1,"op":"R","size":0}` + "\n", 2, 0},
		{"huge size", header + `{"cycle":1,"addr":1,"op":"R","size":2097152}` + "\n", 2, 0},
		{"time travel", header +
			`{"cycle":9,"addr":1,"op":"R"}` + "\n" +
			`{"cycle":8,"addr":1,"op":"R"}` + "\n", 3, 1},
		{"beyond end_cycle", `{"format":"sttllc-trace/v1","end_cycle":10}` + "\n" +
			`{"cycle":11,"addr":1,"op":"R"}` + "\n", 2, 0},
		{"phase with access fields", header + `{"phase":"k","op":"R"}` + "\n", 2, 0},
		{"phase before stream cycle", header +
			`{"cycle":50,"addr":1,"op":"R"}` + "\n" +
			`{"phase":"k","cycle":10}` + "\n", 3, 1},
		{"duplicate warmup", header +
			`{"warmup":true,"cycle":1}` + "\n" +
			`{"warmup":true,"cycle":2}` + "\n", 3, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseNDJSON(strings.NewReader(tc.in))
			var ie *Error
			if !errors.As(err, &ie) {
				t.Fatalf("err = %v, want *ingest.Error", err)
			}
			if ie.Line != tc.wantLine || ie.Record != tc.wantRecord {
				t.Errorf("blamed line %d record %d, want line %d record %d (%v)",
					ie.Line, ie.Record, tc.wantLine, tc.wantRecord, ie)
			}
		})
	}
}

// TestParseErrorUnwraps checks that a read failure surfaces through the
// positioned *Error: callers can still match the underlying cause.
func TestParseErrorUnwraps(t *testing.T) {
	cause := errors.New("disk on fire")
	in := io.MultiReader(strings.NewReader(`{"format":"sttllc-trace/v1"}`+"\n"), iotest.ErrReader(cause))
	_, err := ParseNDJSON(in)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want it to wrap %v", err, cause)
	}
	// The error names the line the reader failed on, after the header.
	var ie *Error
	if !errors.As(err, &ie) || ie.Line != 2 || ie.Record != 0 {
		t.Errorf("err = %#v, want *ingest.Error at line 2 record 0", err)
	}
}

func TestParserStreamsWithIndexes(t *testing.T) {
	// The streaming API surfaces records one at a time and fails at the
	// offending record without returning the earlier, valid ones wrong.
	in := `{"format":"sttllc-trace/v1"}
{"cycle":1,"addr":"0x100","op":"R"}
{"cycle":2,"addr":"0x200","op":"W","sm":1}
{"cycle":1,"addr":"0x300","op":"R"}
`
	p := NewParser(strings.NewReader(in))
	if _, err := p.Next(); err != nil {
		t.Fatalf("record 0: %v", err)
	}
	if _, err := p.Next(); err != nil {
		t.Fatalf("record 1: %v", err)
	}
	_, err := p.Next()
	var ie *Error
	if !errors.As(err, &ie) || ie.Record != 2 || ie.Line != 4 {
		t.Fatalf("err = %v, want *ingest.Error at line 4 record 2", err)
	}
	// The failure is sticky.
	if _, err2 := p.Next(); !errors.Is(err2, err) && err2 == nil {
		t.Error("parser kept going after a failure")
	}
}

func TestGPGPUSimFixture(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "gpgpusim_small.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := Import(f, Options{Workload: "vector"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workload != "vector" {
		t.Errorf("workload = %q", rec.Workload)
	}
	if len(rec.Phases) != 2 || rec.Phases[0].Name != "vector_init" || rec.Phases[1].Name != "vector_scale" {
		t.Fatalf("phases = %+v", rec.Phases)
	}
	if rec.Phases[1].Index != 15 || rec.Phases[1].Cycle != 60 {
		t.Errorf("second phase = %+v, want index 15 cycle 60", rec.Phases[1])
	}
	// 15 single-line stores + 7×2-line loads + 1 load (82) + 8 stores +
	// 4 unsized loads + 3×4-line loads + 3×2-line stores.
	want := 15 + 7*2 + 1 + 8 + 4 + 3*4 + 3*2
	if len(rec.Records) != want {
		t.Errorf("records = %d, want %d", len(rec.Records), want)
	}
	if rec.EndCycle != 170 {
		t.Errorf("end cycle = %d, want 170", rec.EndCycle)
	}
	if rec.WorkloadHash == "" || len(rec.WorkloadHash) != 32 {
		t.Errorf("workload hash = %q", rec.WorkloadHash)
	}
	if err := rec.Validate(); err != nil {
		t.Errorf("fixture recording invalid: %v", err)
	}
}

func TestGPGPUSimErrors(t *testing.T) {
	cases := []struct {
		name     string
		in       string
		wantLine int
	}{
		{"short access", "10 3 R\n", 1},
		{"bad cycle", "x 3 R 0x80\n", 1},
		{"bad op", "10 3 Q 0x80\n", 1},
		{"bad addr", "10 3 R zz..\n", 1},
		{"sm out of range", "10 15 R 0x80\n", 1},
		{"time travel", "10 3 R 0x80\n9 3 R 0x80\n", 2},
		{"kernel marker arity", "kernel\n", 1},
		{"kernel time travel", "10 3 R 0x80\nkernel k 5\n", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseGPGPUSim(strings.NewReader(tc.in), Options{})
			var ie *Error
			if !errors.As(err, &ie) {
				t.Fatalf("err = %v, want *ingest.Error", err)
			}
			if ie.Line != tc.wantLine {
				t.Errorf("blamed line %d, want %d (%v)", ie.Line, tc.wantLine, ie)
			}
		})
	}
}

func TestGPGPUSimFoldSM(t *testing.T) {
	in := "10 44 R 0x80\n"
	if _, err := ParseGPGPUSim(strings.NewReader(in), Options{}); err == nil {
		t.Error("sm 44 should be rejected without FoldSM")
	}
	rec, err := ParseGPGPUSim(strings.NewReader(in), Options{FoldSM: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Records[0].SM; got != 44%config.BaseSMs {
		t.Errorf("folded sm = %d, want %d", got, 44%config.BaseSMs)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "gpgpusim_small.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig, err := Import(f, Options{Workload: "vector"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Import(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatalf("re-import: %v", err)
	}
	if len(back.Records) != len(orig.Records) {
		t.Fatalf("round trip: %d records, want %d", len(back.Records), len(orig.Records))
	}
	for i := range orig.Records {
		if back.Records[i] != orig.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, back.Records[i], orig.Records[i])
		}
	}
	if back.WorkloadHash != orig.WorkloadHash {
		t.Error("round trip changed the content address")
	}
}

func TestImportAutoDetectsBinary(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "gpgpusim_small.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig, err := Import(f, Options{Workload: "vector"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteRecording(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Import(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatalf("binary re-import: %v", err)
	}
	if back.WorkloadHash != orig.WorkloadHash {
		t.Errorf("binary round trip hash = %s, want %s", back.WorkloadHash, orig.WorkloadHash)
	}
	if len(back.Records) != len(orig.Records) {
		t.Errorf("binary round trip records = %d, want %d", len(back.Records), len(orig.Records))
	}
}

func TestImportBoundsBinarySMs(t *testing.T) {
	rec := &trace.Recording{Records: []trace.Record{{Cycle: 1, Addr: 0x100, SM: 99}}}
	var buf bytes.Buffer
	if err := trace.WriteRecording(&buf, rec); err != nil {
		t.Fatal(err)
	}
	_, err := Import(bytes.NewReader(buf.Bytes()), Options{})
	var ie *Error
	if !errors.As(err, &ie) || ie.Record != 0 {
		t.Fatalf("err = %v, want *ingest.Error at record 0", err)
	}
	folded, err := Import(bytes.NewReader(buf.Bytes()), Options{FoldSM: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := folded.Records[0].SM; int(got) != 99%config.BaseSMs {
		t.Errorf("folded sm = %d, want %d", got, 99%config.BaseSMs)
	}
}

// TestHashDomainSeparation pins the collision-proofing acceptance
// criterion: an imported trace named exactly like a builtin workload
// still gets a distinct content address, because imports hash under the
// ingest format tag.
func TestHashDomainSeparation(t *testing.T) {
	spec, _ := workloads.ByName("bfs")
	rec := &trace.Recording{Workload: "bfs", Records: []trace.Record{{Cycle: 1, Addr: 0x100}}}
	if HashRecording(rec) == spec.Hash() {
		t.Error("imported trace named bfs aliases the builtin bfs hash")
	}
	app, _ := workloads.AppByName(workloads.Apps()[0].Name)
	rec.Workload = app.Name
	if HashRecording(rec) == app.Hash() {
		t.Error("imported trace aliases a builtin app hash")
	}
	// The hash covers the stream: one flipped bit moves the address.
	a := HashRecording(rec)
	rec.Records[0].Write = true
	if HashRecording(rec) == a {
		t.Error("record mutation did not change the content address")
	}
}

// TestImportedFixtureReplays runs the fixture through the simulator —
// the same ReplayMany path the server and stttrace -replay use — and
// checks the dump is well-formed and deterministic.
func TestImportedFixtureReplays(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "gpgpusim_small.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := Import(f, Options{Workload: "vector"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := config.ByName("C2")
	dump := func() []byte {
		rs := sim.ReplayMany(rec, []config.GPUConfig{cfg})
		var buf bytes.Buffer
		if err := rs[0].Dump().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Error("replaying the imported fixture twice produced different dumps")
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(a, &probe); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if probe.Schema == "" {
		t.Error("dump missing schema")
	}
}

// TestImportedFixtureGolden pins the full C2 replay dump of the
// GPGPU-Sim fixture to a committed golden file. The same golden backs
// the CI serve-job e2e (upload → simulate → compare), so any drift in
// the importer, the replay pass, or the dump encoding shows up here
// first with a reviewable diff. Regenerate with:
//
//	go run ./cmd/stttrace -import internal/ingest/testdata/gpgpusim_small.log -o /tmp/fixture.rec
//	go run ./cmd/stttrace -replay /tmp/fixture.rec -config C2 -stats-json internal/ingest/testdata/gpgpusim_small.C2.golden.json
func TestImportedFixtureGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "gpgpusim_small.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := Import(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := config.ByName("C2")
	var buf bytes.Buffer
	if err := sim.ReplayMany(rec, []config.GPUConfig{cfg})[0].Dump().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "gpgpusim_small.C2.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("C2 replay dump drifted from the committed golden\n got: %s\nwant: %s", buf.Bytes(), golden)
	}
}
