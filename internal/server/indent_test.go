package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzIndentDump holds appendIndent to json.Indent on every compact
// document: anything json.Valid accepts, compacted, must indent to the
// same bytes. The corpus starts from the HTTP goldens, one document per
// file or NDJSON line.
func FuzzIndentDump(f *testing.F) {
	for _, s := range []string{`{}`, `[]`, `{"a":[]}`, `[{},[],{"b":{}}]`, `"s"`, `-1.5e-7`, `null`,
		`{"k\"\\":"v\u00e9\u2028\\\"","n":[1,true,false,null]}`} {
		f.Add([]byte(s))
	}
	paths, _ := filepath.Glob(filepath.Join("testdata", "*.json*"))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, len(b)+1)
		for sc.Scan() {
			if line := sc.Bytes(); json.Valid(line) {
				f.Add(bytes.Clone(line))
			}
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Indented size grows with lines times depth; deep nesting only
		// makes both sides slow.
		if !json.Valid(data) || bytes.Count(data, []byte("["))+bytes.Count(data, []byte("{")) > 256 {
			return
		}
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&want, compact.Bytes(), "  ", "  "); err != nil {
			t.Fatal(err)
		}
		if got := appendIndent([]byte("x"), compact.Bytes(), "  ", "  "); !bytes.Equal(got[1:], want.Bytes()) {
			t.Errorf("appendIndent(%q)\n got %q\nwant %q", compact.Bytes(), got[1:], want.Bytes())
		}
	})
}
