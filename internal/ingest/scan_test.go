package ingest

import (
	"strings"
	"testing"
)

// TestScanAccessTakesPlainLines pins which lines the fast path takes:
// the access lines real traces carry, in any key order and spacing. The
// rest fall back to decodeLine, which decides them.
func TestScanAccessTakesPlainLines(t *testing.T) {
	cases := []struct {
		raw  string
		fast bool
	}{
		{`{"cycle":120,"addr":"0x7f001200","size":512,"op":"R","sm":3}`, true},
		{`{"cycle":3,"addr":4096,"op":"W","sm":14}`, true},
		{` { "sm" : 1 , "op" : "r" , "addr" : "ff" , "cycle" : 0 } `, true},
		{`{"cycle":1,"addr":"0x10","op":"R","cycle":2}`, false}, // duplicate key
		{`{"Cycle":1,"addr":1,"op":"R"}`, false},                // case-folded key
		{`{"cycle":1,"addr":1,"op":"R","bogus":1}`, false},      // unknown key
		{`{"cycle":-1,"addr":1,"op":"R"}`, false},               // sign
		{`{"cycle":1e3,"addr":1,"op":"R"}`, false},              // exponent
		{`{"cycle":01,"addr":1,"op":"R"}`, false},               // leading zero
		{`{"cycle":9223372036854775808,"addr":1,"op":"R"}`, false},
		{`{"cycle":null,"addr":1,"op":"R"}`, false},
		{`{"cycle":1,"addr":"\u0030x1","op":"R"}`, false}, // escape
		{`{"cycle":1,"addr":"0xzz","op":"R"}`, false},     // bad address
		{`{"cycle":1,"addr":1,"op":"X"}`, false},          // bad op
		{`{"cycle":1,"addr":1,"op":"R"} tail`, false},
		{`{"phase":"k","cycle":5}`, false},
	}
	for _, c := range cases {
		var l line
		var v accessVals
		if got := scanAccess([]byte(c.raw), &l, &v); got != c.fast {
			t.Errorf("scanAccess(%s) = %v, want %v", c.raw, got, c.fast)
		}
	}
}

// TestStringAddressesAreHex: a string address is hex on both decode
// paths, with or without 0x; a decimal-looking 20-digit string is not a
// 64-bit hex number and is rejected.
func TestStringAddressesAreHex(t *testing.T) {
	cases := []struct {
		addr string
		want uint64
		ok   bool
	}{
		{"0x10", 0x10, true},
		{"10", 0x10, true},
		{"0XfF", 0xff, true},
		{"ffffffffffffffff", 1<<64 - 1, true},
		{"18446744073709551615", 0, false},
		{"0x10000000000000000", 0, false},
		{"0x", 0, false},
		{"", 0, false},
		{"12g", 0, false},
	}
	const header = `{"format":"sttllc-trace/v1"}` + "\n"
	for _, c := range cases {
		for _, escaped := range []bool{false, true} {
			access := `{"cycle":1,"addr":"` + c.addr + `","op":"R"}`
			if escaped {
				// An escaped op sends the line to decodeLine.
				access = `{"cycle":1,"addr":"` + c.addr + `","op":"\u0052"}`
			}
			rec, err := ParseNDJSON(strings.NewReader(header + access + "\n"))
			switch {
			case c.ok && err != nil:
				t.Errorf("%s: %v", access, err)
			case c.ok && rec.Records[0].Addr != c.want:
				t.Errorf("%s: addr %#x, want %#x", access, rec.Records[0].Addr, c.want)
			case !c.ok && err == nil:
				t.Errorf("%s: accepted as %#x, want an error", access, rec.Records[0].Addr)
			}
		}
	}
}
