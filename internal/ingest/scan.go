package ingest

import (
	"fmt"
	"math"
)

// accessVals is the storage a scanned access line's pointer fields
// point into, so scanning one allocates nothing.
type accessVals struct {
	cycle int64
	addr  address
	size  uint64
	sm    int
}

// ops interns the op strings the scanner takes.
var ops = map[string]string{"R": "R", "W": "W", "r": "r", "w": "w"}

// Access-line keys, as bits of the set already seen on a line.
const (
	keyCycle = 1 << iota
	keyAddr
	keySize
	keyOp
	keySM
)

// scanAccess is the fast path for access lines. It decodes raw into l,
// pointing l's fields into v, when raw is an object whose keys are
// among cycle, addr, size, op and sm, each at most once, whose numbers
// are plain non-negative integers that fit their fields, whose strings
// hold no escapes and no non-ASCII bytes, whose address string is a
// valid hex address and whose op is R, W, r or w. It reports false for
// every other line, and l is then unspecified: decodeLine stays the
// format's one definition, deciding or rejecting what this declines.
// When it reports true, decodeLine decodes raw to an equal line.
func scanAccess(raw []byte, l *line, v *accessVals) bool {
	*l = line{}
	i := skipSpace(raw, 0)
	if i == len(raw) || raw[i] != '{' {
		return false
	}
	i = skipSpace(raw, i+1)
	if i < len(raw) && raw[i] == '}' {
		return skipSpace(raw, i+1) == len(raw)
	}
	seen := 0
	for {
		key, next, ok := scanString(raw, i)
		if !ok {
			return false
		}
		i = skipSpace(raw, next)
		if i == len(raw) || raw[i] != ':' {
			return false
		}
		i = skipSpace(raw, i+1)
		var bit int
		switch string(key) { // no allocation: compared in place
		case "cycle":
			bit = keyCycle
			n, next, ok := scanUint(raw, i, math.MaxInt64)
			if !ok {
				return false
			}
			v.cycle, l.Cycle, i = int64(n), &v.cycle, next
		case "addr":
			bit = keyAddr
			var n uint64
			if i < len(raw) && raw[i] == '"' {
				s, next, ok := scanString(raw, i)
				if !ok {
					return false
				}
				a, err := parseHexAddr(s)
				if err != nil {
					return false
				}
				n, i = a, next
			} else if n, i, ok = scanUint(raw, i, math.MaxUint64); !ok {
				return false
			}
			v.addr, l.Addr = address(n), &v.addr
		case "size":
			bit = keySize
			n, next, ok := scanUint(raw, i, math.MaxUint64)
			if !ok {
				return false
			}
			v.size, l.Size, i = n, &v.size, next
		case "sm":
			bit = keySM
			n, next, ok := scanUint(raw, i, math.MaxInt)
			if !ok {
				return false
			}
			v.sm, l.SM, i = int(n), &v.sm, next
		case "op":
			bit = keyOp
			s, next, ok := scanString(raw, i)
			if !ok {
				return false
			}
			op, ok := ops[string(s)]
			if !ok {
				return false
			}
			l.Op, i = op, next
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		i = skipSpace(raw, i)
		if i == len(raw) {
			return false
		}
		switch raw[i] {
		case ',':
			i = skipSpace(raw, i+1)
		case '}':
			return skipSpace(raw, i+1) == len(raw)
		default:
			return false
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte of b at
// or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// scanString reads the string starting at b[i], which must be a quote,
// and returns its contents and the index after the closing quote. It
// declines strings with escapes, control bytes or non-ASCII bytes.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// scanUint reads the integer starting at b[i] — digits without a sign,
// a leading zero, a fraction or an exponent — and returns it and the
// index after it. It declines values above max.
func scanUint(b []byte, i int, max uint64) (n uint64, next int, ok bool) {
	j := i
	for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
		d := uint64(b[j] - '0')
		if n > (max-d)/10 {
			return 0, 0, false
		}
		n = n*10 + d
	}
	switch {
	case j == i, b[i] == '0' && j > i+1:
		return 0, 0, false
	case j < len(b) && (b[j] == '.' || b[j] == 'e' || b[j] == 'E'):
		return 0, 0, false
	}
	return n, j, true
}

// parseHexAddr decodes a string address: hex digits with an optional
// 0x or 0X prefix, at most 64 bits. Both decoders of the format use it,
// so a string address means the same thing on either path.
func parseHexAddr(s []byte) (uint64, error) {
	h := s
	if len(h) >= 2 && h[0] == '0' && (h[1] == 'x' || h[1] == 'X') {
		h = h[2:]
	}
	if len(h) == 0 {
		return 0, fmt.Errorf("address %q has no hex digits", s)
	}
	var v uint64
	for _, c := range h {
		var d byte
		switch {
		case c >= '0' && c <= '9':
			d = c - '0'
		case c >= 'a' && c <= 'f':
			d = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			d = c - 'A' + 10
		default:
			return 0, fmt.Errorf("address %q is not hex", s)
		}
		if v > math.MaxUint64>>4 {
			return 0, fmt.Errorf("address %q overflows 64 bits", s)
		}
		v = v<<4 | uint64(d)
	}
	return v, nil
}
