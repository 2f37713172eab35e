package server

// appendIndent appends src indented exactly as json.Indent(dst, src,
// prefix, indent) would write it. src must be compact, valid JSON that
// this process already trusts — a dump it encoded (encodeResult) or
// validated and compacted (decodeResult) — so unlike json.Indent it
// runs no scanner: it only tracks whether it is inside a string.
func appendIndent(dst, src []byte, prefix, indent string) []byte {
	// nl is a newline, the prefix and depth indents, grown on demand.
	nl := append(make([]byte, 0, 1+len(prefix)+8*len(indent)), '\n')
	nl = append(nl, prefix...)
	base := len(nl)
	newline := func(depth int) {
		for len(nl) < base+depth*len(indent) {
			nl = append(nl, indent...)
		}
		dst = append(dst, nl[:base+depth*len(indent)]...)
	}
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			j := i + 1
			for src[j] != '"' {
				if src[j] == '\\' {
					j++ // the escaped byte cannot end the string
				}
				j++
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			dst = append(dst, c)
			if next := src[i+1]; next == '}' || next == ']' {
				dst = append(dst, next) // empty: {} and [] stay closed
				i++
				continue
			}
			depth++
			newline(depth)
		case '}', ']':
			depth--
			newline(depth)
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			newline(depth)
		case ':':
			dst = append(dst, ':', ' ')
		default: // a number or literal: copy up to the next delimiter
			j := i + 1
			for j < len(src) && src[j] != ',' && src[j] != '}' && src[j] != ']' {
				j++
			}
			dst = append(dst, src[i:j]...)
			i = j - 1
		}
	}
	return dst
}
