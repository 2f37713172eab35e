package metrics

import (
	"encoding/json"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Samples is a scalar snapshot sorted by name (Registry.Sorted). It
// encodes as a JSON object with its keys in that order: byte for byte
// what encoding/json writes for the equivalent map[string]uint64.
type Samples []Sample

// Get returns the named value.
func (s Samples) Get(name string) (uint64, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i].Value, true
	}
	return 0, false
}

// AppendJSON appends s's JSON object encoding to b.
func (s Samples) AppendJSON(b []byte) []byte {
	b = append(b, '{')
	for i, x := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, x.Name)
		b = append(b, ':')
		b = strconv.AppendUint(b, x.Value, 10)
	}
	return append(b, '}')
}

// MarshalJSON implements json.Marshaler.
func (s Samples) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil), nil }

// UnmarshalJSON implements json.Unmarshaler: any JSON object of
// unsigned integers, sorted by name on the way in.
func (s *Samples) UnmarshalJSON(b []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	if m == nil {
		*s = nil
		return nil
	}
	out := make(Samples, 0, len(m))
	for name, v := range m {
		out = append(out, Sample{Name: name, Value: v})
	}
	slices.SortFunc(out, func(a, b Sample) int { return strings.Compare(a.Name, b.Name) })
	*s = out
	return nil
}

// appendJSONString appends s as encoding/json quotes it. Printable ASCII
// that needs no escaping — every metric name — is copied as is;
// anything else takes encoding/json's path, HTML escaping included.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
