package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Content-hash domain tags. Every hashed type prefixes its canonical
// JSON with a distinct format/version tag, so values of different types
// (or different schema versions) can never alias each other's cache
// keys even when their JSON encodings coincide — e.g. an imported trace
// whose metadata happens to marshal like a builtin Spec still gets a
// different address. Bump the version suffix when a type's canonical
// encoding changes meaning.
const (
	specHashTag = "workloads.Spec/v1"
	appHashTag  = "workloads.App/v1"
)

// Hash returns the spec's content address: the hex SHA-256 (truncated
// to 128 bits) of its canonical JSON encoding, domain-separated by a
// format tag. Every field that shapes the generated instruction streams
// participates — scaling, warp overrides, and seed changes all change
// the hash — so two specs hash equal exactly when they would generate
// identical streams. Recording caches key on this, which is what lets a
// reference-stream recording be shared across jobs that name the same
// workload content.
func (s Spec) Hash() string {
	return ContentHash(specHashTag, s)
}

// Hash is the application counterpart of Spec.Hash: the content address
// of the whole kernel sequence. A benchmark's application (Single) hashes
// as its spec.
func (a App) Hash() string {
	if a.bench {
		return a.Kernels[0].Hash()
	}
	return ContentHash(appHashTag, a)
}

// ContentHash computes a domain-separated content address: the hex
// SHA-256 (truncated to 128 bits) of the tag, a NUL separator, and the
// canonical JSON encoding of v. The tag names the value's format and
// version (e.g. "workloads.Spec/v1"); hashes under different tags never
// collide with each other regardless of the encoded payload. Other
// packages that want their content addresses to live in the same
// keyspace (the recording cache, the disk store) should hash through
// this with their own tag.
func ContentHash(tag string, v any) string {
	// Struct fields marshal in declaration order, so the encoding — and
	// therefore the hash — is deterministic. NUL cannot appear in a tag
	// or in JSON output, so the (tag, payload) framing is unambiguous.
	b, err := json.Marshal(v)
	if err != nil {
		// Structs of scalars and strings cannot fail to marshal.
		panic(fmt.Sprintf("workloads: canonicalizing %s: %v", tag, err))
	}
	h := sha256.New()
	h.Write([]byte(tag))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)[:16])
}
