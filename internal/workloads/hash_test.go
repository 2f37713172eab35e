package workloads

import "testing"

func TestSpecHashDeterministic(t *testing.T) {
	a, _ := ByName("bfs")
	b, _ := ByName("bfs")
	if a.Hash() != b.Hash() {
		t.Error("identical specs hash differently")
	}
	if len(a.Hash()) != 32 {
		t.Errorf("hash length = %d, want 32 hex chars", len(a.Hash()))
	}
}

func TestSpecHashCoversStreamShapingFields(t *testing.T) {
	base, _ := ByName("bfs")
	seen := map[string]string{base.Hash(): "base"}
	for name, mutate := range map[string]func(*Spec){
		"scale":   func(s *Spec) { *s = s.Scale(0.5) },
		"warps":   func(s *Spec) { s.WarpsPerSM = 7 },
		"seed":    func(s *Spec) { s.Seed ^= 1 },
		"wws":     func(s *Spec) { s.WWSBytes *= 2 },
		"writes":  func(s *Spec) { s.WriteFrac += 0.01 },
		"rename":  func(s *Spec) { s.Name = "bfs2" },
		"stream":  func(s *Spec) { s.StreamFrac += 0.01 },
		"grids":   func(s *Spec) { s.Grids++ },
		"threads": func(s *Spec) { s.ThreadsPerBlock *= 2 },
	} {
		s := base
		mutate(&s)
		h := s.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

// TestContentHashDomainSeparation pins the collision-proofing contract:
// the same payload hashed under different format tags yields different
// addresses, so a user-supplied value named like a builtin can never
// alias its cache key.
func TestContentHashDomainSeparation(t *testing.T) {
	s, _ := ByName("bfs")
	if ContentHash("workloads.Spec/v1", s) == ContentHash("sttllc-trace/v1", s) {
		t.Error("identical payloads under different tags share a hash")
	}
	if ContentHash("workloads.Spec/v1", s) != s.Hash() {
		t.Error("Spec.Hash does not use the tagged scheme")
	}
	// A Spec and an App wrapping it must not collide either: the tag
	// separates them even if their JSON encodings ever coincided.
	a := App{Name: s.Name, Kernels: []Spec{s}}
	if s.Hash() == a.Hash() {
		t.Error("Spec and App hashes collide")
	}
	// Single is the benchmark itself, not an application wrapping it:
	// it keeps the spec's address, and adds nothing to an App's.
	if Single(s).Hash() != s.Hash() {
		t.Error("a benchmark's application does not hash as its spec")
	}
	if sp, _ := AppByName("srad-pipeline"); sp.Hash() != "04a9d7c8fdb34a1c5433b388d3a5c2ca" {
		t.Errorf("srad-pipeline hashes to %s; application addresses must not move", sp.Hash())
	}
	if len(ContentHash("x/v1", 42)) != 32 {
		t.Error("tagged hash is not 32 hex chars")
	}
}

func TestSuiteHashesDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, s := range All() {
		if prev, dup := seen[s.Hash()]; dup {
			t.Errorf("%s and %s share a hash", s.Name, prev)
		}
		seen[s.Hash()] = s.Name
	}
	for _, a := range Apps() {
		if prev, dup := seen[a.Hash()]; dup {
			t.Errorf("app %s collides with %s", a.Name, prev)
		}
		seen[a.Hash()] = a.Name
	}
}
