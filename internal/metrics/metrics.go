// Package metrics is the simulator's counter fabric: a per-simulation
// registry of typed counters, gauges, and fixed-bucket histograms whose
// storage lives in stable slabs.
//
// Scalar names are data, not per-run work. A registry either names its
// scalars as they register (ad hoc use, and the first run of a shape)
// or binds a Table — the frozen, pre-sorted name list of an earlier
// identical registration sequence — and then records only where each
// value is read. A simulator keeps one Table per configuration shape,
// so a run builds no metric name, no name map and no sort; a dump
// writes its counters in the table's order.
//
//   - The enabled hot path is a single memory increment. A Counter is a
//     pointer into a registry-owned slab (slabs are fixed-size chunks, so
//     handles stay valid as the registry grows); Inc compiles to one
//     add-to-memory instruction with no branch, no bounds check, and no
//     allocation.
//
//   - The disabled path is the same instruction aimed at a sink slot.
//     A disabled registry hands every counter, gauge, and histogram a
//     pointer into its private sink, so instrumented code runs the
//     identical straight-line sequence — zero allocations, zero branches
//     — and the writes land in a slot nobody reads. No `if enabled`
//     checks leak into simulation code.
//
//   - Adoption is free. Actors that already keep plain uint64 stat
//     fields (bank, cache, DRAM stats structs) register pointers to
//     them with Scope.External, so their hot paths keep the increments
//     they already had and the registry only touches the fields at
//     snapshot time. Scope.Func registers a snapshot-time callback for
//     values that are computed (aggregates over actors, live gauges).
//
// A Registry and its handles are owned by one simulation goroutine, like
// the engine they instrument: plain Inc/Set/Observe are single-writer.
// Experiment harnesses that fan runs out across workers give each run
// its own registry (sim.New creates a private disabled registry when the
// caller supplies none, so parallel runs never share a sink). For the
// rare genuinely shared counter, AddAtomic provides a race-free
// increment; snapshots taken after a goroutine join (the harnesses'
// pattern) need no atomics at all.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// chunkSlots is the slab chunk size. Chunks are never reallocated once
// handed out, which is what keeps Counter/Gauge pointers stable.
const chunkSlots = 256

// Registry allocates and enumerates the metrics of one simulation.
// Construct with NewRegistry; the zero value is not usable.
type Registry struct {
	enabled bool
	chunks  [][]uint64
	used    int // slots used in the newest chunk
	sink    []uint64
	// sinkHist is the one histogram a disabled registry hands out.
	sinkHist *Histogram

	// The registered scalars, in registration order: names[i] names
	// srcs[i]. A registry bound to a Table (Bind) shares the table's
	// names and appends only sources; an unbound one names as it goes.
	names []string
	srcs  []source
	table *Table
	seen  map[string]struct{} // duplicate check while naming
	hists []*Histogram
}

// source is where one registered scalar is read at snapshot time: a
// slab or external counter (p) or a callback (f). Exactly one is set.
type source struct {
	p *uint64
	f func() uint64
}

func (s source) value() uint64 {
	if s.p != nil {
		return *s.p
	}
	return s.f()
}

// Sample is one named value in a registry snapshot.
type Sample struct {
	Name  string
	Value uint64
}

// NewRegistry returns a registry. A disabled registry accepts every
// registration and hands out working handles, but records no names and
// directs all writes into a private sink: instrumented code runs
// unchanged and Snapshot returns nothing.
func NewRegistry(enabled bool) *Registry {
	r := &Registry{enabled: enabled}
	if !enabled {
		r.sink = make([]uint64, 1)
		r.sinkHist = &Histogram{over: &r.sink[0]}
	}
	return r
}

// Enabled reports whether this registry records anything.
func (r *Registry) Enabled() bool { return r.enabled }

// Len returns the number of registered scalars.
func (r *Registry) Len() int { return len(r.srcs) }

// slots returns n stable slab slots (one chunk, contiguous). Oversized
// requests get a dedicated chunk.
func (r *Registry) slots(n int) []uint64 {
	if len(r.chunks) == 0 || r.used+n > chunkSlots {
		size := chunkSlots
		if n > size {
			size = n
		}
		r.chunks = append(r.chunks, make([]uint64, size))
		r.used = 0
	}
	c := r.chunks[len(r.chunks)-1]
	s := c[r.used : r.used+n : r.used+n]
	r.used += n
	return s
}

// claim reserves a name, panicking on duplicates: two actors colliding
// on a metric name is a wiring bug worth failing loudly on.
func (r *Registry) claim(name string) {
	if r.seen == nil {
		r.seen = make(map[string]struct{})
	}
	if _, dup := r.seen[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	r.seen[name] = struct{}{}
}

// register appends one scalar. A bound registry takes the name from its
// table: name is then only checked, and may be empty (a Scope passes
// none rather than build it).
func (r *Registry) register(name string, src source) {
	if t := r.table; t != nil {
		i := len(r.srcs)
		if i == len(t.names) || (name != "" && name != t.names[i]) {
			panic(fmt.Sprintf("metrics: registration %d (%q) does not follow its table", i, name))
		}
		r.srcs = append(r.srcs, src)
		return
	}
	r.claim(name)
	r.names = append(r.names, name)
	r.srcs = append(r.srcs, src)
}

// Table is the frozen scalar name list of one registration sequence:
// the names in registration order and, precomputed, their sorted
// order. A registry that will see the same sequence binds the table
// (Bind) and then builds no name, no map and no sort of its own.
type Table struct {
	names  []string
	sorted []int32 // indices into names, by ascending name
}

// Table returns the registry's scalar names as a Table. For a bound
// registry it is the bound table, after checking that registration
// reached its end.
func (r *Registry) Table() *Table {
	if t := r.table; t != nil {
		if len(r.srcs) != len(t.names) {
			panic(fmt.Sprintf("metrics: %d registrations for a table of %d", len(r.srcs), len(t.names)))
		}
		return t
	}
	return &Table{names: slices.Clip(r.names), sorted: r.sortedOrder()}
}

// Bind makes an enabled, still empty registry take its scalar names
// from t: the registrations that follow must be exactly the sequence
// that built t (checked by position; Table verifies the count). It
// reports whether the registry is now bound; a disabled or non-empty
// registry is left as it is.
func (r *Registry) Bind(t *Table) bool {
	if !r.enabled || t == nil || len(r.srcs) > 0 {
		return false
	}
	r.table = t
	r.names = t.names
	r.srcs = make([]source, 0, len(t.names))
	return true
}

// sortedOrder returns the indices of the scalars by ascending name.
func (r *Registry) sortedOrder() []int32 {
	if r.table != nil {
		return r.table.sorted
	}
	order := make([]int32, len(r.names))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(r.names[a], r.names[b]) })
	return order
}

// Scope registers scalars under a dotted name prefix ("l2.bank0.lr").
// On an unbound registry it joins the names; on a bound one it records
// only the value sources, in order, and never builds a string; on a
// disabled one it does nothing.
type Scope struct {
	r      *Registry
	prefix string
}

// Scope returns the registry's root scope (no prefix).
func (r *Registry) Scope() Scope { return Scope{r: r} }

// Enabled reports whether registrations through s record anything.
// Callers skip building callbacks when it is false.
func (s Scope) Enabled() bool { return s.r.enabled }

func (s Scope) naming() bool { return s.r.enabled && s.r.table == nil }

// name is s's full name for a leaf, or "" when the registry does not
// need it.
func (s Scope) name(leaf string) string {
	if !s.naming() {
		return ""
	}
	if s.prefix == "" {
		return leaf
	}
	return s.prefix + "." + leaf
}

// Sub returns the scope one level down, under name.
func (s Scope) Sub(name string) Scope {
	if s.naming() {
		s.prefix = s.name(name)
	}
	return s
}

// SubN is Sub(name + decimal n), for indexed levels such as "bank3".
func (s Scope) SubN(name string, n int) Scope {
	if s.naming() {
		s.prefix = s.name(name + strconv.Itoa(n))
	}
	return s
}

// External adopts a counter that lives outside the registry —
// typically a field of an actor's existing stats struct, which the
// actor's hot path already increments. The pointed-to location must
// outlive the registry and must not move (fields of heap-allocated
// actors qualify; elements of append-grown slices do not).
func (s Scope) External(leaf string, p *uint64) {
	if s.r.enabled {
		s.r.register(s.name(leaf), source{p: p})
	}
}

// Func registers a snapshot-time callback, for values that are
// aggregates or otherwise computed. f runs on every snapshot and must
// be cheap and side-effect free.
func (s Scope) Func(leaf string, f func() uint64) {
	if s.r.enabled {
		s.r.register(s.name(leaf), source{f: f})
	}
}

// Gauge allocates a slab gauge. On a disabled registry the handle
// writes into the sink.
func (s Scope) Gauge(leaf string) Gauge {
	if !s.r.enabled {
		return Gauge{p: &s.r.sink[0]}
	}
	p := &s.r.slots(1)[0]
	s.r.register(s.name(leaf), source{p: p})
	return Gauge{p: p}
}

// Counter is a monotonically increasing event count. Obtain one from a
// Registry; the zero value is not usable.
type Counter struct{ p *uint64 }

// Inc adds one. Single-writer; see the package comment.
func (c Counter) Inc() { *c.p++ }

// Add adds n. Single-writer.
func (c Counter) Add(n uint64) { *c.p += n }

// AddAtomic adds n race-free, for counters genuinely shared across
// goroutines.
func (c Counter) AddAtomic(n uint64) { atomic.AddUint64(c.p, n) }

// Value returns the current count (plain read; callers that race with
// AddAtomic writers should have joined first).
func (c Counter) Value() uint64 { return *c.p }

// NewCounter allocates a slab counter. On a disabled registry the handle
// writes into the sink.
func (r *Registry) NewCounter(name string) Counter {
	if !r.enabled {
		return Counter{p: &r.sink[0]}
	}
	p := &r.slots(1)[0]
	r.register(name, source{p: p})
	return Counter{p: p}
}

// Gauge is a last-value-wins instantaneous measurement.
type Gauge struct{ p *uint64 }

// Set stores v. Single-writer.
func (g Gauge) Set(v uint64) { *g.p = v }

// Value returns the current value.
func (g Gauge) Value() uint64 { return *g.p }

// Histogram is a fixed-bucket histogram over int64 samples. Bucket i
// counts samples v with v <= edge[i] (first matching bucket wins);
// samples above the last edge land in the overflow bucket. Obtain from a
// Registry; the zero value is not usable.
type Histogram struct {
	name   string
	edges  []int64  // nil on a disabled registry
	counts []uint64 // len(edges); nil on a disabled registry
	over   *uint64
}

// NewHistogram allocates a slab histogram with the given strictly
// ascending bucket edges. On a disabled registry the returned histogram
// has no buckets and Observe degenerates to one sink increment — the
// bucket-search loop body never runs.
func (r *Registry) NewHistogram(name string, edges ...int64) *Histogram {
	if len(edges) == 0 {
		panic("metrics: histogram needs at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("metrics: histogram edges must be strictly ascending")
		}
	}
	if !r.enabled {
		return r.sinkHist
	}
	s := r.slots(len(edges) + 1)
	h := &Histogram{
		name:   name,
		edges:  append([]int64(nil), edges...),
		counts: s[:len(edges)],
		over:   &s[len(edges)],
	}
	if r.table == nil {
		r.claim(name)
	}
	r.hists = append(r.hists, h)
	return h
}

// Observe records one sample: a linear scan over the (few) bucket edges
// and a single increment. No branch distinguishes enabled from disabled
// — a disabled histogram simply has zero edges.
func (h *Histogram) Observe(v int64) {
	for i, e := range h.edges {
		if v <= e {
			h.counts[i]++
			return
		}
	}
	*h.over++
}

// Local returns an unregistered histogram with h's buckets (none, if h
// belongs to a disabled registry) for one goroutine to fill privately
// and then add into h with Merge.
func (h *Histogram) Local() *Histogram {
	s := make([]uint64, len(h.edges)+1)
	return &Histogram{name: h.name, edges: h.edges, counts: s[:len(h.edges)], over: &s[len(h.edges)]}
}

// Merge adds the counts of l, a histogram from h.Local, into h.
func (h *Histogram) Merge(l *Histogram) {
	for i, c := range l.counts {
		h.counts[i] += c
	}
	*h.over += *l.over
}

// Count returns bucket i's count.
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// Overflow returns the count of samples above the last edge.
func (h *Histogram) Overflow() uint64 { return *h.over }

// Total returns the number of samples observed.
func (h *Histogram) Total() uint64 {
	t := *h.over
	for _, c := range h.counts {
		t += c
	}
	return t
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Name     string
	Edges    []int64
	Counts   []uint64
	Overflow uint64
}

// Snapshot returns every registered scalar, in registration order.
// Callback entries are evaluated now.
func (r *Registry) Snapshot() []Sample {
	out := make([]Sample, len(r.srcs))
	for i, src := range r.srcs {
		out[i] = Sample{Name: r.names[i], Value: src.value()}
	}
	return out
}

// Sorted returns every registered scalar sorted by name. A bound
// registry reads the order from its table.
func (r *Registry) Sorted() Samples {
	if len(r.srcs) == 0 {
		return nil
	}
	order := r.sortedOrder()
	out := make(Samples, len(order))
	for i, j := range order {
		out[i] = Sample{Name: r.names[j], Value: r.srcs[j].value()}
	}
	return out
}

// Value returns the named scalar's current value.
func (r *Registry) Value(name string) (uint64, bool) {
	for i, src := range r.srcs {
		if r.names[i] == name {
			return src.value(), true
		}
	}
	return 0, false
}

// Histograms returns snapshots of every registered histogram, sorted by
// name for deterministic export.
func (r *Registry) Histograms() []HistogramSnapshot {
	out := make([]HistogramSnapshot, 0, len(r.hists))
	for _, h := range r.hists {
		out = append(out, HistogramSnapshot{
			Name:     h.name,
			Edges:    append([]int64(nil), h.edges...),
			Counts:   append([]uint64(nil), h.counts...),
			Overflow: *h.over,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
