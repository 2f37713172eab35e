// Timeline tracing: a Chrome-trace (Perfetto JSON) exporter that rides
// the simulation's event timeline. Layers emit semantic duration,
// instant, and counter events in simulated time (cycles); the tracer
// converts cycles to trace microseconds at the configured clock and
// writes the standard `{"traceEvents": [...]}` document, which
// https://ui.perfetto.dev and chrome://tracing load directly.
//
// Tracing is opt-in and nil-guarded at every emission site, so a run
// without a tracer pays nothing. With one attached, events accumulate in
// an in-memory buffer (amortized append; the simulator emits per
// retention window, not per access) and are serialized once at the end.

package metrics

import (
	"encoding/json"
	"io"
)

// TraceEvent is one Chrome-trace event. Field names follow the trace
// event format's wire keys.
type TraceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TsUS  float64        `json:"ts"`
	DurUS float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceDoc is the JSON object trace viewers load.
type traceDoc struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Tracer buffers timeline events for one simulation. Construct with
// NewTracer; like the Registry, a Tracer belongs to one simulation
// goroutine.
type Tracer struct {
	clockHz float64
	events  []TraceEvent
}

// NewTracer returns a tracer converting cycles at clockHz into trace
// timestamps.
func NewTracer(clockHz float64) *Tracer {
	if clockHz <= 0 {
		panic("metrics: tracer needs a positive clock")
	}
	return &Tracer{clockHz: clockHz}
}

// us converts a cycle count to trace microseconds.
func (t *Tracer) us(cycle int64) float64 {
	return float64(cycle) / t.clockHz * 1e6
}

// Complete emits a duration event spanning [start, end] cycles on the
// given track.
func (t *Tracer) Complete(tid int, name string, start, end int64, args map[string]any) {
	t.events = append(t.events, TraceEvent{
		Name: name, Phase: "X", TsUS: t.us(start), DurUS: t.us(end - start),
		TID: tid, Args: args,
	})
}

// Instant emits a thread-scoped instant event at the given cycle.
func (t *Tracer) Instant(tid int, name string, cycle int64, args map[string]any) {
	t.events = append(t.events, TraceEvent{
		Name: name, Phase: "i", TsUS: t.us(cycle), TID: tid, Scope: "t", Args: args,
	})
}

// CounterSample emits a counter-track sample: viewers render successive
// samples of the same name as a stepped area chart.
func (t *Tracer) CounterSample(name string, cycle int64, value uint64) {
	t.events = append(t.events, TraceEvent{
		Name: name, Phase: "C", TsUS: t.us(cycle),
		Args: map[string]any{"value": value},
	})
}

// NameProcess labels the trace's process row.
func (t *Tracer) NameProcess(name string) {
	t.events = append(t.events, TraceEvent{
		Name: "process_name", Phase: "M", Args: map[string]any{"name": name},
	})
}

// NameThread labels a track (thread row) of the trace.
func (t *Tracer) NameThread(tid int, name string) {
	t.events = append(t.events, TraceEvent{
		Name: "thread_name", Phase: "M", TID: tid, Args: map[string]any{"name": name},
	})
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int { return len(t.events) }

// WriteJSON serializes the buffered events as a Chrome-trace JSON
// document.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(traceDoc{TraceEvents: t.events, DisplayTimeUnit: "ms"})
}
