// Package obs is the serving stack's observability plane: per-job
// traces (one bounded in-memory ring of span sets, sampled at ingress
// and propagated across replica hops), latency histograms with
// Prometheus text exposition, and the CFI security audit log.
//
// The package is deliberately free of HTTP and server types — it holds
// the data structures; internal/server wires them to endpoints. All
// types are safe for concurrent use.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Span names used across the serving pipeline. A job's trace is the
// ordered set of these phases; a proxied job additionally carries the
// proxying replica's relay span.
const (
	SpanAdmission   = "admission"   // ingress → admitted by the DWRR scheduler
	SpanQueue       = "queue"       // admitted → dequeued by a worker
	SpanBuild       = "build"       // store probe + (on miss) compile + link
	SpanStore       = "store"       // build sub-phase: tier probe / inflight wait
	SpanCompile     = "compile"     // build sub-phase: TU + libc compiles
	SpanLink        = "link"        // build sub-phase: static link
	SpanInstantiate = "instantiate" // mrt.New (sandbox, tables, first publish) + plugin compiles
	SpanRun         = "run"         // guest execution in its vm.Process
	SpanRelay       = "relay"       // proxy hop to the owning replica
)

// Span is one timed phase of a job, attributed to a trace.
type Span struct {
	Trace   string            `json:"trace"`
	Name    string            `json:"name"`
	Replica string            `json:"replica,omitempty"`
	StartNs int64             `json:"start_unix_ns"`
	DurNs   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Trace is the span set recorded under one trace ID, in arrival order.
type Trace struct {
	ID    string `json:"id"`
	Spans []Span `json:"spans"`
}

// maxSpansPerTrace bounds one trace's span set: /v1/trace/{id} accepts
// pushed spans from peers, and an unbounded set would let a hostile
// peer grow one entry without limit.
const maxSpansPerTrace = 512

// DefaultTraceBuffer is the default trace-ring capacity.
const DefaultTraceBuffer = 1024

// RecorderStats is a Recorder counter snapshot (exported on /metrics).
type RecorderStats struct {
	Sampled  int64 `json:"traces_sampled"`
	Spans    int64 `json:"spans_recorded"`
	Evicted  int64 `json:"traces_evicted"`
	Retained int   `json:"traces_retained"`
}

// Recorder is a bounded in-memory ring of sampled traces. Sampling is
// deterministic in the trace ID, so every replica that sees a
// propagated ID makes the same keep/drop decision without coordination.
type Recorder struct {
	sample   float64 // fraction of traces kept, (0, 1]
	capacity int

	mu     sync.Mutex
	traces map[string]*Trace
	order  []string // insertion order, FIFO eviction

	sampled atomic.Int64
	spans   atomic.Int64
	evicted atomic.Int64
}

// NewRecorder builds a recorder keeping the given fraction of traces
// (clamped to [0, 1]; 0 records nothing) in a ring of at most capacity
// traces (<=0 → DefaultTraceBuffer).
func NewRecorder(sample float64, capacity int) *Recorder {
	if sample < 0 {
		sample = 0
	}
	if sample > 1 {
		sample = 1
	}
	if capacity <= 0 {
		capacity = DefaultTraceBuffer
	}
	return &Recorder{
		sample:   sample,
		capacity: capacity,
		traces:   make(map[string]*Trace),
	}
}

// Mint returns a fresh 16-hex-digit trace ID.
func Mint() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// Sampled reports whether spans under this trace ID are recorded. The
// decision hashes the ID against the sample rate, so it is identical on
// every replica running the same rate — a proxied job is either traced
// end to end or not at all.
func (r *Recorder) Sampled(id string) bool {
	if r == nil || r.sample <= 0 || id == "" {
		return false
	}
	if r.sample >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	const buckets = 1 << 20
	return float64(h.Sum64()%buckets) < r.sample*buckets
}

// Record appends a span to its trace, creating the trace (and evicting
// the oldest, if at capacity) on first sight. Spans for unsampled
// trace IDs are dropped.
func (r *Recorder) Record(sp Span) {
	if !r.Sampled(sp.Trace) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tr, ok := r.traces[sp.Trace]
	if !ok {
		for len(r.order) >= r.capacity {
			delete(r.traces, r.order[0])
			r.order = r.order[1:]
			r.evicted.Add(1)
		}
		tr = &Trace{ID: sp.Trace}
		r.traces[sp.Trace] = tr
		r.order = append(r.order, sp.Trace)
		r.sampled.Add(1)
	}
	if len(tr.Spans) >= maxSpansPerTrace {
		return
	}
	tr.Spans = append(tr.Spans, sp)
	r.spans.Add(1)
}

// Get returns a copy of the trace recorded under id.
func (r *Recorder) Get(id string) (Trace, bool) {
	if r == nil {
		return Trace{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tr, ok := r.traces[id]
	if !ok {
		return Trace{}, false
	}
	out := Trace{ID: tr.ID, Spans: append([]Span(nil), tr.Spans...)}
	return out, true
}

// SampleRate reports the configured sampling fraction.
func (r *Recorder) SampleRate() float64 {
	if r == nil {
		return 0
	}
	return r.sample
}

// Stats snapshots the recorder's counters.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	r.mu.Lock()
	retained := len(r.order)
	r.mu.Unlock()
	return RecorderStats{
		Sampled:  r.sampled.Load(),
		Spans:    r.spans.Load(),
		Evicted:  r.evicted.Load(),
		Retained: retained,
	}
}
