package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Name is
// "<layer>.<call>"; spans of one operation share Op, and Parent names
// the span that caused this one (0 for an operation's root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced code paths call it unconditionally.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Add records a finished span and returns its ID.
func (t *Tracer) Add(op, parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// Durations returns the durations in ms of every span with the name.
func (t *Tracer) Durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// SelfMs returns each layer's self time in ms, summed over the spans
// of timed operations (set-up spans, with Op 0, are left out): a
// span's duration minus the part of it its children cover.
func (t *Tracer) SelfMs() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]Span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.Op == 0 {
			continue
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// WriteFile writes every span as JSON.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracerFor returns the tracer for one block of operations. A traced
// run alternates traced and untraced blocks, so the same run measures
// the tracing overhead without the machine's drift between two runs.
func (r *Run) tracerFor(block int) *Tracer {
	if r.tr == nil || block%2 != 0 {
		return nil
	}
	return r.tr
}

// reportTrace sets trace.overhead_pct from the latencies of the
// traced and untraced blocks' operations, and each layer's self time
// per traced operation.
func (r *Run) reportTrace(tracedMs, untracedMs []float64, tracedOps int) {
	r.set("trace.overhead_pct", (ratio(median(tracedMs), median(untracedMs))-1)*100)
	ops := float64(tracedOps)
	self := r.tr.SelfMs()
	for _, layer := range traceLayers {
		r.set("self_ms."+layer, ratio(self[layer], ops))
	}
}

// traceLayers are the span-name prefixes the benchmark records: its
// own operation roots, then the layers it calls into.
var traceLayers = []string{"bench", "toolchain", "mrt", "vm", "http", "server", "cluster", "buildstore"}
