package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share its
// index; Parent is the span that caused this one, or -1.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s *span) us() float64 { return float64(s.EndNs-s.StartNs) / 1e3 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs pay nothing for it.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, op int, parent int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, StartNs: int64(time.Since(t.origin))})
	return id
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].EndNs = int64(time.Since(t.origin))
	}
}

// add records a span whose interval was timed elsewhere.
func (t *tracer) add(name string, op int, parent int32, start time.Time, d time.Duration) int32 {
	id := t.begin(name, op, parent)
	t.spans[id].StartNs = int64(start.Sub(t.origin))
	t.spans[id].EndNs = t.spans[id].StartNs + int64(d)
	return id
}

// durations returns the length in microseconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].us())
		}
	}
	return out
}

// coverage is the share of the root spans' time that their child spans
// account for: what is left is the harness's own time between the calls.
func (t *tracer) coverage() float64 {
	var roots, children float64
	for i := range t.spans {
		switch p := t.spans[i].Parent; {
		case p < 0:
			roots += t.spans[i].us()
		case t.spans[p].Parent < 0:
			children += t.spans[i].us()
		}
	}
	return children / roots
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
