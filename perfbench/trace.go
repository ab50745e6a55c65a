package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the program. Spans of one operation share the root's ID as Op.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0 for a root span
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"` // since the tracer started
	DurUS   int64  `json:"dur_us"`
	Rounds  int    `json:"rounds,omitempty"`
	Parts   int    `json:"parts,omitempty"` // partitions touched
	Outcome string `json:"outcome"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how timing runs keep tracing off.
type tracer struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// newID allocates a span ID (0 when tracing is off).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span.
func (t *tracer) add(s span, start, end time.Time) {
	if t == nil {
		return
	}
	s.StartUS = start.Sub(t.base).Microseconds()
	s.DurUS = end.Sub(start).Microseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations in ms of the spans named name for
// which keep returns true.
func (t *tracer) durations(name string, keep func(*span) bool) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, float64(s.DurUS)/1000)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
