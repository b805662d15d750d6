package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded at a benchmark call site.  Spans of
// one job share its id; parent names the span that caused this one (0 for
// a root).
type span struct {
	name   string
	cat    string
	id     int64
	parent int64
	client int
	start  time.Time
	dur    time.Duration
	args   map[string]any
}

// tracer keeps spans in memory until the run ends.  A nil *tracer records
// nothing, so untraced runs pay no more than a nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID returns a fresh span id (0 on a nil tracer).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every recorded span to path as Chrome trace-event JSON,
// one thread row per client.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.name,
			Cat:  s.cat,
			Ph:   "X",
			Ts:   float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.client,
			Args: args,
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
