package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// repetition share a run id; parent is the id of the enclosing span (0 at
// the top).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Run     string  `json:"run"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog keeps every span in memory until the benchmark ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (l *spanLog) begin(run, name string, parent int) (int, func()) {
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Run: run, Name: name, StartUS: float64(time.Since(l.t0)) / 1e3})
	l.mu.Unlock()
	return id, func() {
		l.mu.Lock()
		l.spans[id-1].EndUS = float64(time.Since(l.t0)) / 1e3
		l.mu.Unlock()
	}
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{l.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
