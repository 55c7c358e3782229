package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public API. Spans of one
// request (a cell, a what-if job) share Req; Parent is the ID of the
// enclosing span, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Req     string `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps a run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced passes call it unconditionally.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID.
func (l *spanLog) begin(name, req string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Req: req,
		StartNs: time.Since(l.t0).Nanoseconds()})
	return len(l.spans)
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].EndNs = time.Since(l.t0).Nanoseconds()
}

// durations returns the durations of every span called name, in
// milliseconds.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// writeSpans stores a traced run's spans with the run description as
// one JSON document under the output directory.
func (out *outcome) writeSpans(o options, info map[string]any) error {
	if out.spans == nil {
		return nil
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"run": info, "spans": out.spans.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.spans.json", o.workload, o.seed))
	return os.WriteFile(path, b, 0o644)
}

// profilePath returns where a traced run writes its CPU profile,
// creating the output directory.
func profilePath(o options) (string, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.cpu.pb.gz", o.workload, o.seed)), nil
}
