package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded interval: a call from the benchmark into a
// layer's public function, or a stage the layer itself reported (a
// pass duration from a RunReport, a request's server-side elapsed
// time). Reported stages carry their parent's start, since only their
// duration is known.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int, start time.Time, dur time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.epoch), Dur: dur})
	return id
}

// setDur sets the duration of a span recorded before it ended.
func (t *tracer) setDur(id int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Dur = d
}

// selfTimes sums, per span name, the self time of every span in the
// subtree under root: a span's duration minus the part its children
// cover.
func (t *tracer) selfTimes(root int) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	out := map[string]time.Duration{}
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id-1]
		self := s.Dur
		for _, c := range children[id] {
			self -= t.spans[c-1].Dur
			walk(c)
		}
		out[s.Name] += max(self, 0)
	}
	walk(root)
	return out
}

// write stores the span log with the run's environment stamp under
// .bench_build/traces and returns the file's path.
func (t *tracer) write(o options, env map[string]any) (string, error) {
	dir := filepath.Join(o.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	t.mu.Lock()
	raw, err := json.Marshal(map[string]any{"env": env, "spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
