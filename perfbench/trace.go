package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one request share Req; Parent is the
// ID of the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branch.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now returns the tracer clock in nanoseconds (monotonic).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// id allocates a span ID.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record times fn as a span named name under parent and returns fn's
// error.
func (t *tracer) record(name string, req, parent uint64, fn func() error) error {
	if t == nil {
		return fn()
	}
	s := span{ID: t.id(), Parent: parent, Req: req, Name: name, Start: t.now()}
	err := fn()
	s.End = t.now()
	t.add(s)
	return err
}

// reset drops every recorded span (the warm-up's, before timing).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTime is a span's duration minus the union of the intervals its
// children cover inside it. Children may overlap each other (parallel
// streams of one request) and may poke outside the parent (clock reads
// on different goroutines); both are clipped so no instant is
// subtracted twice or subtracted from outside the parent.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// spanIndex groups spans for metric derivation.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[uint64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// durationsUs returns the durations of every span named name, in µs.
func (ix spanIndex) durationsUs(name string) []float64 {
	ss := ix.byName[name]
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / 1e3
	}
	return out
}

// selfUs returns the self time of every span named name, in µs.
func (ix spanIndex) selfUs(name string) []float64 {
	ss := ix.byName[name]
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(selfTime(s, ix.children[s.ID])) / 1e3
	}
	return out
}
