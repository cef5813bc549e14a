package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the harness around a call
// into a layer, or around a task closure it handed to host. Times are
// nanoseconds since the tracer started. Spans of one job (or one
// experiment pass) share a root; Parent 0 means no parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer collects spans in memory; nothing is written until write.
// It is used from one goroutine: concurrent task closures stamp plain
// per-job records and the harness converts those to spans afterwards.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.base).Nanoseconds() }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, start, end int64) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int64, fn func(id int64)) time.Duration {
	id := t.add(name, parent, t.now(), 0)
	fn(id)
	s := &t.spans[id-1]
	s.End = t.now()
	return time.Duration(s.End - s.Start)
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its direct children cover. Overlapping children
// are counted once and children are clipped to the parent, so self
// time is never negative.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = (p.End - p.Start) - covered
	}
	return self
}

// write stores at most limit spans as JSON; the per-layer metrics are
// computed from all of them, the file is for a human with a viewer.
func (t *tracer) write(path string, limit int) error {
	spans := t.spans
	if len(spans) > limit {
		spans = spans[:limit]
	}
	b, err := json.Marshal(struct {
		Spans   []span `json:"spans"`
		Dropped int    `json:"dropped"`
	}{spans, len(t.spans) - len(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
