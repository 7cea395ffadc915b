package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one client-side interval of a traced run. Spans of one batch
// share Batch; Parent is the ID of the span that caused this one (-1 at
// the root).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: end-to-end runs pass nil, so tracing costs them one nil check
// per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer's clock: nanoseconds since it was created.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, batch int, start, end int64) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent, Batch: batch})
	return id
}

// begin opens a span whose end is set later by finish.
func (t *tracer) begin(name string, parent, batch int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	return t.add(name, parent, batch, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// write stores the spans as JSON; the file is the per-workload trace the
// README describes.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
