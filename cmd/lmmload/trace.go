package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// query share Query; Parent is the ID of the span that caused this one
// (0 = a root). Times are nanoseconds since the run's epoch.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer collects spans in memory. It is used from one goroutine at a
// time; load clients record into private buffers and hand them over
// with adopt once their phase has ended.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span and returns its ID, for end and for use as a
// parent. On a nil tracer both are no-ops, so untraced runs share the
// call sites.
func (t *tracer) begin(name string, parent, query int) int {
	if t == nil {
		return 0
	}
	now := t.now()
	return t.add(name, parent, query, now, now)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].EndNs = t.now()
	}
}

// do times fn as a span and returns the span's ID.
func (t *tracer) do(name string, parent, query int, fn func()) int {
	id := t.begin(name, parent, query)
	fn()
	t.end(id)
	return id
}

func (t *tracer) add(name string, parent, query int, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name, StartNs: start, EndNs: end})
	return id
}

// adopt appends spans recorded elsewhere (root spans with no ID yet),
// assigns their IDs and returns them in the order given.
func (t *tracer) adopt(recorded []span) []int {
	ids := make([]int, len(recorded))
	for i, s := range recorded {
		ids[i] = t.add(s.Name, 0, s.Query, s.StartNs, s.EndNs)
	}
	return ids
}

// selfTimes returns each span's duration minus the time its children
// cover, by span ID. Children that overlap one another are counted
// once (the union of their intervals), so two concurrent children
// cannot drive a parent's self time negative. A ladder-replay child
// runs after its parent returned, so the union is taken over the
// children's own intervals — what is subtracted is how long the rung
// below took — and is capped at the parent's duration.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		covered := unionLength(kids[s.ID])
		if covered > s.dur() {
			covered = s.dur()
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// unionLength is the total length of the union of the spans' intervals.
func unionLength(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(a, b int) bool { return iv[a].StartNs < iv[b].StartNs })
	var total int64
	curStart, curEnd := iv[0].StartNs, iv[0].EndNs
	for _, s := range iv[1:] {
		if s.StartNs > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s.StartNs, s.EndNs
		} else if s.EndNs > curEnd {
			curEnd = s.EndNs
		}
	}
	return time.Duration(total + curEnd - curStart)
}

// medianMs is the median duration, in ms, of the spans with this name;
// medianSelfMs the median of their self times. Both are 0 when the
// workload made no such call.
func (t *tracer) medianMs(name string) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, ms(s.dur()))
		}
	}
	return median(xs)
}

func (t *tracer) medianSelfMs(name string) float64 {
	self := selfTimes(t.spans)
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, ms(self[s.ID]))
		}
	}
	return median(xs)
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Header header `json:"header"`
	// Claim is always null: the benchmark's own change claims no gain.
	Claim   *string           `json:"claim"`
	Metrics map[string]metric `json:"metrics"`
	Spans   []span            `json:"spans"`
	// SelfNs is each span's self time by span ID.
	SelfNs map[int]int64 `json:"self_ns"`
}

func (t *tracer) write(dir string, h header, metrics map[string]metric) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	self := selfTimes(t.spans)
	tf := traceFile{Header: h, Metrics: metrics, Spans: t.spans, SelfNs: make(map[int]int64, len(self))}
	for id, d := range self {
		tf.SelfNs[id] = d.Nanoseconds()
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+h.Workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
