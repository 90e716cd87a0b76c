package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans in memory around the benchmark's calls into each
// layer. A nil *tracer records nothing, so untraced code paths share the
// traced ones. Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Name is "layer.call"; Parent is the index of the
// enclosing span or -1; Op identifies the benchmark operation (one compile
// or one request) the span belongs to.
type span struct {
	Name       string
	Op, Parent int
	Start, End time.Duration // since t0
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its id for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	return t.beginAt(name, op, parent, time.Now())
}

// beginAt opens a span that started at the given time.
func (t *tracer) beginAt(name string, op, parent int, at time.Time) int {
	if t == nil {
		return -1
	}
	start := at.Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: start})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name string, op, parent int, f func()) time.Duration {
	id := t.begin(name, op, parent)
	f()
	return t.end(id)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[layerOf(s.Name)] += s.End - s.Start - covered(s, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	lo, hi := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return total + hi - lo
}

// writeChrome writes the spans in Chrome trace-event format (complete "X"
// events, microsecond timestamps, one row per op), with the run's layer
// metrics under otherData.
func (t *tracer) writeChrome(path string, metrics []metric) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	doc := struct {
		TraceEvents []event            `json:"traceEvents"`
		Unit        string             `json:"displayTimeUnit"`
		OtherData   map[string]float64 `json:"otherData"`
	}{Unit: "ms", OtherData: map[string]float64{}}
	for i, s := range t.spans {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Op,
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		})
	}
	for _, m := range metrics {
		doc.OtherData[m.name] = m.value
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
