package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for a root); spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // unix ns
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// maxSpans bounds the in-memory trace: a traced 20 s tunnel_small
// window would record ~300 k spans (two per round trip), and nothing
// read from them needs more than the first quarter million.
const maxSpans = 1 << 18

// tracer records spans from the benchmark's own call sites.
// A nil *tracer is the untraced run: every method is a cheap no-op, so
// one op body serves both runs. It is used from one goroutine at a time
// (ops are sequential), which is what lets a plain stack name parents.
type tracer struct {
	spans   []span
	stack   []int
	op      int
	dropped int
}

func newTracer() *tracer { return &tracer{} }

// do times f as a span named name, child of whichever span is open.
func (t *tracer) do(name string, f func() error) error {
	if t == nil {
		return f()
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return f()
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	start := time.Now()
	t.spans = append(t.spans, span{Name: name, Start: start.UnixNano(), Parent: parent, Op: t.op})
	t.stack = append(t.stack, id)
	err := f()
	t.spans[id].End = t.spans[id].Start + int64(time.Since(start))
	t.stack = t.stack[:len(t.stack)-1]
	return err
}

// nextOp starts a new op: spans recorded from here on carry its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// adopt merges spans recorded by a child process into the current op.
func (t *tracer) adopt(child []span) {
	if t == nil {
		return
	}
	base := len(t.spans)
	for _, s := range child {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Op = t.op
		t.spans = append(t.spans, s)
	}
}

// perOp sums the durations (seconds) of spans named name within each op
// and returns one value per op that has any.
func (t *tracer) perOp(name string) []float64 {
	if t == nil {
		return nil
	}
	byOp := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := byOp[s.Op]; !ok {
			order = append(order, s.Op)
		}
		byOp[s.Op] += s.seconds()
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = byOp[op]
	}
	return out
}

// each returns the duration (seconds) of every span named name.
func (t *tracer) each(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// selfTimes returns each span's self time in seconds: its duration
// minus the part of that interval its child spans cover (overlapping
// children are merged first, so concurrent children are not counted
// twice).
func selfTimes(spans []span) []float64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// writeJSONL writes one span per line, with its self time.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		row := struct {
			span
			SelfS float64 `json:"self_s"`
		}{s, self[i]}
		if err := enc.Encode(row); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
