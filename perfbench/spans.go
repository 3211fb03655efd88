package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Name is
// "layer.Func"; the layer is the part before the first dot. Spans of one
// operation share Op; Parent is the enclosing span's ID (0 for a root).
// Calls counts the layer calls a span covers when a hot loop is recorded
// as one span instead of one per call (the core drive loop makes two
// calls per task, and a span each would be most of what it measures).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

// tracer keeps spans in memory for the traced run and writes them out at
// the end. Every method is a no-op on a nil tracer, so untraced runs pay
// one nil check per call site. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates a fresh operation ID.
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent int32, op int64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// finish closes span id.
func (t *tracer) finish(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// calls records how many layer calls span id covers.
func (t *tracer) calls(id int32, n int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Calls = n
	t.mu.Unlock()
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its children cover.
// Children may overlap one another (concurrent calls under one
// operation), so coverage is the length of the union of their
// intervals, clipped to the parent's. Spans are identified by ID =
// index+1; an unfinished span (End < Start) counts as zero length.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[s.ID] {
			c := spans[k]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo > curHi:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			case v.hi > curHi:
				curHi = v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// report prints span count, total and self time per layer.
func (t *tracer) report(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	for i, s := range spans {
		a := by[layerOf(s.Name)]
		if a == nil {
			a = &agg{}
			by[layerOf(s.Name)] = a
		}
		a.n++
		if s.End >= s.Start {
			a.total += s.End - s.Start
		}
		a.self += self[i]
	}
	layers := make([]string, 0, len(by))
	for l := range by {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "spans: %d recorded\n", len(spans))
	for _, l := range layers {
		a := by[l]
		fmt.Fprintf(w, "  span layer %-10s n=%-6d total=%10.3fms self=%10.3fms\n",
			l, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// write stores the spans as JSON in dir/name.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}
