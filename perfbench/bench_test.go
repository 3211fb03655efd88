package main

import (
	"math"
	"testing"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		p         float64
		want, pct float64
	}{
		{n: 1000, p: 99, want: 990, pct: 99},  // exactly ten beyond p99
		{n: 2000, p: 99, want: 1980, pct: 99}, // twenty beyond: p99 stands
		{n: 500, p: 99, want: 490, pct: 98},   // lowered to keep ten beyond
		{n: 100, p: 99, want: 90, pct: 90},
		{n: 11, p: 50, want: 1, pct: 100.0 / 11},
		{n: 40, p: 50, want: 20, pct: 50},
	} {
		got, used := tail(seq(tc.n), tc.p)
		if got != tc.want || math.Abs(used-tc.pct) > 1e-9 {
			t.Errorf("tail(n=%d, p%v) = %v at p%v, want %v at p%v", tc.n, tc.p, got, used, tc.want, tc.pct)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("tail(n=%d, p%v) = %v leaves %d samples beyond it", tc.n, tc.p, got, beyond)
		}
	}
	for _, n := range []int{0, 1, 10} {
		if got, _ := tail(seq(n), 99); !math.IsNaN(got) {
			t.Errorf("tail of %d samples = %v, want NaN", n, got)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("empty median = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},                // root
		{ID: 2, Parent: 1, Start: 10, End: 30},     // child
		{ID: 3, Parent: 1, Start: 20, End: 50},     // overlaps child 2: union 10..50
		{ID: 4, Parent: 1, Start: 90, End: 120},    // runs past the parent: clipped to 90..100
		{ID: 5, Parent: 2, Start: 12, End: 18},     // grandchild: counts against 2, not 1
		{ID: 6, Parent: 1, Start: 60, End: 60},     // empty
		{ID: 7, Parent: 0, Start: 200, End: 150},   // unfinished
		{ID: 8, Parent: 7, Start: 210, End: 220},   // child of an unfinished span
		{ID: 9, Parent: 1, Start: 40, End: 45},     // inside the union already
		{ID: 10, Parent: 3, Start: -5, End: 100},   // covers its whole parent
		{ID: 11, Parent: 10, Start: -5, End: -1},   // before its parent's start
		{ID: 12, Parent: 10, Start: 100, End: 100}, // at its parent's end
	}
	want := []int64{100 - 40 - 10, 20 - 6, 0, 30, 6, 0, 0, 10, 5, 105 - 4, 4, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.start("core.x", 0, tr.op())
	tr.calls(id, 3)
	tr.finish(id)
	if id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	op := tr.op()
	root := tr.start("bench.op", 0, op)
	tr.finish(tr.start("runner.Run", root, op))
	tr.finish(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != op || layerOf(tr.spans[1].Name) != "runner" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	self := selfTimes(tr.spans)
	if self[0] < 0 || self[0] > tr.spans[0].End-tr.spans[0].Start {
		t.Fatalf("root self time %d outside its span", self[0])
	}
}

func TestConformNeedsEveryManifestMetric(t *testing.T) {
	want := []manifestMetric{{"latency_ms", "ms"}, {"setup_s", "s"}}
	good := map[string]metric{"latency_ms": {1.5, "ms"}, "setup_s": {0.2, "s"}}
	if err := conform(good, want); err != nil {
		t.Fatalf("conforming result refused: %v", err)
	}
	for name, got := range map[string]map[string]metric{
		"missing": {"latency_ms": {1.5, "ms"}},
		"unit":    {"latency_ms": {1.5, "s"}, "setup_s": {0.2, "s"}},
		"extra":   {"latency_ms": {1.5, "ms"}, "setup_s": {0.2, "s"}, "other": {1, "ms"}},
		"nan":     {"latency_ms": {math.NaN(), "ms"}, "setup_s": {0.2, "s"}},
	} {
		if err := conform(got, want); err == nil {
			t.Errorf("%s: non-conforming result accepted", name)
		}
	}
}

func TestOpSamplesPreferStealFreeOperations(t *testing.T) {
	var s opSamples
	for i, v := range []float64{10, 11, 12, 30, 31} {
		s.add(v, int64(i/3)) // the last two ran while the host stole time
	}
	if got := s.median(); got != 11 {
		t.Errorf("median over steal-free operations = %v, want 11", got)
	}
	if got := s.cleanShare(); got != 0.6 {
		t.Errorf("clean share = %v, want 0.6", got)
	}
	var few opSamples
	for i, v := range []float64{10, 30, 31, 32, 33} {
		few.add(v, int64(min(i, 1))) // one of five is steal-free: too few
	}
	if got := few.median(); got != 31 {
		t.Errorf("median with too few steal-free operations = %v, want 31 (all of them)", got)
	}
}
