package granule

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func setOf(t *testing.T, rs ...Range) *Set {
	t.Helper()
	s := NewSet(rs...)
	if err := s.check(); err != nil {
		t.Fatalf("invariant after NewSet(%v): %v", rs, err)
	}
	return s
}

func TestSetAddCoalesce(t *testing.T) {
	s := setOf(t, R(0, 5), R(10, 15))
	if s.NumRuns() != 2 || s.Len() != 10 {
		t.Fatalf("set = %v", s)
	}
	s.AddRange(R(5, 10)) // bridges the gap
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	if s.NumRuns() != 1 || s.Len() != 15 {
		t.Fatalf("after bridge: %v", s)
	}
}

func TestSetAddAdjacent(t *testing.T) {
	s := setOf(t)
	s.AddRange(R(0, 3))
	s.AddRange(R(3, 6)) // adjacent: must coalesce
	if s.NumRuns() != 1 {
		t.Fatalf("adjacent not coalesced: %v", s)
	}
}

func TestSetAddOverlapping(t *testing.T) {
	s := setOf(t, R(2, 8))
	s.AddRange(R(0, 4))
	s.AddRange(R(6, 12))
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	if s.NumRuns() != 1 || !s.ContainsRange(R(0, 12)) || s.Len() != 12 {
		t.Fatalf("set = %v", s)
	}
}

func TestSetRemoveMiddle(t *testing.T) {
	s := setOf(t, R(0, 10))
	s.RemoveRange(R(3, 7))
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 || s.NumRuns() != 2 || s.Contains(3) || s.Contains(6) || !s.Contains(2) || !s.Contains(7) {
		t.Fatalf("set = %v", s)
	}
}

func TestSetRemoveSpanningRuns(t *testing.T) {
	s := setOf(t, R(0, 4), R(6, 10), R(12, 16))
	s.RemoveRange(R(2, 14))
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 || !s.ContainsRange(R(0, 2)) || !s.ContainsRange(R(14, 16)) {
		t.Fatalf("set = %v", s)
	}
}

func TestSetRemoveDisjoint(t *testing.T) {
	s := setOf(t, R(0, 4))
	s.RemoveRange(R(6, 10))
	if s.Len() != 4 {
		t.Fatalf("set = %v", s)
	}
	s.RemoveRange(Range{})
	if s.Len() != 4 {
		t.Fatalf("set = %v", s)
	}
}

func TestSetTakeFront(t *testing.T) {
	s := setOf(t, R(0, 5), R(10, 12))
	got := s.TakeFront(3)
	if got != R(0, 3) || s.Len() != 4 {
		t.Fatalf("TakeFront(3) = %v, set %v", got, s)
	}
	got = s.TakeFront(10) // honours run boundary: only rest of first run
	if got != R(3, 5) || s.Len() != 2 {
		t.Fatalf("TakeFront(10) = %v, set %v", got, s)
	}
	got = s.TakeFront(2)
	if got != R(10, 12) || !s.Empty() {
		t.Fatalf("TakeFront = %v, set %v", got, s)
	}
	if got = s.TakeFront(1); !got.Empty() {
		t.Fatalf("TakeFront on empty = %v", got)
	}
}

func TestSetPopRun(t *testing.T) {
	s := setOf(t, R(3, 5), R(8, 9))
	if r := s.PopRun(); r != R(3, 5) {
		t.Fatalf("PopRun = %v", r)
	}
	if r := s.PopRun(); r != R(8, 9) {
		t.Fatalf("PopRun = %v", r)
	}
	if r := s.PopRun(); !r.Empty() {
		t.Fatalf("PopRun on empty = %v", r)
	}
}

func TestSetMin(t *testing.T) {
	s := setOf(t, R(7, 9))
	if id, ok := s.Min(); !ok || id != 7 {
		t.Fatalf("Min = %v,%v", id, ok)
	}
	if _, ok := (&Set{}).Min(); ok {
		t.Fatal("Min on empty reported ok")
	}
}

func TestSetUnionSubtractIntersect(t *testing.T) {
	a := setOf(t, R(0, 10))
	b := setOf(t, R(5, 15))
	a.Union(b)
	if a.Len() != 15 {
		t.Fatalf("union = %v", a)
	}
	a.Subtract(setOf(t, R(0, 5)))
	if a.Len() != 10 || a.Contains(4) {
		t.Fatalf("subtract = %v", a)
	}
	x := a.IntersectRange(R(8, 12))
	if x.Len() != 4 || !x.ContainsRange(R(8, 12)) {
		t.Fatalf("intersect = %v", x)
	}
}

func TestSetCloneEqual(t *testing.T) {
	a := setOf(t, R(0, 4), R(9, 12))
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Add(100)
	if a.Equal(b) {
		t.Fatal("mutating clone affected original equality")
	}
	if a.Contains(100) {
		t.Fatal("clone shares storage with original")
	}
}

// TestSetRunClear: Run walks the coalesced ranges in ascending order, and
// a cleared set refills to its old size without allocating.
func TestSetRunClear(t *testing.T) {
	runs := []Range{R(0, 4), R(9, 12), R(20, 21)}
	s := setOf(t, runs[2], runs[0], R(10, 12), R(9, 10), runs[1])
	if s.NumRuns() != len(runs) {
		t.Fatalf("NumRuns %d, want %d: %v", s.NumRuns(), len(runs), s)
	}
	for i := range runs {
		if s.Run(i) != runs[i] {
			t.Fatalf("Run(%d) = %v, want %v", i, s.Run(i), runs[i])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Clear()
		if !s.Empty() {
			t.Fatal("cleared set not empty")
		}
		for _, r := range runs {
			s.AddRange(r)
		}
	}); allocs != 0 {
		t.Fatalf("clear and refill: %v allocs, want 0", allocs)
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
}

func TestSetString(t *testing.T) {
	s := setOf(t, R(0, 5), R(9, 10))
	if got := s.String(); got != "{[0,5) [9,10)}" {
		t.Errorf("String = %q", got)
	}
}

// refSet is a simple map-based model for property testing.
type refSet map[ID]bool

func (m refSet) addRange(r Range)    { r.Each(func(id ID) { m[id] = true }) }
func (m refSet) removeRange(r Range) { r.Each(func(id ID) { delete(m, id) }) }

func (m refSet) equal(s *Set) bool {
	if len(m) != s.Len() {
		return false
	}
	for id := range m {
		if !s.Contains(id) {
			return false
		}
	}
	return true
}

// TestSetQuickAgainstModel drives random Add/Remove/TakeFront sequences and
// checks the interval set against a map-based model plus its own invariants.
func TestSetQuickAgainstModel(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Set{}
		m := refSet{}
		for _, raw := range opsRaw {
			op := int(raw) % 3
			lo := ID(rng.Intn(64))
			length := rng.Intn(16)
			r := R(lo, lo+ID(length))
			switch op {
			case 0:
				s.AddRange(r)
				m.addRange(r)
			case 1:
				s.RemoveRange(r)
				m.removeRange(r)
			case 2:
				got := s.TakeFront(length)
				// model: remove the same granules
				m.removeRange(got)
				if got.Len() > length && length > 0 {
					return false
				}
			}
			if err := s.check(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
			if !m.equal(s) {
				t.Logf("model mismatch: set=%v model-len=%d", s, len(m))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSetQuickSplitMergeRoundTrip checks the paper's split/merge contract:
// splitting a description into chunks and adding them back in any order
// reconstructs exactly the original description.
func TestSetQuickSplitMergeRoundTrip(t *testing.T) {
	f := func(seed int64, n uint16, grain uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		total := int(n)%500 + 1
		g := int(grain)%37 + 1
		orig := Span(total)
		chunks := orig.Chunks(g)
		rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
		s := &Set{}
		for _, c := range chunks {
			s.AddRange(c)
		}
		if err := s.check(); err != nil {
			return false
		}
		return s.NumRuns() == 1 && s.ContainsRange(orig) && s.Len() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetAddRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := &Set{}
		for j := 0; j < 128; j++ {
			lo := ID((j * 37) % 1024)
			s.AddRange(R(lo, lo+8))
		}
	}
}

func BenchmarkSetTakeFront(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSet(Span(4096))
		for !s.Empty() {
			s.TakeFront(64)
		}
	}
}
