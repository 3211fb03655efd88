package granule

import (
	"fmt"
	"sort"
	"strings"
)

// Set is a set of granule IDs stored as an ordered list of disjoint,
// non-adjacent (coalesced) ranges. It is the workhorse behind ready-granule
// bookkeeping in the scheduler: phases touch granules in large contiguous
// runs, so an interval representation keeps both memory and scheduling cost
// proportional to fragmentation rather than granule count.
//
// The zero Set is an empty set ready for use. Set is not safe for concurrent
// use; the executive serializes access (as the serial PAX executive did).
type Set struct {
	runs []Range // sorted by Lo, pairwise disjoint and non-adjacent, none empty
}

// NewSet returns a set containing the given ranges.
func NewSet(rs ...Range) *Set {
	s := &Set{}
	for _, r := range rs {
		s.AddRange(r)
	}
	return s
}

// Len reports the number of granules in the set.
func (s *Set) Len() int {
	n := 0
	for _, r := range s.runs {
		n += r.Len()
	}
	return n
}

// Empty reports whether the set contains no granules.
func (s *Set) Empty() bool { return len(s.runs) == 0 }

// NumRuns reports the fragmentation of the set: the number of maximal
// contiguous runs it is stored as.
func (s *Set) NumRuns() int { return len(s.runs) }

// Run returns the i-th coalesced range in ascending order, 0 <= i <
// NumRuns(). Walking the runs by index reads them in place, without
// copying or allocating.
func (s *Set) Run(i int) Range { return s.runs[i] }

// Clear empties the set but keeps its backing array, so a reused scratch
// set grows back to its high-water mark without allocating.
func (s *Set) Clear() { s.runs = s.runs[:0] }

// Contains reports whether id is in the set.
func (s *Set) Contains(id ID) bool {
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Hi > id })
	return i < len(s.runs) && s.runs[i].Contains(id)
}

// ContainsRange reports whether every granule of r is in the set.
func (s *Set) ContainsRange(r Range) bool {
	if r.Empty() {
		return true
	}
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Hi > r.Lo })
	return i < len(s.runs) && s.runs[i].Lo <= r.Lo && r.Hi <= s.runs[i].Hi
}

// Add inserts a single granule.
func (s *Set) Add(id ID) { s.AddRange(Range{Lo: id, Hi: id + 1}) }

// AddRange inserts every granule of r, coalescing with existing runs.
func (s *Set) AddRange(r Range) {
	if r.Empty() {
		return
	}
	// Find the window of runs that overlap or are adjacent to r.
	lo := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Hi >= r.Lo })
	hi := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Lo > r.Hi })
	if lo == hi {
		// No overlap/adjacency: plain insertion.
		s.runs = append(s.runs, Range{})
		copy(s.runs[lo+1:], s.runs[lo:])
		s.runs[lo] = r
		return
	}
	merged := r
	if s.runs[lo].Lo < merged.Lo {
		merged.Lo = s.runs[lo].Lo
	}
	if s.runs[hi-1].Hi > merged.Hi {
		merged.Hi = s.runs[hi-1].Hi
	}
	s.runs[lo] = merged
	s.runs = append(s.runs[:lo+1], s.runs[hi:]...)
}

// Remove deletes a single granule if present.
func (s *Set) Remove(id ID) { s.RemoveRange(Range{Lo: id, Hi: id + 1}) }

// RemoveRange deletes every granule of r that is present.
func (s *Set) RemoveRange(r Range) {
	if r.Empty() || len(s.runs) == 0 {
		return
	}
	lo := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Hi > r.Lo })
	hi := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Lo >= r.Hi })
	if lo >= hi {
		return
	}
	var repl []Range
	left := Range{Lo: s.runs[lo].Lo, Hi: r.Lo}
	right := Range{Lo: r.Hi, Hi: s.runs[hi-1].Hi}
	if !left.Empty() {
		repl = append(repl, left)
	}
	if !right.Empty() {
		repl = append(repl, right)
	}
	tail := s.runs[hi:]
	s.runs = append(s.runs[:lo], append(repl, tail...)...)
}

// TakeFront removes and returns up to n granules from the lowest-numbered
// run of the set. It returns the removed range; the range is empty when the
// set is empty. Splitting always honours run boundaries: the returned range
// is contiguous in the set, which mirrors PAX splitting a description rather
// than scattering granules.
func (s *Set) TakeFront(n int) Range {
	if len(s.runs) == 0 || n <= 0 {
		return Range{}
	}
	front, rest := s.runs[0].TakeFront(n)
	if rest.Empty() {
		s.runs = s.runs[1:]
	} else {
		s.runs[0] = rest
	}
	return front
}

// PopRun removes and returns the lowest-numbered maximal run (the whole
// first description), or an empty range if the set is empty.
func (s *Set) PopRun() Range {
	if len(s.runs) == 0 {
		return Range{}
	}
	r := s.runs[0]
	s.runs = s.runs[1:]
	return r
}

// Min returns the smallest granule in the set; ok is false when empty.
func (s *Set) Min() (id ID, ok bool) {
	if len(s.runs) == 0 {
		return 0, false
	}
	return s.runs[0].Lo, true
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{runs: make([]Range, len(s.runs))}
	copy(c.runs, s.runs)
	return c
}

// Equal reports whether s and t contain exactly the same granules.
func (s *Set) Equal(t *Set) bool {
	if len(s.runs) != len(t.runs) {
		return false
	}
	for i, r := range s.runs {
		if r != t.runs[i] {
			return false
		}
	}
	return true
}

// Union adds every granule of t into s.
func (s *Set) Union(t *Set) {
	for _, r := range t.runs {
		s.AddRange(r)
	}
}

// Subtract removes every granule of t from s.
func (s *Set) Subtract(t *Set) {
	for _, r := range t.runs {
		s.RemoveRange(r)
	}
}

// IntersectsRange reports whether any granule of r is in the set. It is
// IntersectRange(r).Empty() negated, without materializing a set — the
// dispatch path's double-dispatch guard runs once per task and must not
// allocate.
func (s *Set) IntersectsRange(r Range) bool {
	if r.Empty() {
		return false
	}
	lo := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Hi > r.Lo })
	return lo < len(s.runs) && s.runs[lo].Lo < r.Hi
}

// CountRange reports how many granules of r are in the set, without
// materializing the intersection.
func (s *Set) CountRange(r Range) int {
	if r.Empty() {
		return 0
	}
	n := 0
	lo := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Hi > r.Lo })
	for i := lo; i < len(s.runs) && s.runs[i].Lo < r.Hi; i++ {
		n += s.runs[i].Intersect(r).Len()
	}
	return n
}

// IntersectRange returns the granules of s that lie inside r, as a new set.
func (s *Set) IntersectRange(r Range) *Set {
	out := &Set{}
	if r.Empty() {
		return out
	}
	lo := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Hi > r.Lo })
	for i := lo; i < len(s.runs) && s.runs[i].Lo < r.Hi; i++ {
		if x := s.runs[i].Intersect(r); !x.Empty() {
			out.runs = append(out.runs, x)
		}
	}
	return out
}

// Each calls f for every granule in ascending order.
func (s *Set) Each(f func(ID)) {
	for _, r := range s.runs {
		r.Each(f)
	}
}

// IDs returns all granule IDs in ascending order (tests and small sets).
func (s *Set) IDs() []ID {
	out := make([]ID, 0, s.Len())
	s.Each(func(id ID) { out = append(out, id) })
	return out
}

// String renders the set as "{[0,5) [9,10)}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range s.runs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprint(&b, r)
	}
	b.WriteByte('}')
	return b.String()
}

// check verifies the internal invariants; used by tests.
func (s *Set) check() error {
	for i, r := range s.runs {
		if r.Empty() {
			return fmt.Errorf("run %d empty: %v", i, r)
		}
		if i > 0 && s.runs[i-1].Hi >= r.Lo {
			return fmt.Errorf("runs %d,%d not disjoint/coalesced: %v %v", i-1, i, s.runs[i-1], r)
		}
	}
	return nil
}
