package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many samples must lie beyond a reported tail
// percentile: a percentile with fewer samples past it is a reading of a
// handful of outliers, not of the distribution.
const minTail = 10

// tail returns the nearest-rank p-th percentile of xs, lowered when
// needed to the highest percentile that still has minTail samples beyond
// it, and the percentile actually used. It returns NaN when xs has no
// more than minTail samples.
func tail(xs []float64, p float64) (value, used float64) {
	n := len(xs)
	if n <= minTail {
		return math.NaN(), 0
	}
	k := int(math.Ceil(p / 100 * float64(n)))
	if k > n-minTail {
		k = n - minTail
	}
	if k < 1 {
		k = 1
	}
	return sorted(xs)[k-1], 100 * float64(k) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// opSamples collects one value per timed operation together with the
// host steal ticks (see stealTicks) that elapsed while it ran.
type opSamples struct {
	v     []float64
	steal []int64
}

func (s *opSamples) add(v float64, steal int64) {
	s.v = append(s.v, v)
	s.steal = append(s.steal, steal)
}

// minClean is the share of operations that must have run with no host
// steal before the median is taken over those alone.
const minClean = 0.25

// clean returns the values of the operations the host stole no CPU time
// from, or every value when fewer than minClean of them qualify. On a
// shared host, steal comes in bursts that slowed whole runs by 10% and
// more; an operation that saw none measures the program rather than the
// hypervisor.
func (s *opSamples) clean() []float64 {
	var xs []float64
	for i, v := range s.v {
		if s.steal[i] == 0 {
			xs = append(xs, v)
		}
	}
	if float64(len(xs)) < minClean*float64(len(s.v)) {
		return s.v
	}
	return xs
}

func (s *opSamples) median() float64 { return median(s.clean()) }

// cleanShare is the share of operations that ran with no host steal.
func (s *opSamples) cleanShare() float64 {
	n := 0
	for _, st := range s.steal {
		if st == 0 {
			n++
		}
	}
	return float64(n) / float64(len(s.steal))
}
