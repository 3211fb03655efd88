package clock

import (
	"testing"
	"time"
)

// TestNowMonotone: readings never go backwards and track elapsed time.
func TestNowMonotone(t *testing.T) {
	prev := Now()
	for i := 0; i < 1000; i++ {
		n := Now()
		if n < prev {
			t.Fatalf("reading went backwards: %d after %d", n, prev)
		}
		prev = n
	}
	t0 := Now()
	time.Sleep(2 * time.Millisecond)
	if d := Since(t0); d < 2*time.Millisecond {
		t.Fatalf("Since after a 2ms sleep = %v", d)
	}
}

// BenchmarkNow prices one measured interval: two clock readings against
// a time.Now and time.Since pair.
func BenchmarkNow(b *testing.B) {
	b.Run("clock", func(b *testing.B) {
		var s int64
		for i := 0; i < b.N; i++ {
			t0 := Now()
			s += Now() - t0
		}
		_ = s
	})
	b.Run("time.Now", func(b *testing.B) {
		var s time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			s += time.Since(t0)
		}
		_ = s
	})
}
