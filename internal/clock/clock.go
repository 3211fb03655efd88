// Package clock is the process-wide monotonic clock the real-goroutine
// backends read on their per-task paths. A reading is nanoseconds since a
// package epoch taken at process start: one monotonic-clock read, cheaper
// than time.Now (which also reads the wall clock), and immune to
// wall-clock steps, so a stall watchdog comparing two readings can
// neither fire nor go blind when NTP moves the system time.
//
// Readings are comparable only within one process. Wall-clock time
// belongs in API and report timestamps, never on a hot path.
package clock

import "time"

// epoch anchors every reading; it carries a monotonic component, so
// time.Since(epoch) reads only the monotonic clock.
var epoch = time.Now()

// Now returns the monotonic clock reading: nanoseconds since the process
// epoch.
func Now() int64 { return int64(time.Since(epoch)) }

// Since returns the time elapsed since reading t.
func Since(t int64) time.Duration { return time.Duration(Now() - t) }
