package executive

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestTraceStampsShareIntervalReadings pins the clock rule on a traced
// run under every manager: a stamp on an interval's boundary is that
// interval's own reading. So each KUnpark lands exactly its idle span
// after the worker's KPark, each task's compute span [Time-Arg, Time)
// starts no earlier than its KDispatch, and the KComplete spans sum to
// the report's Compute.
func TestTraceStampsShareIntervalReadings(t *testing.T) {
	for _, kind := range ManagerKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			const workers = 4
			rec := trace.NewRecorder(trace.Meta{}, workers)
			prog, a, b, c := buildCopyChain(t, 1024)
			rep, err := Run(prog, core.Options{Grain: 1, Overlap: true, Costs: core.DefaultCosts()},
				Config{Workers: workers, Manager: kind, Trace: rec})
			if err != nil {
				t.Fatal(err)
			}
			checkCopyChain(t, a, b, c)

			type key struct {
				proc, phase int32
				lo          uint32
			}
			dispatched := map[key]int64{}
			parkedAt := map[int32]int64{}
			var busy int64
			for _, e := range rec.Take().Events {
				switch e.Kind {
				case trace.KDispatch:
					dispatched[key{e.Proc, e.Phase, e.Lo}] = e.Time
				case trace.KComplete:
					d, ok := dispatched[key{e.Proc, e.Phase, e.Lo}]
					if !ok {
						t.Fatalf("completion without a dispatch: %v", e)
					}
					if e.Time-e.Arg < d {
						t.Fatalf("compute span starts at %d, before its dispatch at %d: %v", e.Time-e.Arg, d, e)
					}
					busy += e.Arg
				case trace.KPark:
					parkedAt[e.Proc] = e.Time
				case trace.KUnpark:
					p, ok := parkedAt[e.Proc]
					if !ok {
						t.Fatalf("unpark without a park: %v", e)
					}
					if e.Time-p != e.Arg {
						t.Fatalf("unpark at %d after park at %d spans %d, but its idle interval is %d: %v",
							e.Time, p, e.Time-p, e.Arg, e)
					}
					delete(parkedAt, e.Proc)
				}
			}
			if time.Duration(busy) != rep.Compute {
				t.Fatalf("KComplete spans sum to %v, report Compute is %v", time.Duration(busy), rep.Compute)
			}
		})
	}
}
