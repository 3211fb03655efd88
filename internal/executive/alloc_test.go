package executive

// Allocation gate for the real-goroutine per-task path. A run allocates
// a fixed amount — goroutines, the manager, the metric set, the
// scheduler's tables and slab growth — but the per-task loop (Next,
// execute, Complete, and the manager's clock readings around them) must
// allocate nothing, so growing the chain must not grow a run's
// allocations beyond the scheduler's own high-water mark (see
// internal/core's TestFineChainSteadyStateAllocFree).

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
)

// fineChainAllocs measures allocations per RunContext of the three-phase
// grain-1 identity chain of width n (no work functions: a pure
// scheduling run) on two workers under kind, and returns them with the
// run's task count.
func fineChainAllocs(t *testing.T, kind ManagerKind, n int) (allocs float64, tasks int64) {
	t.Helper()
	prog, err := core.NewProgram(
		&core.Phase{Name: "a", Granules: n, Enable: enable.NewIdentity()},
		&core.Phase{Name: "b", Granules: n, Enable: enable.NewIdentity()},
		&core.Phase{Name: "c", Granules: n},
	)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Grain: 1, Overlap: true, IdentityVia: core.IdentityTable, Costs: core.DefaultCosts()}
	cfg := Config{Workers: 2, Manager: kind}
	run := func() *Report {
		rep, err := RunContext(context.Background(), prog, opt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	tasks = run().Tasks
	allocs = testing.AllocsPerRun(5, func() { run() })
	return allocs, tasks
}

// TestRunSteadyStateAllocFree: quadrupling the fine chain adds no
// per-task allocation under the serial and sharded managers. The bound
// is the core gate's: the scheduler's description-slab high-water growth
// (at most 1/256 per extra task) plus a few doublings; one allocation per
// task anywhere on the worker loop would read 1.
func TestRunSteadyStateAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is slow under -short")
	}
	for _, kind := range []ManagerKind{SerialManager, ShardedManager} {
		t.Run(kind.String(), func(t *testing.T) {
			aSmall, tSmall := fineChainAllocs(t, kind, 2048)
			aBig, tBig := fineChainAllocs(t, kind, 8192)
			extra := float64(tBig - tSmall)
			if extra <= 0 {
				t.Fatalf("task counts did not grow: %d -> %d", tSmall, tBig)
			}
			if per := (aBig - aSmall) / extra; per > 0.005 {
				t.Errorf("%.0f extra allocs for %.0f extra tasks (%.4f/task); want amortized zero",
					aBig-aSmall, extra, per)
			}
		})
	}
}
