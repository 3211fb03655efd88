package core

// Allocation gates for the bare state machine on the fine chain — the
// performance ladder's bottom rung. Building a scheduler allocates (phase
// state, enablement tables sized by the phase width, the in-flight table
// and description slab growing to their high-water marks), so the gate is
// differential, as in internal/sim: quadrupling the chain's width must add
// no allocations beyond a few backing-array doublings. A steady-state
// per-task allocation — a scratch set built per completion, a copied run
// list — would scale with the task count and fail.

import (
	"testing"

	"repro/internal/enable"
)

// fineChain builds the three-phase identity chain of width n with no work
// functions: a pure scheduling run.
func fineChain(t testing.TB, n int) *Program {
	t.Helper()
	prog, err := NewProgram(
		&Phase{Name: "a", Granules: n, Enable: enable.NewIdentity()},
		&Phase{Name: "b", Granules: n, Enable: enable.NewIdentity()},
		&Phase{Name: "c", Granules: n},
	)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// fineOptions is the ladder's configuration: grain 1, overlap on,
// identity released through the enablement-counter table.
func fineOptions() Options {
	return Options{Grain: 1, Overlap: true, IdentityVia: IdentityTable, Costs: DefaultCosts()}
}

// driveOne runs s to completion one task at a time through Complete.
func driveOne(t testing.TB, s *Scheduler) int {
	s.Start()
	tasks := 0
	for {
		task, _, ok := s.NextTask()
		if !ok {
			break
		}
		s.Complete(task)
		tasks++
	}
	if !s.Done() {
		t.Fatalf("scheduler stopped at phase %d", s.CurrentPhase())
	}
	return tasks
}

// driveBatch runs s to completion in batches of up to 8 tasks through
// NextTasks and CompleteBatch, the sharded and async managers' entry
// points. buf is reused across calls, as the managers reuse theirs.
func driveBatch(t testing.TB, s *Scheduler, buf []Task) int {
	s.Start()
	tasks := 0
	for {
		ts, _ := s.NextTasks(buf[:0], cap(buf))
		if len(ts) == 0 {
			break
		}
		s.CompleteBatch(ts)
		tasks += len(ts)
	}
	if !s.Done() {
		t.Fatalf("scheduler stopped at phase %d", s.CurrentPhase())
	}
	return tasks
}

// chainAllocs measures allocations per scheduler lifetime (New through
// Done) on the width-n chain, with the program built outside the
// measurement, and returns them with the run's task count.
func chainAllocs(t *testing.T, n int, batch bool) (allocs float64, tasks int) {
	t.Helper()
	prog := fineChain(t, n)
	buf := make([]Task, 0, 8)
	run := func() int {
		s, err := New(prog, fineOptions())
		if err != nil {
			t.Fatal(err)
		}
		if batch {
			return driveBatch(t, s, buf)
		}
		return driveOne(t, s)
	}
	tasks = run()
	allocs = testing.AllocsPerRun(3, func() { run() })
	return allocs, tasks
}

// TestFineChainSteadyStateAllocFree: growing the fine chain from 3×2048
// to 3×8192 tasks adds no per-task allocation, through Complete and
// through CompleteBatch. What a wider chain does add is high-water mark:
// released successors queue behind the current phase (the Background
// class), so the peak count of live descriptions grows with the width,
// and the description slab hands them out 256 per allocation — at most
// 1/256 ≈ 0.004 allocations per extra task, plus a few backing-array
// doublings. The bound sits just above that; one allocation per
// completion would read 1.
func TestFineChainSteadyStateAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is slow under -short")
	}
	for _, tc := range []struct {
		name  string
		batch bool
	}{{"Complete", false}, {"CompleteBatch", true}} {
		t.Run(tc.name, func(t *testing.T) {
			aSmall, tSmall := chainAllocs(t, 2048, tc.batch)
			aBig, tBig := chainAllocs(t, 8192, tc.batch)
			extraTasks := float64(tBig - tSmall)
			if extraTasks <= 0 {
				t.Fatalf("task counts did not grow: %d -> %d", tSmall, tBig)
			}
			if per := (aBig - aSmall) / extraTasks; per > 0.005 {
				t.Errorf("%.0f extra allocs for %.0f extra tasks (%.4f/task); want amortized zero",
					aBig-aSmall, extraTasks, per)
			}
		})
	}
}
