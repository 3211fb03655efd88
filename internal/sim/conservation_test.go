package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// randomProgram builds a random program of 1..5 phases with random
// mappings and serial actions, returning it with its declared serial
// sum.
func randomProgram(t *testing.T, rng *rand.Rand) (*core.Program, core.Cost) {
	t.Helper()
	nPhases := 1 + rng.Intn(5)
	phases := make([]*core.Phase, nPhases)
	var serialSum core.Cost
	for i := range phases {
		phases[i] = &core.Phase{
			Name:     string(rune('a' + i)),
			Granules: rng.Intn(300),
			Cost:     workload.UniformCost(1, core.Cost(1+rng.Intn(200)), rng.Uint64()),
		}
		if i > 0 && rng.Intn(3) == 0 {
			sc := core.Cost(rng.Intn(50))
			phases[i].SerialCost = sc
			serialSum += sc
		}
	}
	for i := 0; i < nPhases-1; i++ {
		if phases[i+1].SerialCost > 0 {
			continue // must stay null
		}
		switch rng.Intn(4) {
		case 0:
			// null
		case 1:
			phases[i].Enable = enable.NewUniversal()
		case 2:
			phases[i].Enable = enable.NewIdentity()
		case 3:
			n := phases[i].Granules
			if n == 0 {
				phases[i].Enable = enable.NewUniversal()
				continue
			}
			phases[i].Enable = enable.NewReverse(func(r granule.ID) []granule.ID {
				return []granule.ID{r % granule.ID(n)}
			})
		}
	}
	prog, err := core.NewProgram(phases...)
	if err != nil {
		t.Fatal(err)
	}
	return prog, serialSum
}

// randomOptions draws a random scheduler configuration.
func randomOptions(rng *rand.Rand) core.Options {
	return core.Options{
		Grain:      1 + rng.Intn(30),
		Overlap:    rng.Intn(3) != 0,
		Elevate:    rng.Intn(2) == 0,
		InlineMaps: rng.Intn(2) == 0,
		Split:      core.SplitPolicy(rng.Intn(2)),
		SuccSplit:  core.SuccSplitMode(rng.Intn(2)),
		Costs:      core.DefaultCosts(),
	}
}

// checkPhaseWindows asserts a job's rundown ledger is well formed: every
// phase that has granules ran inside [0, makespan], the ledger accounts
// for every dispatch, and its idle and fill charges are non-negative.
func checkPhaseWindows(t *testing.T, tag string, prog *core.Program, phases []PhaseTrace,
	makespan, dispatches int64) {
	t.Helper()
	if len(phases) != len(prog.Phases) {
		t.Fatalf("%s: %d ledger entries for %d phases", tag, len(phases), len(prog.Phases))
	}
	var dispatched int64
	for i, pt := range phases {
		dispatched += pt.Dispatched
		if pt.IdleUnits < 0 || pt.OverlapUnits < 0 || pt.RundownStart < -1 {
			t.Fatalf("%s: phase %d has negative ledger entries %+v", tag, i, pt)
		}
		if prog.Phases[i].Granules == 0 {
			continue
		}
		if pt.Start < 0 || pt.End > makespan || pt.End < pt.Start {
			t.Fatalf("%s: phase %d window [%d,%d] outside [0,%d]",
				tag, i, pt.Start, pt.End, makespan)
		}
	}
	if dispatched != dispatches {
		t.Fatalf("%s: ledger counts %d dispatches, scheduler %d", tag, dispatched, dispatches)
	}
}

// checkTimeline asserts the bucketed timeline agrees with the scalar
// accumulators.
func checkTimeline(t *testing.T, tag string, tl *metrics.Timeline, compute, mgmt int64) {
	t.Helper()
	if tl.BusyTotal() != compute {
		t.Errorf("%s: timeline busy %d != compute %d", tag, tl.BusyTotal(), compute)
	}
	if tl.MgmtTotal() != mgmt {
		t.Errorf("%s: timeline mgmt %d != mgmt %d", tag, tl.MgmtTotal(), mgmt)
	}
	var byProc int64
	for _, b := range tl.ByProc() {
		byProc += b
	}
	if byProc != compute {
		t.Errorf("%s: per-proc busy %d != compute %d", tag, byProc, compute)
	}
}

// TestConservationRandomPrograms drives random programs and option sets
// through the simulator and checks the accounting identities that must
// hold for any schedule:
//
//   - every granule's cost is computed exactly once
//     (ComputeUnits == program total cost);
//   - utilization never exceeds 1;
//   - the makespan is at least the critical path lower bound
//     (total work / workers) and at least the serial-action sum;
//   - the per-phase windows nest inside [0, makespan].
//
// Each iteration also runs two or three random jobs together under a
// random management model, checking the same identities per job plus
// the per-job rundown ledgers and the run's timeline totals.
func TestConservationRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(8711986))
	multiRng := rand.New(rand.NewSource(19860711))
	for iter := 0; iter < 60; iter++ {
		prog, serialSum := randomProgram(t, rng)
		procs := 2 + rng.Intn(12)
		model := MgmtModel(rng.Intn(2))
		res, err := Run(prog, randomOptions(rng), Config{Procs: procs, Mgmt: model})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}

		if want := int64(prog.TotalCost()); res.ComputeUnits != want {
			t.Fatalf("iter %d: compute %d != program cost %d", iter, res.ComputeUnits, want)
		}
		if res.Utilization > 1.0000001 {
			t.Fatalf("iter %d: utilization %v > 1", iter, res.Utilization)
		}
		if res.SerialUnits != int64(serialSum) {
			t.Fatalf("iter %d: serial %d != declared %d", iter, res.SerialUnits, serialSum)
		}
		lower := int64(prog.TotalCost())/int64(res.Workers) + int64(serialSum)
		if prog.TotalGranules() > 0 && res.Makespan < lower/2 {
			t.Fatalf("iter %d: makespan %d below plausible bound %d", iter, res.Makespan, lower)
		}
		checkPhaseWindows(t, fmt.Sprintf("iter %d", iter), prog, res.Phases,
			res.Makespan, res.Sched.Dispatches)

		// Multi-job inputs.
		n := 2 + multiRng.Intn(2)
		progs := make([]*core.Program, n)
		serials := make([]core.Cost, n)
		specs := make([]JobSpec, n)
		for i := range specs {
			progs[i], serials[i] = randomProgram(t, multiRng)
			specs[i] = JobSpec{Prog: progs[i], Opt: randomOptions(multiRng),
				Priority: multiRng.Intn(2), Weight: 1 + multiRng.Intn(3)}
		}
		mcfg := Config{Procs: 2 + multiRng.Intn(12), Mgmt: MgmtModel(multiRng.Intn(5))}
		mres, err := RunMulti(specs, mcfg)
		if err != nil {
			t.Fatalf("iter %d multi (%v): %v", iter, mcfg.Mgmt, err)
		}
		tag := fmt.Sprintf("iter %d multi (%v)", iter, mcfg.Mgmt)
		if mres.Utilization > 1.0000001 {
			t.Fatalf("%s: utilization %v > 1", tag, mres.Utilization)
		}
		var compute int64
		for i, jr := range mres.Jobs {
			jtag := fmt.Sprintf("%s job %d", tag, i)
			if jr.Err != nil {
				t.Fatalf("%s: %v", jtag, jr.Err)
			}
			if want := int64(progs[i].TotalCost()); jr.ComputeUnits != want {
				t.Fatalf("%s: compute %d != program cost %d", jtag, jr.ComputeUnits, want)
			}
			if jr.SerialUnits != int64(serials[i]) {
				t.Fatalf("%s: serial %d != declared %d", jtag, jr.SerialUnits, serials[i])
			}
			if jr.Makespan > mres.Makespan {
				t.Fatalf("%s: makespan %d beyond the run's %d", jtag, jr.Makespan, mres.Makespan)
			}
			checkPhaseWindows(t, jtag, progs[i], jr.Phases, jr.Makespan, jr.Sched.Dispatches)
			compute += jr.ComputeUnits
		}
		if mres.ComputeUnits != compute {
			t.Fatalf("%s: run compute %d != job sum %d", tag, mres.ComputeUnits, compute)
		}
		checkTimeline(t, tag, mres.Timeline, mres.ComputeUnits, mres.MgmtUnits)
	}
}

// TestTimelineAccountingMatchesResult cross-checks the bucketed timeline
// against the scalar accumulators, for a program run alone and for two
// jobs sharing the machine under every management model.
func TestTimelineAccountingMatchesResult(t *testing.T) {
	build := func() *core.Program {
		prog, err := core.NewProgram(
			&core.Phase{Name: "a", Granules: 200, Enable: enable.NewIdentity()},
			&core.Phase{Name: "b", Granules: 200},
		)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	opt := core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}
	res, err := Run(build(), opt, Config{Procs: 6, Mgmt: StealsWorker, BucketWidth: 7})
	if err != nil {
		t.Fatal(err)
	}
	checkTimeline(t, "single", res.Timeline, res.ComputeUnits, res.MgmtUnits)
	for _, model := range []MgmtModel{StealsWorker, Dedicated, Sharded, Adaptive, Async} {
		mres, err := RunMulti([]JobSpec{
			{Name: "a", Prog: build(), Opt: opt},
			{Name: "b", Prog: twoPhase(t, 96, enable.NewUniversal()), Opt: opt, Priority: 1},
		}, Config{Procs: 6, Mgmt: model, BucketWidth: 7})
		if err != nil {
			t.Fatal(err)
		}
		checkTimeline(t, model.String(), mres.Timeline, mres.ComputeUnits, mres.MgmtUnits)
		if mres.Timeline.End() != mres.Makespan {
			t.Errorf("%v: timeline ends at %d, makespan %d", model, mres.Timeline.End(), mres.Makespan)
		}
	}
}
