package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The chaos sweep: seeded fault campaigns against every management model
// in virtual time. The contract under test is the tentpole's isolation
// trichotomy — every injected fault ends in exactly one of {successful
// retry, isolated per-job error, deadline abort}, never a hung run or
// cross-job corruption — plus bit-identical determinism per seed and
// trace-replay conservation on every surviving job.

var chaosModels = []MgmtModel{StealsWorker, Dedicated, Sharded, Adaptive, Async}

// chaosProcs keeps the worker count at 8 under every model (StealsWorker
// spends one processor on the executive).
func chaosProcs(m MgmtModel) int {
	if m == StealsWorker {
		return 9
	}
	return 8
}

func chaosJobs(t *testing.T) []JobSpec {
	t.Helper()
	a, err := workload.Chain(enable.Identity, 4, 64, workload.FixedCost(200), 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Chain(enable.Identity, 3, 96, workload.FixedCost(150), 13)
	if err != nil {
		t.Fatal(err)
	}
	opt := func() core.Options {
		return core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}
	}
	return []JobSpec{
		{Name: "alpha", Prog: a, Opt: opt(), Weight: 2, Retry: 3, Backoff: 64},
		{Name: "beta", Prog: b, Opt: opt(), Weight: 1, Priority: 1, Retry: 3, Backoff: 64},
	}
}

// checkOutcome asserts the trichotomy for one job result.
func checkOutcome(t *testing.T, tag string, jr JobResult) {
	t.Helper()
	switch {
	case jr.Err == nil:
		// Completed — cleanly or after a successful retry.
	case errors.Is(jr.Err, context.DeadlineExceeded):
		// Deadline abort.
	case strings.Contains(jr.Err.Error(), "injected"):
		// Isolated per-job failure that exhausted its retries.
	default:
		t.Errorf("%s: job %q died of something other than the trichotomy: %v", tag, jr.Name, jr.Err)
	}
}

// deferredSweepJobs is the sweep's fault-free extra input: two
// overlapped identity jobs whose successor splitting is deferred to idle
// executive time, so the Adaptive model's batched refills interleave
// with deferred-management absorption across machine sizes and batches.
func deferredSweepJobs(t *testing.T, n int) []JobSpec {
	t.Helper()
	opt := func(grain int) core.Options {
		return core.Options{Grain: grain, Overlap: true, Costs: core.DefaultCosts(),
			IdentityVia: core.IdentityConflictQueue, SuccSplit: core.SuccSplitDeferred}
	}
	return []JobSpec{
		{Name: "a", Prog: twoPhase(t, n, enable.NewIdentity()), Opt: opt(2)},
		{Name: "b", Prog: twoPhase(t, n/2, enable.NewIdentity()), Opt: opt(4), Priority: 1},
	}
}

// sweepOnce runs jobs twice under cfg and checks the sweep contract: the
// run never errors out as a whole (a fault escaping its job would surface
// here as a run error or a stall), each job lands in the trichotomy, a
// surviving job really ran, and the two runs are bit-identical.
func sweepOnce(t *testing.T, tag string, jobs func() []JobSpec, cfg Config) *MultiResult {
	t.Helper()
	r1, err := RunMulti(jobs(), cfg)
	if err != nil {
		t.Fatalf("%s: run failed as a whole (isolation breached): %v", tag, err)
	}
	r2, err := RunMulti(jobs(), cfg)
	if err != nil {
		t.Fatalf("%s: second run failed: %v", tag, err)
	}
	if !reflect.DeepEqual(r1.Jobs, r2.Jobs) || r1.Makespan != r2.Makespan ||
		r1.Faults != r2.Faults || r1.Retries != r2.Retries {
		t.Fatalf("%s: identical inputs produced different outcomes:\n%+v\nvs\n%+v", tag, r1, r2)
	}
	for _, jr := range r1.Jobs {
		checkOutcome(t, tag, jr)
		// A surviving job really ran to completion (replay conservation
		// pins exactness separately).
		if jr.Err == nil && (jr.Makespan <= 0 || jr.ComputeUnits <= 0) {
			t.Errorf("%s: surviving job %q has empty accounting: %+v", tag, jr.Name, jr)
		}
	}
	return r1
}

// TestChaosSweepDeterministicAndIsolated runs seeded scenarios against
// every model, twice per seed, under the sweepOnce contract. The
// adaptive-deferred rows add fault-free inputs: the Adaptive model with
// deferred successor splitting over a grid of machine sizes, batch sizes
// and job widths, where every job must also finish with its compute
// conserved.
func TestChaosSweepDeterministicAndIsolated(t *testing.T) {
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				spec := fault.Scenario(seed, 4, 2, 4, 64, 8)
				cfg := Config{Procs: chaosProcs(model), Mgmt: model, Faults: &spec}
				sweepOnce(t, fmt.Sprintf("%v seed %d", model, seed),
					func() []JobSpec { return chaosJobs(t) }, cfg)
			}
		})
	}
	t.Run("adaptive-deferred", func(t *testing.T) {
		for _, procs := range []int{4, 8, 16, 32, 64} {
			for _, batch := range []int{2, 4, 8, 16} {
				for _, n := range []int{64, 128, 256, 512} {
					tag := fmt.Sprintf("p%d_b%d_n%d", procs, batch, n)
					res := sweepOnce(t, tag, func() []JobSpec { return deferredSweepJobs(t, n) },
						Config{Procs: procs, Mgmt: Adaptive, Batch: batch})
					for i, jr := range res.Jobs {
						want := int64(deferredSweepJobs(t, n)[i].Prog.TotalCost())
						if jr.Err != nil || jr.ComputeUnits != want {
							t.Errorf("%s: job %q err=%v compute=%d, want %d", tag, jr.Name, jr.Err, jr.ComputeUnits, want)
						}
					}
				}
			}
		}
	})
}

// TestChaosReplayConservation records a traced chaos run and replays
// every surviving job's filtered trace against a fresh scheduler: the
// schedule must be conserved — every dispatch enabled, every phase
// exactly complete — no matter what was injected around it.
func TestChaosReplayConservation(t *testing.T) {
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				spec := fault.Scenario(seed, 4, 2, 4, 64, 8)
				rec := trace.NewRecorder(trace.Meta{}, chaosProcs(model))
				jobs := chaosJobs(t)
				res, err := RunMulti(jobs, Config{
					Procs: chaosProcs(model), Mgmt: model, Faults: &spec, Trace: rec,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				tr := rec.Take()
				for i, jr := range res.Jobs {
					if jr.Err != nil {
						continue // aborted jobs have no complete schedule to conserve
					}
					sub := tr.FilterJob(i)
					rep, rerr := Replay(jobs[i].Prog, jobs[i].Opt, sub)
					if rerr != nil {
						t.Errorf("seed %d job %q: replay diverged: %v", seed, jr.Name, rerr)
						continue
					}
					if want := int64(jobs[i].Prog.TotalGranules()); rep.Granules != want {
						t.Errorf("seed %d job %q: replay conserved %d granules, want %d",
							seed, jr.Name, rep.Granules, want)
					}
				}
			}
		})
	}
}

// TestChaosDeadlineAbortIsIsolated pins the deadline contract: a job
// whose budget cannot fit its work aborts AT its deadline (not later),
// with an error wrapping context.DeadlineExceeded, while its co-tenant
// finishes within 10% of the makespan it gets in a fault-free run.
func TestChaosDeadlineAbortIsIsolated(t *testing.T) {
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			baseline, err := RunMulti(chaosJobs(t), Config{Procs: chaosProcs(model), Mgmt: model})
			if err != nil {
				t.Fatal(err)
			}
			jobs := chaosJobs(t)
			jobs[0].Deadline = baseline.Jobs[0].Makespan / 4
			res, err := RunMulti(jobs, Config{Procs: chaosProcs(model), Mgmt: model})
			if err != nil {
				t.Fatalf("deadline abort killed the whole run: %v", err)
			}
			j0, j1 := res.Jobs[0], res.Jobs[1]
			if !errors.Is(j0.Err, context.DeadlineExceeded) {
				t.Fatalf("deadlined job err = %v, want context.DeadlineExceeded", j0.Err)
			}
			if j0.Makespan > jobs[0].Deadline {
				t.Errorf("deadlined job retired at %d, past its budget %d", j0.Makespan, jobs[0].Deadline)
			}
			if j1.Err != nil {
				t.Fatalf("co-tenant died with the deadlined job: %v", j1.Err)
			}
			// The co-tenant inherits freed capacity; it must never be more
			// than 10% WORSE than its fault-free makespan.
			limit := baseline.Jobs[1].Makespan + baseline.Jobs[1].Makespan/10
			if j1.Makespan > limit {
				t.Errorf("co-tenant makespan %d exceeds 110%% of fault-free %d",
					j1.Makespan, baseline.Jobs[1].Makespan)
			}
		})
	}
}

// TestChaosGenerousDeadlineNeverFires pins the deadline check's
// empty-queue guard: a drained event queue is a normal, recoverable
// state — Async routinely parks completions behind a busy server with
// every worker idle, and the run loop's recovery branches regenerate
// events from it — so a job whose deadline comfortably exceeds its real
// makespan must never be spuriously aborted, fault-free and under seeded
// campaigns alike.
func TestChaosGenerousDeadlineNeverFires(t *testing.T) {
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			baseline, err := RunMulti(chaosJobs(t), Config{Procs: chaosProcs(model), Mgmt: model})
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed <= 8; seed++ {
				jobs := chaosJobs(t)
				for i := range jobs {
					jobs[i].Deadline = baseline.Makespan * 64
				}
				cfg := Config{Procs: chaosProcs(model), Mgmt: model}
				if seed > 0 {
					spec := fault.Scenario(seed, 4, 2, 4, 64, 8)
					cfg.Faults = &spec
				}
				res, err := RunMulti(jobs, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, jr := range res.Jobs {
					if errors.Is(jr.Err, context.DeadlineExceeded) {
						t.Errorf("seed %d: job %q spuriously aborted against a 64x-makespan deadline: %v",
							seed, jr.Name, jr.Err)
					}
				}
			}
		})
	}
}

// TestChaosRetrySucceeds pins the retry path: a one-shot injected grain
// error fails the first attempt, the retry runs clean, and the job
// completes with Attempts == 2 under every model.
func TestChaosRetrySucceeds(t *testing.T) {
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			spec := fault.Spec{Rules: []fault.Rule{
				{Kind: fault.GrainError, Job: 0, Phase: 1, Granule: 7},
			}}
			jobs := chaosJobs(t)
			res, err := RunMulti(jobs, Config{Procs: chaosProcs(model), Mgmt: model, Faults: &spec})
			if err != nil {
				t.Fatal(err)
			}
			j0 := res.Jobs[0]
			if j0.Err != nil {
				t.Fatalf("retry did not rescue the job: %v", j0.Err)
			}
			if j0.Attempts != 2 {
				t.Errorf("attempts = %d, want 2", j0.Attempts)
			}
			if res.Retries != 1 {
				t.Errorf("retries = %d, want 1", res.Retries)
			}
			if res.Faults < 1 {
				t.Errorf("faults = %d, want >= 1", res.Faults)
			}
			if res.Jobs[1].Err != nil {
				t.Errorf("co-tenant caught the failure: %v", res.Jobs[1].Err)
			}
		})
	}
}

// TestChaosRetryExhaustionIsolates pins the other arm: a grain error
// with more firings than the retry budget retires the job with the
// injected error while the co-tenant completes.
func TestChaosRetryExhaustionIsolates(t *testing.T) {
	spec := fault.Spec{Rules: []fault.Rule{
		{Kind: fault.GrainError, Job: 0, Phase: 0, Granule: 3, Count: 10},
	}}
	jobs := chaosJobs(t)
	jobs[0].Retry = 2
	res, err := RunMulti(jobs, Config{Procs: 8, Mgmt: Sharded, Faults: &spec})
	if err != nil {
		t.Fatal(err)
	}
	j0 := res.Jobs[0]
	if j0.Err == nil || !strings.Contains(j0.Err.Error(), "injected") {
		t.Fatalf("job 0 err = %v, want the injected error", j0.Err)
	}
	if j0.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + Retry 2)", j0.Attempts)
	}
	if res.Jobs[1].Err != nil {
		t.Errorf("co-tenant caught the failure: %v", res.Jobs[1].Err)
	}
}

// TestChaosWorkerCrashDegradesGracefully pins crash semantics: losing a
// worker mid-run completes both jobs (no task is lost with a crash) —
// capacity loss, not failure.
func TestChaosWorkerCrashDegradesGracefully(t *testing.T) {
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			spec := fault.Spec{Rules: []fault.Rule{
				{Kind: fault.WorkerCrash, Worker: 2, Job: -1, Phase: -1, After: 500},
			}}
			res, err := RunMulti(chaosJobs(t), Config{Procs: chaosProcs(model), Mgmt: model, Faults: &spec})
			if err != nil {
				t.Fatal(err)
			}
			for _, jr := range res.Jobs {
				if jr.Err != nil {
					t.Errorf("job %q failed after a graceful crash: %v", jr.Name, jr.Err)
				}
			}
		})
	}
}

// TestChaosPreemptBoundCapsBackfill pins the bounded-degradation
// contract: with PreemptBound set, no backfill dispatch exceeds the
// bound, and the measured MaxBackfillTask reports it.
func TestChaosPreemptBoundCapsBackfill(t *testing.T) {
	jobs := chaosJobs(t)
	// Large explicit grain so backfill would exceed the bound without it.
	jobs[0].Opt.Grain = 32
	jobs[1].Opt.Grain = 32
	res, err := RunMulti(jobs, Config{Procs: 8, Mgmt: Sharded, PreemptBound: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.BackfillUnits == 0 {
		t.Skip("fixture produced no backfill; bound unexercised")
	}
	if res.MaxBackfillTask > 2 {
		t.Errorf("backfill task of %d granules exceeds PreemptBound 2", res.MaxBackfillTask)
	}
	if res.MaxBackfillTask <= 0 {
		t.Errorf("MaxBackfillTask unmeasured with backfill present")
	}
}

// TestChaosFaultsOffIsBitIdentical proves the injection hooks are inert
// without a campaign: a run with Faults == nil must be bit-identical to
// one with an empty Spec (which compiles to a nil Plan).
func TestChaosFaultsOffIsBitIdentical(t *testing.T) {
	empty := fault.Spec{}
	a, err := RunMulti(chaosJobs(t), Config{Procs: 8, Mgmt: Sharded})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMulti(chaosJobs(t), Config{Procs: 8, Mgmt: Sharded, Faults: &empty})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("an empty fault spec perturbed the schedule")
	}
}

// TestChaosSingleProgramFaults covers injection into a program run
// alone through Run: slow and stuck grains complete with inflated
// virtual time, panics and errors fail the run, a crash loses capacity
// but finishes, and a dropped wakeup is recovered.
func TestChaosSingleProgramFaults(t *testing.T) {
	build := func() (*core.Program, core.Options) {
		prog, err := workload.Chain(enable.Identity, 3, 64, workload.FixedCost(100), 5)
		if err != nil {
			t.Fatal(err)
		}
		return prog, core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}
	}
	for _, model := range chaosModels {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			prog, opt := build()
			clean, err := Run(prog, opt, Config{Procs: chaosProcs(model), Mgmt: model})
			if err != nil {
				t.Fatal(err)
			}

			// Slow grain: completes, strictly more virtual compute.
			prog, opt = build()
			slow := fault.Spec{Rules: []fault.Rule{{Kind: fault.GrainSlow, Job: 0, Phase: 1, Granule: 5, Factor: 4}}}
			res, err := Run(prog, opt, Config{Procs: chaosProcs(model), Mgmt: model, Faults: &slow})
			if err != nil {
				t.Fatalf("slow grain failed the run: %v", err)
			}
			if res.ComputeUnits <= clean.ComputeUnits {
				t.Errorf("slow grain did not inflate compute: %d vs %d", res.ComputeUnits, clean.ComputeUnits)
			}

			// Stuck grain: completes, compute unchanged, makespan no smaller.
			prog, opt = build()
			stall := fault.Spec{Rules: []fault.Rule{{Kind: fault.GrainStall, Job: 0, Phase: 0, Granule: 9, Delay: 4000}}}
			res, err = Run(prog, opt, Config{Procs: chaosProcs(model), Mgmt: model, Faults: &stall})
			if err != nil {
				t.Fatalf("stuck grain failed the run: %v", err)
			}
			if res.ComputeUnits != clean.ComputeUnits {
				t.Errorf("stuck grain changed compute: %d vs %d", res.ComputeUnits, clean.ComputeUnits)
			}
			if res.Makespan < clean.Makespan {
				t.Errorf("stall shrank the makespan: %d vs %d", res.Makespan, clean.Makespan)
			}

			// Grain error: the run fails with the injected error.
			prog, opt = build()
			boom := fault.Spec{Rules: []fault.Rule{{Kind: fault.GrainError, Job: 0, Phase: 0, Granule: 0}}}
			if _, err = Run(prog, opt, Config{Procs: chaosProcs(model), Mgmt: model, Faults: &boom}); err == nil ||
				!strings.Contains(err.Error(), "injected") {
				t.Errorf("grain error outcome: %v", err)
			}

			// Crash + dropped wakeup + management delay: completes.
			prog, opt = build()
			mixed := fault.Spec{Rules: []fault.Rule{
				{Kind: fault.WorkerCrash, Worker: 1, After: 200},
				{Kind: fault.DropWakeup, Count: 2},
				{Kind: fault.MgmtDelay, Job: -1, Delay: 300},
			}}
			res, err = Run(prog, opt, Config{Procs: chaosProcs(model), Mgmt: model, Faults: &mixed})
			if err != nil {
				t.Fatalf("mixed campaign failed the run: %v", err)
			}
			if res.ComputeUnits != clean.ComputeUnits {
				t.Errorf("mixed campaign changed compute: %d vs %d", res.ComputeUnits, clean.ComputeUnits)
			}
		})
	}
}
