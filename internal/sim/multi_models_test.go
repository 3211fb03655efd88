package sim

// Conservation, determinism, and tenancy-behaviour tests for the two
// batched management models with several jobs: the Async per-job
// ready buffers and the Adaptive job-tagged shards. The invariants these
// pin are exactly what the buffering could break: every granule of every
// job executed exactly once (nothing stranded in a buffer, nothing leaked
// across jobs), bit-identical reruns, and backfill still flowing during
// rundown.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/workload"
)

func multiModelJobs(t *testing.T) []JobSpec {
	t.Helper()
	return []JobSpec{
		{Name: "a", Prog: twoPhase(t, 512, enable.NewIdentity()),
			Opt: core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()}},
		{Name: "b", Prog: twoPhase(t, 384, enable.NewUniversal()),
			Opt: core.Options{Grain: 2, Overlap: true, Costs: core.DefaultCosts()}, Priority: 1},
		{Name: "c", Prog: twoPhase(t, 256, nil),
			Opt: core.Options{Grain: 8, Costs: core.DefaultCosts()}, Weight: 2},
	}
}

// TestMultiBatchedModelsConservation: under both batched models, each
// job's compute is conserved exactly (granules in == granules out, per
// job — a cross-job leak or a task stranded in a ready buffer or shard
// would break the per-job equality), every dispatch is completed by the
// same scheduler that issued it, and utilization stays within capacity.
func TestMultiBatchedModelsConservation(t *testing.T) {
	for _, model := range []MgmtModel{Async, Adaptive} {
		jobs := multiModelJobs(t)
		want := make([]int64, len(jobs))
		for i := range jobs {
			want[i] = int64(jobs[i].Prog.TotalCost())
		}
		res, err := RunMulti(jobs, Config{Procs: 8, Mgmt: model, Batch: 4})
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		var sum int64
		for i, j := range res.Jobs {
			if j.ComputeUnits != want[i] {
				t.Errorf("%v: job %s compute %d != program cost %d",
					model, j.Name, j.ComputeUnits, want[i])
			}
			if j.Sched.Dispatches != j.Sched.Completions {
				t.Errorf("%v: job %s dispatched %d tasks but completed %d",
					model, j.Name, j.Sched.Dispatches, j.Sched.Completions)
			}
			if j.Makespan <= 0 || j.Makespan > res.Makespan {
				t.Errorf("%v: job %s makespan %d outside run makespan %d",
					model, j.Name, j.Makespan, res.Makespan)
			}
			sum += j.ComputeUnits
		}
		if res.ComputeUnits != sum {
			t.Errorf("%v: aggregate compute %d != per-job sum %d", model, res.ComputeUnits, sum)
		}
		if res.Utilization > 1.0 {
			t.Errorf("%v: utilization %v exceeds capacity", model, res.Utilization)
		}
	}
}

// TestMultiBatchedModelsDeterministic: identical inputs give identical
// results under both batched models — the buffers and batch flushes are
// as replayable as the plain event order.
func TestMultiBatchedModelsDeterministic(t *testing.T) {
	for _, model := range []MgmtModel{Async, Adaptive} {
		cfg := Config{Procs: 16, Mgmt: model, Batch: 8}
		r1, err := RunMulti(multiModelJobs(t), cfg)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		r2, err := RunMulti(multiModelJobs(t), cfg)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if r1.Makespan != r2.Makespan || r1.MgmtUnits != r2.MgmtUnits ||
			r1.IdleUnits != r2.IdleUnits || r1.BackfillUnits != r2.BackfillUnits {
			t.Errorf("%v: nondeterministic: %+v vs %+v", model, r1, r2)
		}
		for i := range r1.Jobs {
			if r1.Jobs[i].Makespan != r2.Jobs[i].Makespan ||
				r1.Jobs[i].BackfillUnits != r2.Jobs[i].BackfillUnits {
				t.Errorf("%v: job %d diverges: %+v vs %+v",
					model, i, r1.Jobs[i], r2.Jobs[i])
			}
		}
	}
}

// TestMultiBatchedModelsBackfill: a narrow job co-scheduled with a wide
// one must still donate its idle home capacity under the batched models —
// the backfill gate (home buffer or shard refill found dry) opens the
// candidate walk exactly like the plain models' failed home probe.
func TestMultiBatchedModelsBackfill(t *testing.T) {
	for _, model := range []MgmtModel{Async, Adaptive} {
		narrow, err := workload.Chain(enable.Identity, 8, 32, workload.FixedCost(400), 7)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := workload.Chain(enable.Identity, 2, 4096, workload.FixedCost(100), 9)
		if err != nil {
			t.Fatal(err)
		}
		opt := func() core.Options {
			return core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}
		}
		res, err := RunMulti([]JobSpec{
			{Name: "narrow", Prog: narrow, Opt: opt()},
			{Name: "wide", Prog: wide, Opt: opt()},
		}, Config{Procs: 32, Mgmt: model, Batch: 4})
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if res.Jobs[1].BackfillUnits == 0 {
			t.Errorf("%v: wide job received no backfill: %+v", model, res.Jobs)
		}
		if res.BackfillUnits != res.Jobs[0].BackfillUnits+res.Jobs[1].BackfillUnits {
			t.Errorf("%v: aggregate backfill %d inconsistent", model, res.BackfillUnits)
		}
	}
}

// TestMultiAdaptivePoolController: Options.AdaptiveBatch on any job
// enables ONE pool-wide controller; the run reports the settled batch and
// stays deterministic with the controller in the loop.
func TestMultiAdaptivePoolController(t *testing.T) {
	build := func() []JobSpec {
		jobs := multiModelJobs(t)
		for i := range jobs {
			jobs[i].Opt.AdaptiveBatch = true
		}
		return jobs
	}
	cfg := Config{Procs: 8, Mgmt: Adaptive, Batch: 32}
	r1, err := RunMulti(build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Batch <= 0 {
		t.Errorf("controller-run multi reported Batch = %d", r1.Batch)
	}
	r2, err := RunMulti(build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.Batch != r2.Batch || r1.BatchChanges != r2.BatchChanges {
		t.Errorf("controller run nondeterministic: %+v vs %+v", r1, r2)
	}
}

// TestMultiAsyncReadyCapKnobs: an explicit ReadyCap/LowWater pair is
// honoured per job and conservation still holds at a tiny buffer, where
// the top-up / drain interleaving is tightest.
func TestMultiAsyncReadyCapKnobs(t *testing.T) {
	jobs := multiModelJobs(t)
	want := make([]int64, len(jobs))
	for i := range jobs {
		want[i] = int64(jobs[i].Prog.TotalCost())
	}
	res, err := RunMulti(jobs, Config{Procs: 8, Mgmt: Async, ReadyCap: 2, LowWater: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range res.Jobs {
		if j.ComputeUnits != want[i] {
			t.Errorf("job %s compute %d != %d at ReadyCap=2", j.Name, j.ComputeUnits, want[i])
		}
	}
}
