package main

import (
	"context"
	"fmt"
	"time"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/service"
)

// fineGranules is the reference chain's phase width (3 × 32768 tasks).
const fineGranules = 1 << 15

// workers is the worker count of every real backend: the benchmark is
// sized for a two-CPU host.
const workers = 2

var managers = []executive.ManagerKind{executive.SerialManager, executive.ShardedManager, executive.AsyncManager}

// runExecFine runs the reference fine chain through Runner.Run on real
// goroutines, once per manager per round, with the flight recorder and
// metrics off. Its operation is one chain run; a granule is one task.
func runExecFine(b *bench) error {
	var (
		f       *fineChain
		runners []*rundown.Runner
		builds  []float64
	)
	build := func(parent int32) error {
		sp := b.tr.start("core.NewProgram", parent, 0)
		t0 := time.Now()
		var err error
		if f, err = newFineChain(fineGranules, b.seed); err != nil {
			return err
		}
		builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e6)
		b.tr.finish(sp)
		if err := verifyFineChain(b.seed); err != nil {
			return err
		}
		runners = runners[:0]
		for _, m := range managers {
			r, err := rundown.New(rundown.WithWorkers(workers), rundown.WithManager(m))
			if err != nil {
				return err
			}
			runners = append(runners, r)
			// Warm-up: one checked run per manager before timing.
			fineRun(b, r, f, 0, 0)
		}
		return nil
	}
	if err := b.timeSetup(build, nil); err != nil {
		return err
	}
	b.setLayer("workload.build_ms", "ms", median(builds))

	e2e := b.seconds
	if b.traced {
		e2e = b.seconds / 3
	}
	walls := make([]opSamples, len(managers))
	var utils opSamples
	var plain, traced []float64
	deadline := time.Now().Add(e2e)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for i := range managers {
			m := (round + i) % len(managers)
			// A traced run alternates spans on and off, so the difference
			// of the two medians is what tracing costs.
			var parent int32
			var op int64
			tr := b.traced && round%2 == 1
			if tr {
				op = b.tr.op()
				parent = b.tr.start("bench.op", 0, op)
			}
			st0 := stealTicks()
			dur, util, ok := fineRun(b, runners[m], f, parent, op)
			steal := stealTicks() - st0
			b.tr.finish(parent)
			if !ok {
				continue
			}
			ms := dur.Seconds() * 1e3
			if tr {
				traced = append(traced, ms)
			} else {
				plain = append(plain, ms)
			}
			walls[m].add(ms, steal)
			utils.add(util, steal)
		}
	}
	// One chain per manager at each manager's median speed; the
	// operation's median is the middle manager's, since the pooled runs
	// form one cluster per manager and a pooled median jumps between
	// them.
	var sum float64
	meds := make([]float64, len(managers))
	for i, m := range managers {
		meds[i] = walls[i].median()
		sum += meds[i]
		b.setDetail("fine_tasks_per_s."+m.String(), "tasks/s", 3*fineGranules/(meds[i]/1e3))
	}
	b.setE2E("granules_per_s", "granules/s", float64(3*fineGranules*len(managers))/(sum/1e3))
	b.setE2E("op_p50_ms", "ms", median(meds))
	b.setE2E("utilization", "ratio", utils.median())
	b.setDetail("chain_runs_without_steal", "ratio", utils.cleanShare())
	if !b.traced {
		return nil
	}
	b.setLayer("bench.trace_overhead_ms", "ms", median(traced)-median(plain))
	f2, err := newFineChain(fineGranules, b.seed+1)
	if err != nil {
		return err
	}
	return runLadder(b, fineSubject(b.seed, f, f2), b.seconds-e2e)
}

// fineRun runs the chain once through r and checks its output; a failed
// run or a wrong output is counted and reported by ok = false.
func fineRun(b *bench, r *rundown.Runner, f *fineChain, parent int32, op int64) (dur time.Duration, util float64, ok bool) {
	f.reset()
	sp := b.tr.start("runner.Run", parent, op)
	t0 := time.Now()
	rep, err := r.Run(context.Background(), rundown.Job{Prog: f.prog, Opt: fineOptions()})
	dur = time.Since(t0)
	b.tr.finish(sp)
	if err == nil {
		err = f.check()
	}
	if err == nil && rep.Tasks != 3*fineGranules {
		err = fmt.Errorf("ran %d tasks, want %d", rep.Tasks, 3*fineGranules)
	}
	b.check(err == nil, "exec-fine: %v", err)
	b.noteHeap()
	if err != nil {
		return dur, 0, false
	}
	return dur, rep.Utilization, true
}

// fineSpecWidth is the width of the daemon specs of the fine chain's
// shape: a quarter of the benchmark's, since the daemon keeps every
// job's trace events for its lifetime.
const fineSpecWidth = fineGranules / 4

// fineSubject prices two fine chains of different seeds at every layer;
// the daemon runs identity chains of the same shape.
func fineSubject(seed uint64, f, f2 *fineChain) *subject {
	s := &subject{
		progs: []*core.Program{f.prog, f2.prog}, opt: fineOptions(),
		reset: func() { f.reset(); f2.reset() },
		check: func() error {
			if err := f.check(); err != nil {
				return err
			}
			return f2.check()
		},
	}
	for i := uint64(0); i < 2; i++ {
		s.specs = append(s.specs, service.JobSpec{Grain: 1, Class: service.ClassBatch, Workload: service.WorkloadSpec{
			Mapping: "identity", Phases: 3, Granules: fineSpecWidth, Seed: seed + i}})
	}
	return s
}
