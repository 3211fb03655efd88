package main

import (
	"context"
	"fmt"
	"time"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The sim-lab workload: virtual-time runs of seeded chain programs over
// every mapping kind and every management model, half through the
// single-program Runner.Run path and half through the multi-program
// Runner.RunAll path. Its operation is one Run or RunAll call; its
// granules are simulated ones.
var (
	simKinds = []enable.Kind{
		enable.Identity, enable.Universal, enable.Null,
		enable.ForwardIndirect, enable.ReverseIndirect, enable.Seam,
	}
	simModels = []sim.MgmtModel{sim.StealsWorker, sim.Dedicated, sim.Sharded, sim.Adaptive, sim.Async}
)

const (
	simProcs      = 32
	simPhases     = 4
	simGranules   = 4096 // per phase, single-program runs
	simJobs       = 8    // co-tenant jobs per multi-program run
	simJobPhases  = 3
	simJobGranule = 2048 // base phase width of a co-tenant job
)

func simOptions() core.Options {
	return core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}
}

// simRun is one virtual run and the outcome the first round recorded for
// it; every later round must reproduce that outcome exactly.
type simRun struct {
	name    string
	runner  *rundown.Runner
	jobs    []rundown.Job
	compute []int64 // expected compute units per job (program cost sums)
	want    []int64 // first round's makespan, mgmt units, dispatches
}

type simLab struct {
	single, multi []*simRun
	granules      [2]int64 // per round: single, multi
}

func newSimLab(seed uint64) (*simLab, error) {
	lab := &simLab{}
	runners := make([]*rundown.Runner, len(simModels))
	for i, m := range simModels {
		r, err := rundown.New(rundown.WithVirtualTime(sim.Config{Procs: simProcs, Mgmt: m}))
		if err != nil {
			return nil, err
		}
		runners[i] = r
	}
	build := func(kind enable.Kind, phases, granules int, s uint64) (rundown.Job, int64, error) {
		prog, err := workload.Chain(kind, phases, granules, workload.UniformCost(1, 16, s), s)
		if err != nil {
			return rundown.Job{}, 0, err
		}
		return rundown.Job{Prog: prog, Opt: simOptions()}, int64(prog.TotalCost()), nil
	}
	n := uint64(0)
	for mi, m := range simModels {
		for _, k := range simKinds {
			n++
			job, cost, err := build(k, simPhases, simGranules, simSeed(seed, n))
			if err != nil {
				return nil, err
			}
			lab.single = append(lab.single, &simRun{
				name: fmt.Sprintf("%v/%v", m, k), runner: runners[mi],
				jobs: []rundown.Job{job}, compute: []int64{cost},
			})
			lab.granules[0] += int64(job.Prog.TotalGranules())
		}
		run := &simRun{name: fmt.Sprintf("%v/multi", m), runner: runners[mi]}
		for j := 0; j < simJobs; j++ {
			n++
			job, cost, err := build(simKinds[j%len(simKinds)], simJobPhases, simJobGranule+512*j, simSeed(seed, n))
			if err != nil {
				return nil, err
			}
			job.Name = fmt.Sprintf("job%d", j)
			job.Priority, job.Weight = j%2, 1+j%3
			run.jobs = append(run.jobs, job)
			run.compute = append(run.compute, cost)
			lab.granules[1] += int64(job.Prog.TotalGranules())
		}
		lab.multi = append(lab.multi, run)
	}
	return lab, nil
}

// once runs r and checks compute conservation and determinism. It
// returns the dispatch count, the call's wall time and the utilization
// the simulator reports.
func (r *simRun) once(b *bench, multi bool, parent int32, op int64) (int64, time.Duration, float64) {
	var rep *rundown.Report
	var err error
	t0 := time.Now()
	if multi {
		sp := b.tr.start("runner.RunAll", parent, op)
		rep, err = r.runner.RunAll(context.Background(), r.jobs)
		b.tr.finish(sp)
	} else {
		sp := b.tr.start("runner.Run", parent, op)
		rep, err = r.runner.Run(context.Background(), r.jobs[0])
		b.tr.finish(sp)
	}
	wall := time.Since(t0)
	if err != nil {
		b.check(false, "sim-lab %s: %v", r.name, err)
		return 0, wall, 0
	}
	var got []int64
	if multi {
		for i, j := range rep.SimMulti.Jobs {
			if j.ComputeUnits != r.compute[i] {
				err = fmt.Errorf("job %d computed %d units, program costs %d", i, j.ComputeUnits, r.compute[i])
			}
		}
		got = []int64{rep.SimMulti.Makespan, rep.SimMulti.MgmtUnits, rep.Tasks}
	} else {
		if rep.Sim.ComputeUnits != r.compute[0] {
			err = fmt.Errorf("computed %d units, program costs %d", rep.Sim.ComputeUnits, r.compute[0])
		}
		got = []int64{rep.Sim.Makespan, rep.Sim.MgmtUnits, rep.Tasks}
	}
	if err == nil && r.want != nil {
		for i := range got {
			if got[i] != r.want[i] {
				err = fmt.Errorf("repeat run differs: makespan/mgmt/tasks %v, first run %v", got, r.want)
			}
		}
	}
	if r.want == nil {
		r.want = got
	}
	b.check(err == nil, "sim-lab %s: %v", r.name, err)
	return rep.Tasks, wall, rep.Utilization
}

// simRound is one timed pass over every run of one path.
type simRound struct {
	wall       time.Duration
	dispatches int64
	calls      []float64 // wall time of each call, ms
	utils      []float64 // utilization of each call
}

func (lab *simLab) round(b *bench, multi bool, traced bool) simRound {
	runs := lab.single
	if multi {
		runs = lab.multi
	}
	var parent int32
	var op int64
	if traced {
		op = b.tr.op()
		parent = b.tr.start("bench.op", 0, op)
	}
	var r simRound
	t0 := time.Now()
	for _, run := range runs {
		n, wall, util := run.once(b, multi, parent, op)
		r.dispatches += n
		r.calls = append(r.calls, wall.Seconds()*1e3)
		r.utils = append(r.utils, util)
	}
	r.wall = time.Since(t0)
	b.tr.finish(parent)
	b.noteHeap()
	return r
}

// subject is the traced ladder's input: one single-program chain per
// mapping kind, with the same chains, a quarter as wide, as daemon specs.
func (lab *simLab) subject(seed uint64) *subject {
	s := &subject{opt: simOptions()}
	for i, k := range simKinds {
		s.progs = append(s.progs, lab.single[i].jobs[0].Prog)
		s.specs = append(s.specs, service.JobSpec{Grain: 1, Class: service.ClassBatch, Workload: service.WorkloadSpec{
			Mapping: k.String(), Phases: simPhases, Granules: simGranules / 4,
			CostLo: 1, CostHi: 16, Seed: simSeed(seed, uint64(i+1))}})
	}
	return s
}

// simSeed is the seed of the lab's n-th program.
func simSeed(seed, n uint64) uint64 { return seed*1000 + n }

func runSimLab(b *bench) error {
	var lab *simLab
	var builds []float64
	build := func(parent int32) error {
		sp := b.tr.start("workload.Chain", parent, 0)
		t0 := time.Now()
		var err error
		if lab, err = newSimLab(b.seed); err != nil {
			return err
		}
		builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e6)
		b.tr.finish(sp)
		// Warm-up: one checked pass over each path, which also records
		// the outcomes later rounds must repeat.
		lab.round(b, false, false)
		lab.round(b, true, false)
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
	var walls [2]opSamples
	var dispatches [2]int64
	var calls opSamples
	var utils, plain, traced []float64
	deadline := time.Now().Add(e2e)
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		path := i % 2
		// Traced runs alternate spans on and off by pairs of rounds.
		tr := b.traced && (i/2)%2 == 1
		st0 := stealTicks()
		r := lab.round(b, path == 1, tr)
		steal := stealTicks() - st0
		if tr {
			traced = append(traced, r.wall.Seconds()*1e3)
			continue
		}
		if b.traced {
			plain = append(plain, r.wall.Seconds()*1e3)
		}
		walls[path].add(r.wall.Seconds(), steal)
		dispatches[path] = r.dispatches
		for _, c := range r.calls {
			calls.add(c, steal)
		}
		utils = append(utils, r.utils...)
	}
	single, multi := walls[0].median(), walls[1].median()
	b.setE2E("granules_per_s", "granules/s", float64(lab.granules[0]+lab.granules[1])/(single+multi))
	b.setE2E("op_p50_ms", "ms", calls.median())
	b.setE2E("utilization", "ratio", median(utils))
	b.setDetail("sim_single_granules_per_s", "granules/s", float64(lab.granules[0])/single)
	b.setDetail("sim_multi_granules_per_s", "granules/s", float64(lab.granules[1])/multi)
	b.setDetail("sim_single_dispatches_per_s", "dispatches/s", float64(dispatches[0])/single)
	b.setDetail("sim_multi_dispatches_per_s", "dispatches/s", float64(dispatches[1])/multi)
	b.setDetail("rounds_without_steal", "ratio", (walls[0].cleanShare()+walls[1].cleanShare())/2)
	if !b.traced {
		return nil
	}
	b.setLayer("bench.trace_overhead_ms", "ms", median(traced)-median(plain))
	return runLadder(b, lab.subject(b.seed), b.seconds-e2e)
}
