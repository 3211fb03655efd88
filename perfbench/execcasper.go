package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	rundown "repro"
	"repro/internal/casper"
	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/service"
)

// The exec-casper workload: the 22-phase CASPER census with a compute
// kernel sized by each granule's seeded cost, and the mini-CFD pipeline,
// on the sharded manager with overlap on. Its operation is one census
// run; its granules are those of one census and one pipeline run.

// censusOptions sets grain 64, so each census phase (124 to 264
// granules) splits into two to five tasks: on two workers the last task
// of a phase leaves a worker idle unless overlap fills the gap, which is
// the loss this workload prices.
func censusOptions() core.Options {
	return core.Options{Grain: 64, Overlap: true, Costs: core.DefaultCosts()}
}

func pipelineOptions() core.Options {
	return core.Options{Grain: 64, Overlap: true, Elevate: true, Costs: core.DefaultCosts()}
}

const pipelinePoints = 1 << 14

// pipelineRun pairs a pipeline with the serial reference it must match.
type pipelineRun struct {
	p, ref *casper.Pipeline
	prog   *core.Program
}

func newPipelineRun() (*pipelineRun, error) {
	p, err := casper.NewPipeline(pipelinePoints)
	if err != nil {
		return nil, err
	}
	ref, err := casper.NewPipeline(pipelinePoints)
	if err != nil {
		return nil, err
	}
	ref.RunSerial()
	prog, err := p.Program()
	if err != nil {
		return nil, err
	}
	return &pipelineRun{p: p, ref: ref, prog: prog}, nil
}

func (r *pipelineRun) reset() {
	for _, a := range [][]float64{r.p.Q, r.p.M, r.p.S, r.p.R, r.p.B, r.p.Out} {
		clear(a)
	}
	r.p.Norm = 0
}

func (r *pipelineRun) check() error {
	got := [][]float64{r.p.Q, r.p.M, r.p.S, r.p.R, r.p.B, r.p.Out}
	want := [][]float64{r.ref.Q, r.ref.M, r.ref.S, r.ref.R, r.ref.B, r.ref.Out}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			return fmt.Errorf("pipeline array %d differs from RunSerial", i)
		}
	}
	if r.p.Norm != r.ref.Norm {
		return fmt.Errorf("pipeline norm %v, RunSerial %v", r.p.Norm, r.ref.Norm)
	}
	return nil
}

func runExecCasper(b *bench) error {
	var (
		cen    *census
		pipe   *pipelineRun
		runner *rundown.Runner
		builds []float64
	)
	censusOp := func(parent int32, op int64) (time.Duration, float64, bool) {
		cen.reset()
		sp := b.tr.start("runner.Run", parent, op)
		t0 := time.Now()
		rep, err := runner.Run(context.Background(), rundown.Job{Prog: cen.prog, Opt: censusOptions()})
		dur := time.Since(t0)
		b.tr.finish(sp)
		if err == nil && cen.checksum() != cen.want {
			err = fmt.Errorf("census checksum %#x, serial evaluation %#x", cen.checksum(), cen.want)
		}
		b.check(err == nil, "exec-casper census: %v", err)
		b.noteHeap()
		if err != nil {
			return 0, 0, false
		}
		return dur, rep.Utilization, true
	}
	pipelineOp := func(parent int32, op int64) (time.Duration, bool) {
		pipe.reset()
		sp := b.tr.start("runner.Run", parent, op)
		t0 := time.Now()
		_, err := runner.Run(context.Background(), rundown.Job{Prog: pipe.prog, Opt: pipelineOptions()})
		dur := time.Since(t0)
		b.tr.finish(sp)
		if err == nil {
			err = pipe.check()
		}
		b.check(err == nil, "exec-casper pipeline: %v", err)
		b.noteHeap()
		return dur, err == nil
	}
	build := func(parent int32) error {
		sp := b.tr.start("workload.CasperProgram", parent, 0)
		t0 := time.Now()
		var err error
		if cen, err = newCensus(b.seed, 4); err != nil {
			return err
		}
		if pipe, err = newPipelineRun(); err != nil {
			return err
		}
		builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e6)
		b.tr.finish(sp)
		if err := verifyCensus(b.seed); err != nil {
			return err
		}
		if err := verifyPipeline(); err != nil {
			return err
		}
		if runner, err = rundown.New(rundown.WithWorkers(workers), rundown.WithManager(executive.ShardedManager)); err != nil {
			return err
		}
		censusOp(0, 0)
		pipelineOp(0, 0)
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
	var spans, pipes, utils opSamples
	var plain, traced []float64
	deadline := time.Now().Add(e2e)
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		var parent int32
		var op int64
		tr := b.traced && i%2 == 1
		if tr {
			op = b.tr.op()
			parent = b.tr.start("bench.op", 0, op)
		}
		st0 := stealTicks()
		dur, util, ok := censusOp(parent, op)
		st1 := stealTicks()
		pdur, pok := pipelineOp(parent, op)
		st2 := stealTicks()
		b.tr.finish(parent)
		if pok {
			pipes.add(pdur.Seconds()*1e3, st2-st1)
		}
		if !ok {
			continue
		}
		ms := dur.Seconds() * 1e3
		switch {
		case tr:
			traced = append(traced, ms)
		case b.traced:
			plain = append(plain, ms)
		}
		spans.add(ms, st1-st0)
		utils.add(util, st1-st0)
	}
	makespan := spans.median()
	granules := cen.prog.TotalGranules() + pipe.prog.TotalGranules()
	b.setE2E("granules_per_s", "granules/s", float64(granules)/((makespan+pipes.median())/1e3))
	b.setE2E("op_p50_ms", "ms", makespan)
	b.setE2E("utilization", "ratio", utils.median())
	b.setDetail("pipeline_ms", "ms", pipes.median())
	b.setDetail("census_runs_without_steal", "ratio", spans.cleanShare())
	if !b.traced {
		return nil
	}
	b.setLayer("bench.trace_overhead_ms", "ms", median(traced)-median(plain))
	cen2, err := newCensus(b.seed+1, 4)
	if err != nil {
		return err
	}
	return runLadder(b, censusSubject(b.seed, cen, cen2), b.seconds-e2e)
}

// censusWorkMicros is the spin the daemon specs of the census shape
// attach to every granule: about the kernel's mean cost per granule
// (24.5 units of 160 mixing steps) on the host the benchmark was sized on.
const censusWorkMicros = 5

// censusSubject prices two census programs of different seeds at every
// layer; the daemon runs census specs of the same cost model, one
// granule per source line.
func censusSubject(seed uint64, c, c2 *census) *subject {
	s := &subject{
		progs: []*core.Program{c.prog, c2.prog}, opt: censusOptions(),
		reset: func() { c.reset(); c2.reset() },
		check: func() error {
			for _, x := range []*census{c, c2} {
				if x.checksum() != x.want {
					return fmt.Errorf("census checksum %#x, serial evaluation %#x", x.checksum(), x.want)
				}
			}
			return nil
		},
	}
	for i := uint64(0); i < 2; i++ {
		s.specs = append(s.specs, service.JobSpec{Grain: 1, Class: service.ClassBatch, Workload: service.WorkloadSpec{
			Kind: "casper", Cycles: 2, CostLo: 1, CostHi: 48, Seed: seed + i, WorkMicros: censusWorkMicros}})
	}
	return s
}
