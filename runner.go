package rundown

import (
	"context"
	"fmt"
	"time"

	"repro/internal/executive"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// Runner is the package's front door: one configured entry point whose
// Run and RunAll execute the same backend-agnostic Job spec on the
// virtual discrete-event machine, on real goroutine workers, or inside a
// multi-tenant worker pool — selected purely by the options given to
// New. Legacy entry points (Simulate, SimulateMulti, Execute, NewPool)
// are thin wrappers over a Runner.
//
//	r, _ := rundown.New(rundown.WithWorkers(8), rundown.WithManager(rundown.AsyncManager))
//	rep, err := r.Run(ctx, rundown.Job{Prog: prog, Opt: opt})
//
// Both methods honor ctx: cancellation aborts the run at the next
// dispatch boundary with an error wrapping ctx.Err(), releases parked
// workers, and tears down goroutine-free.
type Runner struct {
	cfg     runnerConfig
	backend Backend
}

// Backend dispatches Jobs on one machine model. The three built-in
// backends — virtual time, goroutine executive, tenant pool — are chosen
// by Runner options; Runner.Run and Runner.RunAll delegate to it.
type Backend interface {
	// Kind identifies the machine.
	Kind() BackendKind
	// Run executes one job to completion.
	Run(ctx context.Context, job Job) (*Report, error)
	// RunAll executes several jobs sharing the machine.
	RunAll(ctx context.Context, jobs []Job) (*Report, error)
}

// New builds a Runner from functional options. With no options it runs
// jobs on the goroutine executive with the serial manager and
// runtime.GOMAXPROCS(0) workers. Conflicting options (for example
// WithPool with WithVirtualTime) make New fail.
func New(opts ...Option) (*Runner, error) {
	r := &Runner{}
	for _, o := range opts {
		if err := o(&r.cfg); err != nil {
			return nil, err
		}
	}
	r.cfg.resolve()
	switch {
	case r.cfg.virtual:
		r.backend = &virtualBackend{c: &r.cfg}
	case r.cfg.pool:
		r.backend = &poolBackend{c: &r.cfg}
	default:
		r.backend = &execBackend{c: &r.cfg}
	}
	return r, nil
}

// Run executes job on the configured backend and returns the unified
// report. Cancelling ctx aborts the run with an error wrapping
// ctx.Err().
func (r *Runner) Run(ctx context.Context, job Job) (*Report, error) {
	return r.backend.Run(ctx, job)
}

// RunAll executes jobs sharing the configured machine: the tenant pool's
// overlap-first dispatch on real backends, the multi-program simulation
// on the virtual backend. Jobs that fail individually appear with their
// error in Report.Jobs; the returned error is the first job error (so a
// partial Report and an error can both be non-nil on real backends).
func (r *Runner) RunAll(ctx context.Context, jobs []Job) (*Report, error) {
	return r.backend.RunAll(ctx, jobs)
}

// Backend reports which machine the Runner drives.
func (r *Runner) Backend() BackendKind { return r.backend.Kind() }

// Capabilities reports what the Runner's configured manager/model
// pairing supports — in particular whether RunAll is available on the
// virtual backend before anything runs.
func (r *Runner) Capabilities() Caps {
	return Capabilities(r.cfg.manager, r.cfg.model())
}

// StartPool starts a live multi-tenant pool configured from the Runner's
// options, for callers that need the incremental Submit/Wait/Close
// lifecycle rather than the one-shot RunAll. Virtual runners cannot
// start a pool.
func (r *Runner) StartPool() (*Pool, error) {
	if r.cfg.virtual {
		return nil, fmt.Errorf("rundown: a virtual-time Runner cannot start a goroutine pool (use RunAll)")
	}
	cfg := r.cfg.poolConfig()
	// A started pool has no Report to dump into; metrics callers read the
	// live registry instead (WithMetricsRegistry plus Handler/Publish).
	cfg.Metrics = r.cfg.newMetrics("ns")
	// Likewise it has no Report to attach a trace to: a caller-owned
	// recorder (WithTraceRecorder) is the live-pool tracing surface.
	cfg.Trace = r.cfg.traceRec
	return tenant.NewPool(cfg)
}

// jobName labels job i of a RunAll.
func jobName(job Job, i int) string {
	if job.Name != "" {
		return job.Name
	}
	return fmt.Sprintf("job%d", i)
}

// execBackend runs single jobs on a dedicated goroutine executive and
// delegates RunAll to the pool backend (the executive has no multi-job
// surface of its own).
type execBackend struct {
	c *runnerConfig
}

func (b *execBackend) Kind() BackendKind { return ExecBackend }

func (b *execBackend) Run(ctx context.Context, job Job) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// A single-job goroutine run enforces the deadline through its run
	// context: the executive aborts at the next dispatch boundary with an
	// error wrapping context.DeadlineExceeded.
	if d := b.c.jobDeadline(job); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	rec := b.c.newRecorder()
	met := b.c.newMetrics("ns")
	cfg := b.c.execConfig()
	cfg.Trace = rec
	cfg.Metrics = met
	rep, err := executive.RunContext(ctx, job.Prog, b.c.jobOpt(job), cfg)
	if err != nil {
		// Every failure names the job it killed, and cancellation or
		// deadline errors keep wrapping ctx.Err() through this layer.
		return nil, fmt.Errorf("rundown: job %q: %w", jobName(job, 0), err)
	}
	out := &Report{
		Backend:     ExecBackend,
		Manager:     b.c.manager,
		Workers:     b.c.workers,
		Tasks:       rep.Tasks,
		Wall:        rep.Wall,
		Utilization: rep.Utilization,
		MgmtRatio:   rep.MgmtRatio,
		Exec:        rep,
	}
	b.c.finishMetrics(met, out)
	if terr := b.c.finishTrace(rec, out); terr != nil {
		return out, terr
	}
	return out, nil
}

func (b *execBackend) RunAll(ctx context.Context, jobs []Job) (*Report, error) {
	return (&poolBackend{c: b.c}).RunAll(ctx, jobs)
}

// poolBackend runs jobs on the multi-tenant worker pool.
type poolBackend struct {
	c *runnerConfig
}

func (b *poolBackend) Kind() BackendKind { return PoolBackend }

func (b *poolBackend) Run(ctx context.Context, job Job) (*Report, error) {
	return b.RunAll(ctx, []Job{job})
}

func (b *poolBackend) RunAll(ctx context.Context, jobs []Job) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// failEarly keeps the observer contract — one Final snapshot on
	// every outcome — for runs that die before the pool exists (once
	// the pool is up, its own Close emits the Final snapshot).
	failEarly := func(err error) (*Report, error) {
		if b.c.observer != nil {
			b.c.observer(Snapshot{Backend: PoolBackend, Final: true})
		}
		return nil, err
	}
	// Match the virtual backend's contract (sim.RunMulti rejects an
	// empty job list) instead of silently spinning up and tearing down
	// an idle pool.
	if len(jobs) == 0 {
		return failEarly(fmt.Errorf("rundown: RunAll needs at least one job"))
	}
	// An already-cancelled context aborts deterministically before the
	// pool spins up — fast jobs could otherwise finish before the
	// watcher goroutine ever runs, returning success under a cancelled
	// context.
	if err := ctx.Err(); err != nil {
		return failEarly(fmt.Errorf("rundown: run canceled: %w", err))
	}
	rec := b.c.newRecorder()
	met := b.c.newMetrics("ns")
	pcfg := b.c.poolConfig()
	pcfg.Trace = rec
	pcfg.Metrics = met
	pool, err := tenant.NewPool(pcfg)
	if err != nil {
		return failEarly(err)
	}

	// Cancellation watcher (the executive's shared WatchCancel): ctx
	// firing aborts every active job with a ctx.Err()-wrapped error; the
	// watcher is joined before returning so teardown is
	// goroutine-leak-free.
	stopWatch := executive.WatchCancel(ctx, func(err error) {
		pool.Abort(fmt.Errorf("rundown: run canceled: %w", err))
	})

	handles := make([]*tenant.Job, 0, len(jobs))
	for i, job := range jobs {
		h, err := pool.Submit(job.Prog, b.c.jobOpt(job), tenant.JobConfig{
			Name: jobName(job, i), Priority: job.Priority, Weight: job.Weight,
			Deadline: b.c.jobDeadline(job),
			Retry:    b.c.jobRetry(job),
			Backoff:  b.c.jobBackoff(job),
		})
		if err != nil {
			submitErr := fmt.Errorf("rundown: job %q: %w", jobName(job, i), err)
			pool.Abort(submitErr)
			pool.Close()
			stopWatch()
			return nil, submitErr
		}
		handles = append(handles, h)
	}
	// The watcher can fire while jobs are still being submitted — or
	// before any were — and Abort only fails jobs active at that
	// instant, so a cancellation landing inside the submit loop would be
	// silently lost for later jobs. One recheck after the last Submit
	// closes every such window: no further jobs join the pool after this
	// point.
	if err := ctx.Err(); err != nil {
		pool.Abort(fmt.Errorf("rundown: run canceled: %w", err))
	}

	rep := &Report{
		Backend: PoolBackend,
		Manager: b.c.manager,
		Workers: b.c.workers,
	}
	var firstErr error
	for i, h := range handles {
		jr, jerr := h.Wait()
		jrep := JobReport{
			Name: jobName(jobs[i], i), Err: jerr, Exec: jr, Backfill: h.BackfillTasks(),
			Attempts:  h.Attempts(),
			QueueWait: h.QueueWait(),
		}
		jrep.DeadlineMargin, jrep.HasDeadline = h.DeadlineMargin()
		rep.Jobs = append(rep.Jobs, jrep)
		if jerr != nil && firstErr == nil {
			firstErr = fmt.Errorf("rundown: job %q: %w", jobName(jobs[i], i), jerr)
		}
	}
	poolRep, closeErr := pool.Close()
	stopWatch()

	rep.Pool = poolRep
	rep.Tasks = poolRep.Tasks
	rep.Wall = poolRep.Wall
	rep.Utilization = poolRep.Utilization
	rep.Faults = poolRep.Faults
	rep.Retries = poolRep.Retries
	if poolRep.Mgmt > 0 {
		rep.MgmtRatio = float64(poolRep.Compute) / float64(poolRep.Mgmt)
	}
	if len(rep.Jobs) == 1 {
		rep.Exec = rep.Jobs[0].Exec
	}
	if firstErr == nil {
		firstErr = closeErr
	}
	b.c.finishMetrics(met, rep)
	if terr := b.c.finishTrace(rec, rep); terr != nil && firstErr == nil {
		firstErr = terr
	}
	return rep, firstErr
}

// virtualBackend runs jobs on the deterministic discrete-event machine.
type virtualBackend struct {
	c *runnerConfig
}

func (b *virtualBackend) Kind() BackendKind { return VirtualBackend }

func (b *virtualBackend) Run(ctx context.Context, job Job) (*Report, error) {
	rec := b.c.newRecorder()
	met := b.c.newMetrics("virtual")
	cfg := b.c.simConfig()
	cfg.Trace = rec
	cfg.Metrics = met
	res, err := sim.RunJob(ctx, b.simJob(job, 0), cfg)
	if err != nil {
		// Every failure names the job it killed, as on the executive;
		// deadline and cancellation errors keep wrapping their cause.
		return nil, fmt.Errorf("rundown: job %q: %w", jobName(job, 0), err)
	}
	out := &Report{
		Backend:     VirtualBackend,
		Manager:     b.c.manager,
		Model:       cfg.Mgmt,
		Workers:     res.Procs,
		Tasks:       res.Sched.Dispatches,
		Makespan:    res.Makespan,
		Utilization: res.Utilization,
		MgmtRatio:   res.MgmtRatio,
		Faults:      res.Faults,
		Retries:     res.Retries,
		Sim:         res,
	}
	b.c.finishMetrics(met, out)
	if terr := b.c.finishTrace(rec, out); terr != nil {
		return out, terr
	}
	return out, nil
}

// simJob is job i's virtual-time spec, carrying its failure policy.
func (b *virtualBackend) simJob(job Job, i int) sim.JobSpec {
	return sim.JobSpec{
		Name: jobName(job, i), Prog: job.Prog, Opt: b.c.jobOpt(job),
		Priority: job.Priority, Weight: job.Weight,
		// One virtual unit per nanosecond keeps the same Job spec
		// meaningful on both clocks.
		Deadline: int64(b.c.jobDeadline(job)),
		Retry:    b.c.jobRetry(job),
		Backoff:  int64(b.c.jobBackoff(job)),
	}
}

func (b *virtualBackend) RunAll(ctx context.Context, jobs []Job) (*Report, error) {
	rec := b.c.newRecorder()
	met := b.c.newMetrics("virtual")
	cfg := b.c.simConfig()
	cfg.Trace = rec
	cfg.Metrics = met
	specs := make([]sim.JobSpec, len(jobs))
	for i, job := range jobs {
		specs[i] = b.simJob(job, i)
	}
	res, err := sim.RunMultiContext(ctx, specs, cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Backend:     VirtualBackend,
		Manager:     b.c.manager,
		Model:       cfg.Mgmt,
		Workers:     res.Procs,
		Makespan:    res.Makespan,
		Utilization: res.Utilization,
		SimMulti:    res,
	}
	rep.Faults = res.Faults
	rep.Retries = res.Retries
	var firstErr error
	for i := range res.Jobs {
		j := &res.Jobs[i]
		rep.Tasks += j.Sched.Dispatches
		jrep := JobReport{
			Name: j.Name, Err: j.Err, Sim: j, Backfill: j.BackfillUnits,
			Attempts: j.Attempts,
		}
		// Virtual jobs all activate at submission (QueueWait 0); a
		// deadlined job's margin is its budget minus its makespan, on the
		// one-unit-per-nanosecond clock the Deadline spec uses.
		if d := specs[i].Deadline; d > 0 {
			jrep.DeadlineMargin = time.Duration(d - j.Makespan)
			jrep.HasDeadline = true
		}
		rep.Jobs = append(rep.Jobs, jrep)
		if j.Err != nil && firstErr == nil {
			// Same contract as the pool backend: per-job failures land in
			// Jobs, the first one (in submit order) is also the returned
			// error, and both the Report and the error are non-nil.
			firstErr = fmt.Errorf("rundown: job %q: %w", j.Name, j.Err)
		}
	}
	if res.MgmtUnits > 0 {
		rep.MgmtRatio = float64(res.ComputeUnits) / float64(res.MgmtUnits)
	}
	b.c.finishMetrics(met, rep)
	if terr := b.c.finishTrace(rec, rep); terr != nil && firstErr == nil {
		firstErr = terr
	}
	return rep, firstErr
}
