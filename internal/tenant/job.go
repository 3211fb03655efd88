package tenant

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/telemetry"
)

// Job is the handle for one submitted program. It is created by
// Pool.Submit and owned by the pool until finished.
type Job struct {
	pool *Pool
	cfg  JobConfig
	idx  int

	prog *core.Program
	opt  core.Options // retained so a retry can recompile the scheduler
	// sched and mgrv belong to the job's current ATTEMPT: a retry swaps
	// in a fresh scheduler+manager pair. sched is swapped under pool.mu
	// (read racily only by the stall probe, also under pool.mu); the
	// driver is an atomic so workers and timers read it lock-free.
	sched *core.Scheduler
	mgrv  atomic.Value // executive.PoolDriver

	// deficit is the job's deficit-round-robin backfill credit in
	// granules, guarded by pool.mu.
	deficit int64

	compute         atomic.Int64 // nanoseconds of granule work
	tasks           atomic.Int64
	backfillTasks   atomic.Int64 // tasks run by foreign-home workers
	backfillCompute atomic.Int64

	// attempts counts scheduler instantiations (1 = no retry yet);
	// retriesLeft is guarded by pool.mu; retrying marks the backoff
	// window between a failed attempt and its restart; mgmtPrior
	// accumulates dead attempts' management nanoseconds.
	attempts    atomic.Int32
	retriesLeft int
	retrying    atomic.Bool
	mgmtPrior   atomic.Int64
	// lastTouch is the clock reading (internal/clock) of the job's last
	// dispatch or completion submission — the watchdog's wedge signal,
	// immune to wall-clock steps.
	lastTouch atomic.Int64
	// deadline is the job's deadline timer (nil without one), stopped
	// when the job finishes. Guarded by pool.mu.
	deadline *time.Timer

	submitted time.Time
	finished  atomic.Bool
	end       time.Time // guarded by pool.mu until done is closed
	err       error     // guarded by pool.mu until done is closed
	done      chan struct{}

	// activatedOnce marks the first activation and queueWaitNS the
	// submit-to-activation wait it measured (for a job retired while
	// still queued, the whole life). Both written under pool.mu before
	// done closes; read after Wait. started mirrors activatedOnce for
	// lock-free progress polling (service SSE snapshots).
	activatedOnce bool
	queueWaitNS   int64
	started       atomic.Bool
}

// driver returns the job's current attempt's manager.
func (j *Job) driver() executive.PoolDriver {
	return j.mgrv.Load().(executive.PoolDriver)
}

// Attempts reports how many times the job's scheduler was instantiated:
// 1 plus the number of retries taken so far.
func (j *Job) Attempts() int { return int(j.attempts.Load()) }

// Name returns the job's label.
func (j *Job) Name() string { return j.cfg.Name }

// Index is the job's pool-assigned index in submit order — the Job
// column of the pool's flight-recorder records, so a caller can carve
// this job's schedule out of a pool trace with Trace.FilterJob.
func (j *Job) Index() int { return j.idx }

// Class returns the job's service class ("" = unclassified).
func (j *Job) Class() string { return j.cfg.Class }

// Started reports whether the job has been activated at least once —
// false while it waits behind admission control. Safe to poll.
func (j *Job) Started() bool { return j.started.Load() }

// Finished reports whether the job has been retired. Safe to poll;
// Done is the blocking form.
func (j *Job) Finished() bool { return j.finished.Load() }

// Tasks reports how many tasks the job has completed so far. Safe to
// poll while the job runs (monotonic, eventually consistent).
func (j *Job) Tasks() int64 { return j.tasks.Load() }

// Done returns a channel closed when the job finishes (successfully or
// not).
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes and returns its report. The report
// has the same shape as an executive.Run report: Wall is submit-to-finish,
// Mgmt is the job's own manager-serialized management time, Utilization is
// against the full pool (a job sharing the pool cannot use more). Idle is
// zero — parked time belongs to the pool, not to any one job.
func (j *Job) Wait() (*executive.Report, error) {
	<-j.done
	// An async manager's management goroutine may still be winding down
	// for a moment after the job is retired; join it so the scheduler
	// statistics read below are quiescent.
	m := j.driver()
	if jn, ok := m.(executive.Joiner); ok {
		jn.Join()
	}
	rep := &executive.Report{
		Manager: j.pool.cfg.Manager,
		Wall:    j.end.Sub(j.submitted),
		Compute: time.Duration(j.compute.Load()),
		Mgmt:    m.Mgmt() + time.Duration(j.mgmtPrior.Load()),
		Tasks:   j.tasks.Load(),
		Sched:   j.sched.Stats(),
	}
	if rep.Mgmt > 0 {
		rep.MgmtRatio = float64(rep.Compute) / float64(rep.Mgmt)
	}
	rep.Utilization, _ = telemetry.Shares(
		int64(rep.Compute), int64(rep.Mgmt), j.pool.cfg.Workers, int64(rep.Wall))
	return rep, j.err
}

// QueueWait reports how long the job waited behind admission control
// between Submit and its first activation — zero when it started
// immediately, its whole lifetime when it was retired before ever
// running. Valid after Wait.
func (j *Job) QueueWait() time.Duration { return time.Duration(j.queueWaitNS) }

// DeadlineMargin reports how much of the job's deadline budget was left
// when it finished (negative when it was retired past the deadline) and
// whether the job had a deadline at all. Valid after Wait.
func (j *Job) DeadlineMargin() (time.Duration, bool) {
	if j.cfg.Deadline <= 0 {
		return 0, false
	}
	return j.cfg.Deadline - j.end.Sub(j.submitted), true
}

// BackfillTasks reports how many of the job's tasks were executed by
// workers homed on another job (valid after Wait).
func (j *Job) BackfillTasks() int64 { return j.backfillTasks.Load() }

// BackfillCompute reports the summed execution time of those tasks.
func (j *Job) BackfillCompute() time.Duration {
	return time.Duration(j.backfillCompute.Load())
}
