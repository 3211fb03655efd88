// Package tenant is the multi-tenant worker pool: several core.Programs
// run concurrently on one set of worker goroutines, so one job's rundown
// is filled by another job's work. The paper's introduction dismisses this
// "batch" environment because statically splitting a machine between job
// streams lengthens each job's elapsed time (E9 reproduces the trade-off);
// the pool avoids the static split. Its dispatch policy is overlap-first:
//
//   - every worker has a home job (weighted share of the workers per job)
//     and serves it exclusively while the home job has anything
//     dispatchable — phase overlap inside the job keeps its makespan as
//     short as running alone;
//   - only when the home job is in rundown (nothing dispatchable even
//     after absorbing deferred management) does the worker take foreign
//     work, chosen by priority and then deficit-round-robin credit, so
//     backfill capacity is shared fairly among the other jobs.
//
// Each job owns its own core.Scheduler state machine wrapped in its own
// executive Manager (serial and sharded both supported, via the
// executive.PoolDriver surface); the pool owns cross-job dispatch,
// parking, stall detection, and lifecycle. Layering: pool above manager
// above state machine.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/fault"
	"repro/internal/granule"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// drrQuantum is the deficit-round-robin credit (in granules) one weight
// unit earns per replenishment round. Backfill tasks draw down the
// serving job's credit by their granule count, so over time each job's
// share of the pool's spare capacity is proportional to its weight.
const drrQuantum = 64

// Config parameterizes a pool.
type Config struct {
	// Workers is the number of shared worker goroutines (>= 1).
	Workers int
	// Manager selects the per-job management layer (SerialManager
	// default). Every job in the pool uses the same kind. An async pool
	// runs one management goroutine per job beside the shared workers.
	Manager executive.ManagerKind
	// DequeCap and Batch parameterize the sharded manager per job (see
	// executive.Config); ignored by the serial manager.
	DequeCap int
	// Batch is the sharded manager's completion batch size (also the
	// async manager's completion drain chunk).
	Batch int
	// ReadyCap and LowWater parameterize the async manager per job (see
	// executive.Config); ignored by the other managers.
	ReadyCap int
	// LowWater is the async manager's deferred-overlap low-water mark.
	LowWater int
	// Observer, when non-nil, receives periodic pool-level Snapshots
	// sampled on a dedicated goroutine for the pool's lifetime, plus one
	// Final snapshot from Close. The callback must not block for long.
	Observer func(Snapshot)
	// ObservePeriod is the sampling period; <= 0 selects 10ms. Ignored
	// without Observer.
	ObservePeriod time.Duration
	// Trace, when non-nil, flight-records the pool's scheduling decisions:
	// per-task dispatch/completion (with the owning job's index and a
	// backfill marker), pool-level park/unpark, and per-job start/finish/
	// abort. Recording happens at pool level — the layer that knows which
	// job a task belongs to — into per-worker rings with no
	// synchronization; merge with Recorder.Take after Close.
	Trace *trace.Recorder
	// MaxActive is the admission high-water mark: at most this many jobs
	// run concurrently (0 = unlimited). A Submit above the mark fails with
	// ErrPoolSaturated, or queues when Queue is set; queued jobs activate
	// in submit order as active jobs finish.
	MaxActive int
	// Queue makes a saturated Submit enqueue the job instead of rejecting
	// it. Ignored without MaxActive.
	Queue bool
	// Admit, when non-nil, is consulted by Submit before the MaxActive
	// check, under the pool lock, with a consistent view of the pool's
	// load. A non-nil return rejects the job: Submit wraps the error with
	// the job name, so a caller-defined sentinel (or errors.As target)
	// survives to the submitter. The predicate must be fast and must not
	// call back into the pool.
	Admit AdmitFunc
	// DynamicFaults pre-arms an empty fault plan (and the stall watchdog)
	// so rules can be injected into the live pool via InjectFaults — the
	// staging path for a service daemon, where a fault campaign arrives
	// with a job submitted to an already-running pool. Ignored when Faults
	// already arms a plan.
	DynamicFaults bool
	// PreemptBound caps every job's task grain at this many granules: the
	// largest non-preemptible unit any worker can hold, bounding how long
	// a job emerging from rundown waits behind an in-flight foreign grain
	// (0 = no cap). Report.MaxBackfillTask measures the enforcement.
	PreemptBound int
	// StallTimeout arms the pool watchdog: a job with tasks in flight and
	// no dispatch or completion for this long is failed as wedged (and
	// retried if it has retries left), and each watchdog tick re-wakes
	// parked workers — the recovery path for a dropped wakeup. 0 selects a
	// default when Faults is set and disables the watchdog otherwise;
	// negative always disables it.
	StallTimeout time.Duration
	// Faults, when non-nil, arms deterministic fault injection: the same
	// Spec the simulator prices in virtual time strikes the pool's real
	// goroutines at the matching chokepoints (Rule.After is wall-clock
	// nanoseconds since pool start; delays are bounded by fault.Sleep).
	Faults *fault.Spec
	// Metrics, when non-nil, is the telemetry set the pool records into:
	// per-worker dispatch/completion/backfill counters, the queue-wait
	// and deadline-margin histograms, job lifecycle counters, and —
	// through the per-job managers — steal counters and ready-buffer
	// occupancy. All durations are wall-clock nanoseconds. The
	// metrics-off fast path is one nil check per event.
	Metrics *telemetry.Set
}

// JobConfig describes one submitted job.
type JobConfig struct {
	// Name labels the job in reports and errors ("jobN" default).
	Name string
	// Priority orders backfill: spare capacity goes to dispatchable jobs
	// of the highest priority first. Higher is more important; equal
	// priorities share by deficit-round-robin.
	Priority int
	// Weight is the job's share of home workers and of backfill credit
	// within its priority class (<= 0 selects 1).
	Weight int
	// Deadline bounds the job's submit-to-finish wall time (0 = none). A
	// job past its deadline is aborted — only that job — with an error
	// wrapping context.DeadlineExceeded; queue wait under admission
	// control counts against it. Deadline aborts never retry.
	Deadline time.Duration
	// Retry is how many times a failed attempt (work error, panic, wedge)
	// restarts on a fresh scheduler before the error sticks (0 = none).
	Retry int
	// Backoff is the base delay before the first retry; each further
	// retry doubles it, capped at 64× (0 = retry immediately).
	Backoff time.Duration
	// Class is the job's service class label ("" = unclassified). The pool
	// attaches no semantics beyond exposing it to Config.Admit and
	// recording per-class submitted/rejected/done counters in the metric
	// set; the service layer defines classes like "latency" on top.
	Class string
	// Tolerance is the class-specific admission tolerance (for the
	// "latency" class, the projected slowdown budget in percent). Opaque
	// to the pool; carried to Config.Admit.
	Tolerance float64
}

// Pool is a shared worker pool running several jobs concurrently. Workers
// are spawned by NewPool and live until Close.
type Pool struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    []*Job // every submitted job, submit order
	active  []*Job // incomplete jobs, submit order
	waitq   []*Job // admitted-but-queued jobs (admission control), submit order
	homes   []*Job // per-worker home job; nil entries when no active jobs
	closed  bool
	stalled int // jobs failed by the pool stall detector
	// retryWait counts jobs between attempts (backoff timer pending).
	// Workers must not exit — and Close must not join them — while a
	// retry is outstanding, even with the active set empty.
	retryWait int

	// epoch bumps (under mu) whenever the active set changes, so workers
	// can cache their home job and re-read only on change.
	epoch atomic.Uint64
	// gen counts progress events (task acquired, completion submitted,
	// job submitted or finished). A worker parks only if gen is unchanged
	// since its dry sweep began; see park.
	gen atomic.Uint64
	// nWaiting counts workers inside cond.Wait. Modified only under mu,
	// read lock-free by progress to skip the broadcast when nobody waits.
	nWaiting atomic.Int32

	wg    sync.WaitGroup
	start int64 // clock reading at NewPool
	end   int64 // clock reading set by Close after the workers join

	sampler  *executive.Sampler // non-nil when an Observer samples the pool
	obsFinal atomic.Bool        // Final snapshot emitted (first Close wins)

	// plan is the compiled fault campaign (nil when Config.Faults is nil:
	// one nil check per task on the fault-free hot path).
	plan *fault.Plan
	// watchStop/watchDone bracket the watchdog goroutine; watchOn gates
	// fault kinds (dropped wakeups, unbounded wedges) that need the
	// watchdog to recover.
	watchStop chan struct{}
	watchDone chan struct{}
	watchOn   bool

	closeOnce sync.Once
	closeRep  *Report
	closeErr  error

	idleNS          atomic.Int64
	backfillTasks   atomic.Int64
	backfillCompute atomic.Int64
	retries         atomic.Int64
	maxBackfillTask atomic.Int64

	// met is Config.Metrics (nil = metrics off). metMu/mgmtSeen serialize
	// the management-time mirror between the sampler goroutine and Close
	// (see noteMgmt).
	met      *telemetry.Set
	metMu    sync.Mutex
	mgmtSeen int64
}

// NewPool starts cfg.Workers worker goroutines and returns the pool,
// ready for Submit. Close releases the workers.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("tenant: need at least 1 worker")
	}
	if _, err := executive.ParseManager(cfg.Manager.String()); err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	p := &Pool{
		cfg:   cfg,
		homes: make([]*Job, cfg.Workers),
		start: clock.Now(),
		met:   cfg.Metrics,
	}
	p.cond = sync.NewCond(&p.mu)
	if rec := cfg.Trace; rec != nil {
		m := rec.Meta()
		if m.Backend == "" {
			m.Backend = "pool"
		}
		m.Manager = cfg.Manager.String()
		m.Workers = cfg.Workers
		m.TimeUnit = trace.UnitNanos
	}
	if cfg.Observer != nil {
		p.startObserver()
	}
	if cfg.Faults != nil {
		p.plan = fault.New(*cfg.Faults)
	}
	if p.plan == nil && cfg.DynamicFaults {
		p.plan = fault.NewDynamic(fault.Spec{})
	}
	timeout := cfg.StallTimeout
	if timeout == 0 && p.plan != nil {
		timeout = defaultStallTimeout
	}
	if timeout > 0 {
		p.watchOn = true
		p.watchStop = make(chan struct{})
		p.watchDone = make(chan struct{})
		go p.watchdog(timeout)
	}
	p.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func(w int) {
			// The pprof label ties profile samples to the worker index the
			// metric shards and trace rings use; the worker adds a job
			// label per job switch when metrics are on.
			pprof.Do(context.Background(),
				pprof.Labels("rundown_worker", strconv.Itoa(w)),
				func(ctx context.Context) { p.worker(ctx, w) })
		}(w)
	}
	return p, nil
}

// Submit adds a job to the pool and activates it immediately — unless
// admission control is at its high-water mark, in which case the job is
// rejected (ErrPoolSaturated) or queued. opt.Workers defaults to the
// pool's worker count (it only informs the scheduler's grain and subset
// defaults); Config.PreemptBound caps the resulting task grain.
func (p *Pool) Submit(prog *core.Program, opt core.Options, jc JobConfig) (*Job, error) {
	if opt.Workers <= 0 {
		opt.Workers = p.cfg.Workers
	}
	opt = capTenantGrain(prog, opt, p.cfg.PreemptBound)
	sched, err := core.New(prog, opt)
	if err != nil {
		return nil, err
	}
	// Options.AdaptiveBatch is deliberately NOT threaded through here:
	// pool workers drive the non-blocking PoolDriver surface and park at
	// pool level, never on the manager's condition variable, so the
	// controller's hoarded-idle (shrink) signal would be structurally
	// zero — a grow-only controller is worse than fixed parameters.
	// Adaptive tenancy is a ROADMAP follow-on.
	mgr, err := executive.NewPoolDriver(sched, executive.Config{
		Workers: p.cfg.Workers, Manager: p.cfg.Manager,
		DequeCap: p.cfg.DequeCap, Batch: p.cfg.Batch,
		ReadyCap: p.cfg.ReadyCap, LowWater: p.cfg.LowWater,
		Metrics: p.cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	// Async managers make progress on their own management goroutine —
	// completions apply and refills land where no pool worker sees them —
	// so the pool registers its progress bump as the manager's notify
	// callback: parked workers wake and re-sweep when the job's
	// management goroutine produces work or finishes the job.
	if n, ok := mgr.(executive.Notifier); ok {
		n.SetNotify(p.progress)
	}
	if jc.Weight <= 0 {
		jc.Weight = 1
	}
	j := &Job{
		pool: p, cfg: jc, prog: prog, opt: opt, sched: sched,
		done: make(chan struct{}), submitted: time.Now(),
	}
	j.mgrv.Store(mgr)
	j.attempts.Store(1)
	j.retriesLeft = jc.Retry

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("tenant: submit %q: %w", jc.Name, ErrPoolClosed)
	}
	j.idx = len(p.jobs)
	if j.cfg.Name == "" {
		j.cfg.Name = fmt.Sprintf("job%d", j.idx)
	}
	if p.cfg.Admit != nil {
		if err := p.cfg.Admit(j.cfg, p.admissionViewLocked()); err != nil {
			p.mu.Unlock()
			p.classInc(j.cfg.Class, classRejected)
			return nil, fmt.Errorf("tenant: submit %q: %w", j.cfg.Name, err)
		}
	}
	if p.cfg.MaxActive > 0 && len(p.active) >= p.cfg.MaxActive && !p.cfg.Queue {
		p.mu.Unlock()
		p.classInc(j.cfg.Class, classRejected)
		return nil, fmt.Errorf("tenant: submit %q: %d jobs active: %w",
			j.cfg.Name, p.cfg.MaxActive, ErrPoolSaturated)
	}
	if rec := p.cfg.Trace; rec != nil {
		// Job names accumulate in submit order, matching the Job column of
		// the records. SetJob locks against a live Take.
		rec.SetJob(j.idx, j.cfg.Name)
	}
	p.jobs = append(p.jobs, j)
	if p.cfg.MaxActive > 0 && len(p.active) >= p.cfg.MaxActive {
		// Admitted but queued: the manager starts when a slot frees.
		p.waitq = append(p.waitq, j)
	} else {
		p.activateLocked(j)
	}
	// The deadline clock starts at Submit — queue wait under admission
	// control counts against it.
	if d := jc.Deadline; d > 0 {
		j.deadline = time.AfterFunc(d, func() { p.deadlineFire(j) })
	}
	p.mu.Unlock()

	if p.met != nil {
		p.met.JobsSubmitted.Inc(0)
	}
	p.classInc(jc.Class, classSubmitted)
	p.progress()
	return j, nil
}

// activateLocked starts job j's manager and puts it in the active set.
// Caller holds p.mu.
func (p *Pool) activateLocked(j *Job) {
	if rec := p.cfg.Trace; rec != nil {
		rec.Emit(trace.KStart, rec.Now(), -1, int32(j.idx), -1, 0, 0, 0)
	}
	if !j.activatedOnce {
		// First activation (a retry reactivates but never re-queues): the
		// submit-to-start gap is the admission-control queue wait.
		j.activatedOnce = true
		j.started.Store(true)
		j.queueWaitNS = int64(time.Since(j.submitted))
		if p.met != nil {
			p.met.QueueWait.Observe(j.queueWaitNS)
		}
	}
	j.driver().Start()
	j.lastTouch.Store(clock.Now())
	p.active = append(p.active, j)
	if p.met != nil {
		p.met.ActiveJobs.Set(int64(len(p.active)))
	}
	p.rebalanceLocked()
}

// Close marks the pool as accepting no more jobs, lets every submitted
// job run to completion (including queued jobs and pending retries),
// joins the workers, and returns the pool report. The error is the first
// job error in submit order, if any. Close is idempotent and safe to
// call concurrently with Submit and Abort: every call returns the same
// report and error.
func (p *Pool) Close() (*Report, error) {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.cond.Broadcast()
		p.mu.Unlock()
		// Release every injected wedge: captive workers submit their
		// withheld completions (dropped if their attempt was already
		// failed) and rejoin the loop, so teardown never hangs on a fault.
		p.plan.ReleaseAll()
		p.wg.Wait()
		p.stopWatchdog()
		p.end = clock.Now()

		for _, j := range p.jobs {
			if j.err != nil {
				p.closeErr = fmt.Errorf("tenant: job %q: %w", j.cfg.Name, j.err)
				break
			}
		}
		p.closeRep = p.report()
		p.noteMgmt(int64(p.closeRep.Mgmt))
		p.stopObserver(p.closeRep)
	})
	return p.closeRep, p.closeErr
}

// Abort fails every active job with err (finished jobs keep their
// results), releasing their workers and waiters; the pool itself
// survives and Close still returns normally. It is the pool's
// cancellation point: a caller whose context fires aborts the pool with
// an error wrapping ctx.Err(), and every outstanding Job.Wait returns
// that error.
func (p *Pool) Abort(err error) {
	p.mu.Lock()
	jobs := append([]*Job(nil), p.active...)
	// Queued and backing-off jobs have no running manager to abort; they
	// retire directly. An abort is final — pending retries are cancelled
	// (their backoff timers fire into a finished job and stand down).
	for _, j := range p.jobs {
		if j.retrying.Load() && !j.finished.Load() {
			p.finishJobLocked(j, err)
		}
	}
	for len(p.waitq) > 0 {
		j := p.waitq[0]
		p.waitq = p.waitq[1:]
		p.finishJobLocked(j, err)
	}
	p.mu.Unlock()
	// Manager aborts happen outside p.mu: each takes its own manager
	// lock, and the async manager's notify path re-enters the pool.
	for _, j := range jobs {
		// A manager whose state machine already completed refuses the
		// abort under its own lock (no check-then-act window here): the
		// job executed fully — perhaps retired by no worker sweep yet —
		// and keeps its results instead of being poisoned with the abort
		// error. The refusal reads back as Err() == nil.
		m := j.driver()
		m.Abort(err)
		if merr := m.Err(); merr == nil {
			p.checkFinished(j)
		} else {
			p.failJob(j, m, merr, false)
		}
	}
	p.progress()
}

// worker is the shared goroutine body: serve the home job while it has
// work, backfill foreign jobs during the home job's rundown, park when
// nothing is dispatchable anywhere. ctx carries the goroutine's pprof
// worker label; a job label is layered on per job switch when metrics
// are on.
func (p *Pool) worker(ctx context.Context, w int) {
	defer p.wg.Done()
	var cache homeCache
	var labeled *Job // job currently named in this goroutine's pprof labels
	// The previous task's job AND the driver it was taken from: after a
	// retry swaps a fresh manager into the job, this worker's batched
	// completions still belong to the old (aborted) attempt and must be
	// flushed there, where the post-failure gate drops them.
	var last *Job
	var lastMgr executive.PoolDriver
	for {
		g0 := p.gen.Load()
		j, m, task, backfill, ok := p.sweep(w, &cache)
		if ok {
			if p.met != nil && j != labeled {
				pprof.SetGoroutineLabels(pprof.WithLabels(ctx,
					pprof.Labels("rundown_job", j.cfg.Name)))
				labeled = j
			}
			if lastMgr != nil && lastMgr != m {
				// The previous job's completions must not linger in this
				// worker's batch while it works elsewhere: a job's final
				// completions would otherwise wait for this worker's next
				// dry sweep, stretching that job's observed makespan.
				if lastMgr.Flush(w) {
					p.checkFinished(last)
					p.progress()
				}
			}
			last, lastMgr = j, m
			p.runTask(w, j, m, task, backfill)
			continue
		}
		// Dry sweep: every active job's TryNext flushed this worker's
		// batch and found nothing dispatchable.
		last, lastMgr = nil, nil
		if p.park(w, g0) {
			return
		}
	}
}

// runTask executes task for job j outside every lock, then submits the
// completion to m — the driver the task was taken from, which after a
// retry may no longer be j's current one (the stale completion is then
// dropped at the aborted manager's gate). Panics in user work fail the
// job, not the pool; a failed attempt with retries left restarts.
func (p *Pool) runTask(w int, j *Job, m executive.PoolDriver, task core.Task, backfill bool) {
	// t0 is the dispatch boundary: the watchdog's touch and the KDispatch
	// and KBackfill stamps share it.
	t0 := clock.Now()
	j.lastTouch.Store(t0)
	if p.met != nil {
		p.met.Dispatches.Inc(w)
	}
	rec := p.cfg.Trace
	var ring *trace.Ring
	if rec != nil {
		ring = rec.Ring(w)
		ring.Record(trace.KDispatch, rec.At(t0), int32(w), int32(j.idx),
			int32(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), 0)
		if backfill {
			ring.Record(trace.KBackfill, rec.At(t0), int32(w), int32(j.idx),
				int32(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), 0)
		}
	}
	work := j.prog.Phases[task.Phase].Work
	var tf taskFaults
	if p.plan != nil {
		p.injectTask(w, j, task, &work, &tf)
	}
	c0 := clock.Now()
	err := tf.err
	if err == nil {
		err = execTask(work, task)
		if err == nil && tf.factor > 1 {
			stretchCompute(clock.Since(c0), tf.factor)
		}
	}
	// c1 ends the compute interval; the KComplete stamp and the
	// watchdog's completion touch share it.
	c1 := clock.Now()
	dur := c1 - c0

	if err != nil {
		m.Abort(err)
		p.failJob(j, m, err, true)
		return
	}
	j.compute.Add(dur)
	j.tasks.Add(1)
	if p.met != nil {
		p.met.ComputeTime.Add(w, dur)
		p.met.Completions.Inc(w)
	}
	if backfill {
		j.backfillTasks.Add(1)
		j.backfillCompute.Add(dur)
		p.backfillTasks.Add(1)
		p.backfillCompute.Add(dur)
		if p.met != nil {
			p.met.Backfill.Inc(w)
			p.met.BackfillTime.Add(w, dur)
		}
		n := int64(task.Run.Len())
		for {
			cur := p.maxBackfillTask.Load()
			if n <= cur || p.maxBackfillTask.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	if p.plan != nil {
		p.holdCompletion(w, j, &tf)
		// A withheld or delayed completion is stamped and touched when
		// it is finally submitted.
		c1 = clock.Now()
	}
	// Recorded BEFORE the completion is submitted to management, so any
	// dispatch it enables carries a larger Seq (the causal edge replay
	// and diff rely on).
	if ring != nil {
		ring.Record(trace.KComplete, rec.At(c1), int32(w), int32(j.idx),
			int32(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), dur)
	}
	j.lastTouch.Store(c1)
	// A completion that only joined the worker's local batch cannot have
	// released successor work or finished the job, so parked workers are
	// only woken when the batch was actually applied — without this,
	// every batched completion would broadcast the pool awake during
	// rundown, defeating the point of completion batching.
	if m.Complete(w, task) {
		p.checkFinished(j)
		p.progress()
	}
}

// execTask runs the work function over the task's granules. A nil work
// function is a pure scheduling run.
func execTask(work core.WorkFn, task core.Task) (err error) {
	if work == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("tenant: work panicked in %v: %v", task, r)
		}
	}()
	task.Run.Each(func(g granule.ID) { work(g) })
	return nil
}

// progress records a progress event and wakes parked workers. The
// broadcast is skipped lock-free when nobody waits, so the hot path costs
// one atomic add and one atomic load per task.
func (p *Pool) progress() {
	p.gen.Add(1)
	if p.nWaiting.Load() > 0 {
		// An injected dropped wakeup suppresses exactly this broadcast;
		// the watchdog's periodic re-wake is the recovery path, so the
		// fault is only consumed while the watchdog is armed.
		if p.plan != nil && p.watchOn && p.plan.DropWakeup() {
			if rec := p.cfg.Trace; rec != nil {
				rec.Emit(trace.KFault, rec.Now(), -1, -1, -1, 0, 0, int64(fault.DropWakeup))
			}
			return
		}
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// park parks worker w until progress, unless progress already happened
// since the worker's dry sweep began (gen != g0). It returns true when
// the worker should exit: the pool is closed and every job has finished.
//
// Ordering: nWaiting is published before gen is re-checked, and progress
// bumps gen before reading nWaiting — so either the parker sees the new
// gen and retries, or the producer sees the waiter and broadcasts. The
// broadcast serializes behind mu, which the parker holds until cond.Wait
// releases it, so the wakeup cannot be lost.
func (p *Pool) park(w int, g0 uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed && len(p.active) == 0 && len(p.waitq) == 0 && p.retryWait == 0 {
		p.cond.Broadcast()
		return true
	}
	p.nWaiting.Add(1)
	if p.gen.Load() != g0 {
		p.nWaiting.Add(-1)
		return false
	}
	if int(p.nWaiting.Load()) == p.cfg.Workers && len(p.active) > 0 {
		// Every worker swept every active job dry at a stable gen: all
		// deques are empty and every completion batch was flushed, so an
		// unfinished job with nothing in flight can never make progress —
		// a true stall. Fail those jobs; the pool itself survives.
		for _, j := range append([]*Job(nil), p.active...) {
			m := j.driver()
			if m.InFlight() == 0 {
				err := fmt.Errorf("tenant: job %q stalled at phase %d: all pool workers idle, nothing in flight",
					j.cfg.Name, j.sched.CurrentPhase())
				m.Abort(err)
				if merr := m.Err(); merr == nil {
					// The manager refused the abort: the job's final
					// completion landed (async drain) between the dry
					// sweep and this probe — it finished, it did not
					// stall. Retire it with its results.
					p.finishJobLocked(j, nil)
				} else {
					p.finishJobLocked(j, merr)
					p.stalled++
				}
			}
		}
		p.nWaiting.Add(-1)
		p.cond.Broadcast()
		return false
	}
	i0 := clock.Now()
	if rec := p.cfg.Trace; rec != nil {
		rec.Ring(w).Record(trace.KPark, rec.At(i0), int32(w), -1, -1, 0, 0, 0)
	}
	p.cond.Wait()
	p.nWaiting.Add(-1)
	i1 := clock.Now()
	d := i1 - i0
	p.idleNS.Add(d)
	if p.met != nil {
		p.met.IdleTime.Add(w, d)
	}
	if rec := p.cfg.Trace; rec != nil {
		rec.Ring(w).Record(trace.KUnpark, rec.At(i1), int32(w), -1, -1, 0, 0, d)
	}
	return false
}

// checkFinished retires j when its state machine has completed or its
// manager recorded an error (completion-processing panic, abort). A job
// between attempts is left alone: its current driver is the dead
// attempt's, and the retry owns its fate.
func (p *Pool) checkFinished(j *Job) {
	if j.finished.Load() || j.retrying.Load() {
		return
	}
	m := j.driver()
	err := m.Err()
	if err == nil && !m.Done() {
		return
	}
	p.mu.Lock()
	if j.retrying.Load() {
		p.mu.Unlock()
		return
	}
	p.finishJobLocked(j, err)
	p.mu.Unlock()
}

// finishJobLocked retires j exactly once: records the end time and error,
// removes it from the active set, rebalances homes, and releases waiters.
// Caller holds p.mu.
func (p *Pool) finishJobLocked(j *Job, err error) {
	if j.finished.Load() {
		return
	}
	j.finished.Store(true)
	j.end = time.Now()
	j.err = err
	if j.deadline != nil {
		j.deadline.Stop()
	}
	if rec := p.cfg.Trace; rec != nil {
		k := trace.KFinish
		if err != nil {
			k = trace.KAbort
		}
		rec.Emit(k, rec.Now(), -1, int32(j.idx), -1, 0, 0, 0)
	}
	for i, a := range p.active {
		if a == j {
			p.active = append(p.active[:i], p.active[i+1:]...)
			break
		}
	}
	// The freed slot admits queued jobs in submit order.
	for len(p.waitq) > 0 && (p.cfg.MaxActive <= 0 || len(p.active) < p.cfg.MaxActive) {
		next := p.waitq[0]
		p.waitq = p.waitq[1:]
		p.activateLocked(next)
	}
	if !j.activatedOnce {
		// Retired while still queued (deadline, pool abort): the whole
		// life was queue wait.
		j.queueWaitNS = int64(j.end.Sub(j.submitted))
	}
	if p.met != nil {
		p.met.JobsDone.Inc(0)
		p.met.ActiveJobs.Set(int64(len(p.active)))
		if errors.Is(err, context.DeadlineExceeded) {
			p.met.DeadlineMisses.Inc(0)
		} else if err == nil && j.cfg.Deadline > 0 {
			p.met.DeadlineMargin.Observe(int64(j.cfg.Deadline - j.end.Sub(j.submitted)))
		}
		if j.cfg.Class != "" {
			p.met.Class(j.cfg.Class).Done.Inc(0)
		}
	}
	p.rebalanceLocked()
	close(j.done)
	p.gen.Add(1)
	p.cond.Broadcast()
}
