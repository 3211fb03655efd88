// Package executive runs a core.Scheduler on real goroutines. It is split
// into two layers:
//
//   - the state machine (core.Scheduler, seen through the StateMachine
//     interface) holds every scheduling decision and no synchronization;
//   - a Manager owns all synchronization policy around the state machine
//     and drives it on behalf of a pool of worker goroutines.
//
// Three managers are provided. SerialManager guards every state-machine
// interaction with one global mutex, exactly serializing management the
// way the single UNIVAC executive did — the paper-faithful baseline whose
// lock time is measured as management time. ShardedManager gives each
// worker a bounded local task deque with batched completion submission and
// work stealing between shards, paying the global serialization once per
// batch instead of once per task — the management layer itself made
// parallel, which is what the paper's rundown analysis calls for once the
// executive becomes the bottleneck. AsyncManager moves all management to
// one dedicated background goroutine — the paper's separate executive
// processor realized on hardware: workers pull from a ready-buffer and
// push completions into a lock-free MPSC queue, and never touch the
// state-machine lock at all.
package executive

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/granule"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config parameterizes an executive run.
type Config struct {
	// Workers is the number of worker goroutines (>=1). Under the serial
	// and sharded managers management runs inline on whichever worker
	// needs it, under the manager's locks; the async manager adds one
	// dedicated management goroutine beside the workers (not counted in
	// Workers or in the utilization denominator — the paper's separate
	// executive processor).
	Workers int
	// Manager selects the management layer (SerialManager default).
	Manager ManagerKind
	// DequeCap bounds each worker's local task deque and sets the refill
	// batch size (ShardedManager only). <=0 selects 16.
	DequeCap int
	// Batch is the completion batch size: completions accumulate per
	// worker and are submitted to the state machine in one lock
	// acquisition when the batch fills (ShardedManager), or set the
	// management goroutine's per-CompleteBatch drain chunk
	// (AsyncManager). <=0 selects 8.
	Batch int
	// ReadyCap bounds the async manager's shared ready-buffer — the
	// channel of dispatched tasks the management goroutine keeps topped
	// up (AsyncManager only). <=0 selects 2*Workers (minimum 8), the
	// paper's two-tasks-per-processor outset condition applied to the
	// buffer.
	ReadyCap int
	// LowWater is the ready-buffer level above which the async
	// management goroutine overlaps deferred management with computation
	// (AsyncManager only). <=0 selects ReadyCap/4 (minimum 1).
	LowWater int
	// Adaptive enables the adaptive batching controller (ShardedManager
	// only): DequeCap and Batch become starting values retuned online
	// from the observed management and idle shares each refill epoch.
	// Run and the tenant pool set it from core.Options.AdaptiveBatch.
	Adaptive bool
	// MgmtTarget is the adaptive controller's lock-overhead-share
	// setpoint; <= 0 selects 0.02. Ignored unless Adaptive.
	MgmtTarget float64
	// Observer, when non-nil, receives periodic Snapshots sampled on a
	// dedicated goroutine while the run is live, plus one Final snapshot
	// after the workers exit — built from the finished Report on
	// success, from the counters accumulated so far on failure or
	// cancellation. The callback must not block for long — it delays
	// only the sampler, not the workers, but a stuck callback delays run
	// teardown.
	Observer func(Snapshot)
	// ObservePeriod is the sampling period; <= 0 selects 10ms. Ignored
	// without Observer.
	ObservePeriod time.Duration
	// Trace, when non-nil, flight-records every scheduling decision the
	// run makes — dispatch/complete per task (wall-clock nanoseconds
	// since the recorder's start), steal attempts/wins/losses and
	// park/unpark from the managers, controller retunes, aborts. Workers
	// record into per-worker rings with no synchronization; the caller
	// merges with Recorder.Take after the run returns.
	Trace *trace.Recorder
	// Faults, when non-nil, compiles a deterministic fault-injection
	// campaign for this run (see internal/fault and faults.go): the same
	// Spec the simulator prices in virtual time, with Rule.After read as
	// wall-clock nanoseconds since run start and delays bounded by
	// fault.Sleep. The injection-off fast path is one nil check per task.
	Faults *fault.Spec
	// Metrics, when non-nil, is the telemetry set the run records into:
	// per-worker counters (dispatches, completions, steals), latency
	// histograms (dispatch wait), and the time-share gauges behind the
	// registry's Prometheus/expvar exposition. All durations are
	// wall-clock nanoseconds. The run always keeps its core counters in a
	// metric set (a private one when this is nil); a caller-provided set
	// additionally turns on the fine-grained latency histograms, which
	// cost up to two monotonic clock readings per dispatch (one when the
	// flight recorder already reads the dispatch boundary).
	Metrics *telemetry.Set
}

// Report aggregates a run's measurements.
type Report struct {
	// Manager identifies the management layer that produced the run.
	Manager ManagerKind `json:"manager"`
	// Wall is the elapsed wall-clock time of the run.
	Wall time.Duration `json:"wall_ns"`
	// Compute is the summed time workers spent executing granule work.
	Compute time.Duration `json:"compute_ns"`
	// Mgmt is the summed time spent inside manager-serialized scheduler
	// calls (dispatch, completion processing, deferred management).
	Mgmt time.Duration `json:"mgmt_ns"`
	// Idle is the summed time workers spent parked waiting for work.
	Idle time.Duration `json:"idle_ns"`
	// Tasks is the number of tasks executed.
	Tasks int64 `json:"tasks"`
	// MgmtRatio is Compute/Mgmt — the paper's computation-to-management
	// ratio (0 when Mgmt is 0).
	MgmtRatio float64 `json:"mgmt_ratio"`
	// Utilization is Compute / (Workers * Wall).
	Utilization float64 `json:"utilization"`
	// Sched holds the scheduler's operation counts.
	Sched core.Stats `json:"sched"`
}

func (r *Report) String() string {
	return fmt.Sprintf("manager=%v wall=%v compute=%v mgmt=%v idle=%v tasks=%d ratio=%.1f util=%.3f",
		r.Manager, r.Wall, r.Compute, r.Mgmt, r.Idle, r.Tasks, r.MgmtRatio, r.Utilization)
}

// Run executes prog on cfg.Workers goroutines with scheduler options opt
// under the configured manager. It returns when every phase has completed.
func Run(prog *core.Program, opt core.Options, cfg Config) (*Report, error) {
	return RunContext(context.Background(), prog, opt, cfg)
}

// RunContext is Run with cooperative cancellation: when ctx is cancelled
// the run aborts at the next dispatch boundary — workers finish the task
// in hand, parked workers are released, any dedicated management
// goroutine is joined — and the error wraps ctx.Err() (test with
// errors.Is). Teardown leaks no goroutines. A nil ctx behaves like
// context.Background().
func RunContext(ctx context.Context, prog *core.Program, opt core.Options, cfg Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// failEarly keeps the observer contract — one Final snapshot on
	// every outcome — for runs that die before starting: the stream
	// opens and closes with a single bare Final.
	failEarly := func(err error) (*Report, error) {
		if cfg.Observer != nil {
			cfg.Observer(Snapshot{Final: true})
		}
		return nil, err
	}
	// An already-cancelled context aborts deterministically before any
	// work: relying on the watcher goroutine alone would let a short
	// program finish before the watcher is ever scheduled.
	if err := ctx.Err(); err != nil {
		return failEarly(fmt.Errorf("executive: run canceled: %w", err))
	}
	if cfg.Workers < 1 {
		return failEarly(fmt.Errorf("executive: need at least 1 worker"))
	}
	if opt.Workers <= 0 {
		opt.Workers = cfg.Workers
	}
	if opt.AdaptiveBatch {
		cfg.Adaptive = true
		if cfg.MgmtTarget <= 0 {
			cfg.MgmtTarget = opt.MgmtTarget
		}
	}
	sched, err := core.New(prog, opt)
	if err != nil {
		return failEarly(err)
	}
	// The engine's task/compute accounting lives in a telemetry set either
	// way — sharded per-worker counters contend less than the shared
	// atomics they replace. A caller-provided set additionally enables the
	// fine-grained latency histograms (extra clock readings per dispatch)
	// and is what the registry exposes over Prometheus/expvar.
	fine := cfg.Metrics != nil
	met := cfg.Metrics
	if met == nil {
		met = telemetry.NewSet(telemetry.NewRegistry(cfg.Workers, "ns"))
	}
	cfg.Metrics = met // managers record steal/retune counters into the same set
	mgr, err := newManager(sched, cfg)
	if err != nil {
		return failEarly(err)
	}

	e := &engine{mgr: mgr, prog: prog, rec: cfg.Trace, met: met, fine: fine}
	if cfg.Faults != nil {
		e.plan = fault.New(*cfg.Faults)
		e.live.Store(int64(cfg.Workers))
	}
	if rec := cfg.Trace; rec != nil {
		m := rec.Meta()
		if m.Backend == "" {
			m.Backend = "exec"
		}
		m.Manager = cfg.Manager.String()
		m.Workers = cfg.Workers
		m.TimeUnit = trace.UnitNanos
		if len(m.Phases) == 0 {
			for _, ph := range prog.Phases {
				m.Phases = append(m.Phases, trace.PhaseMeta{Name: ph.Name, Granules: ph.Granules})
			}
		}
		rec.Emit(trace.KStart, rec.Now(), -1, 0, -1, 0, 0, 0)
	}

	e.start = clock.Now()
	mgr.Start()
	// Lifecycle metrics mirror the simulator's dump shape: one job,
	// admitted immediately (the plain executive has no admission queue).
	met.JobsSubmitted.Inc(0)
	met.ActiveJobs.Add(1)
	met.QueueWait.Observe(0)

	// Cancellation watcher: ctx firing aborts the manager, which releases
	// parked workers and makes every subsequent Next return ok=false. The
	// watcher is joined before RunContext returns so teardown is
	// goroutine-leak-free.
	stopWatch := WatchCancel(ctx, func(err error) {
		mgr.Abort(fmt.Errorf("executive: run canceled: %w", err))
	})

	var smp *Sampler
	if cfg.Observer != nil {
		smp = StartSampler(cfg.ObservePeriod, func() {
			cfg.Observer(e.liveSnapshot(cfg.Workers))
		})
	}

	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func(w int) {
			defer wg.Done()
			// The pprof label makes per-worker attribution visible in CPU
			// and goroutine profiles (profile → rundown_worker=N), tying
			// profile samples to the same worker index the metric shards
			// and trace rings use.
			pprof.Do(ctx, pprof.Labels("rundown_worker", strconv.Itoa(w)),
				func(context.Context) { e.worker(w) })
		}(w)
	}
	wg.Wait()
	// A manager with its own management goroutine (async) may still be
	// driving the state machine for a moment after the workers exit; join
	// it before reading the final statistics.
	if j, ok := mgr.(Joiner); ok {
		j.Join()
	}
	stopWatch()
	smp.Stop()

	if err := mgr.Err(); err != nil {
		// The observer contract promises a closing Final snapshot on
		// every outcome: a failed or cancelled run closes the stream with
		// the counters accumulated so far. (The manager recorded its own
		// KAbort at the failure point.)
		e.closeMetrics()
		if cfg.Observer != nil {
			final := e.liveSnapshot(cfg.Workers)
			final.Final = true
			cfg.Observer(final)
		}
		return nil, err
	}

	wall := clock.Since(e.start)
	if rec := cfg.Trace; rec != nil {
		rec.Emit(trace.KFinish, rec.Now(), -1, 0, -1, 0, 0, 0)
	}
	e.closeMetrics()
	rep := &Report{
		Manager: cfg.Manager,
		Wall:    wall,
		Compute: time.Duration(met.ComputeTime.Value()),
		Mgmt:    mgr.Mgmt(),
		Idle:    mgr.Idle(),
		Tasks:   met.Completions.Value(),
		Sched:   sched.Stats(),
	}
	if rep.Mgmt > 0 {
		rep.MgmtRatio = float64(rep.Compute) / float64(rep.Mgmt)
	}
	var overhead float64
	rep.Utilization, overhead = telemetry.Shares(
		int64(rep.Compute), int64(rep.Mgmt), cfg.Workers, int64(wall))
	if cfg.Observer != nil {
		final := Snapshot{
			Elapsed: wall, Tasks: rep.Tasks,
			Compute: rep.Compute, Mgmt: rep.Mgmt, Idle: rep.Idle,
			Utilization: rep.Utilization, OverheadShare: overhead,
			Final: true, Done: true,
		}
		cfg.Observer(final)
	}
	return rep, nil
}

// engine is the manager-agnostic worker pool: it executes work functions
// and reports the results; every scheduling decision and all
// synchronization live behind the Manager.
type engine struct {
	mgr  Manager
	prog *core.Program
	rec  *trace.Recorder // flight recorder (nil = tracing off)

	// plan is the compiled fault-injection campaign (nil = injection
	// off); start is the run's clock reading at Start, anchoring the
	// report's Wall and Rule.After offsets, and live is the WorkerCrash
	// floor — the last live worker refuses to crash.
	plan  *fault.Plan
	start int64
	live  atomic.Int64

	// met holds the run's counters (always non-nil: a private registry
	// when the caller configured none) on padded per-worker shards; fine
	// additionally enables the latency histograms, which need a clock
	// reading before every Next call.
	met  *telemetry.Set
	fine bool

	// mgmtSeen/idleSeen are the manager accumulator values already
	// mirrored into the metric set. Touched only by the sampler goroutine
	// and, after the sampler is joined, the finishing RunContext — never
	// concurrently.
	mgmtSeen int64
	idleSeen int64
}

// syncTimes mirrors the manager's management/idle accumulators into the
// metric counters as deltas, so mid-run scrapes of the registry see the
// same time shares the Report totals at the end.
func (e *engine) syncTimes() {
	if mg := int64(e.mgr.Mgmt()); mg > e.mgmtSeen {
		e.met.MgmtTime.Add(0, mg-e.mgmtSeen)
		e.mgmtSeen = mg
	}
	if id := int64(e.mgr.Idle()); id > e.idleSeen {
		e.met.IdleTime.Add(0, id-e.idleSeen)
		e.idleSeen = id
	}
}

// closeMetrics settles the run's lifecycle metrics on any outcome: the
// final management/idle mirror and the job-level counters.
func (e *engine) closeMetrics() {
	e.syncTimes()
	e.met.JobsDone.Inc(0)
	e.met.ActiveJobs.Add(-1)
}

// worker is the goroutine body: ask the manager for work, execute it,
// report completion; exit when the manager says the run is over. With
// tracing on, this one manager-agnostic loop records every task's
// dispatch and completion into the worker's private ring; the
// tracing-off fast path is a single nil check per task.
func (e *engine) worker(w int) {
	var ring *trace.Ring
	if e.rec != nil {
		ring = e.rec.Ring(w)
	}
	for {
		var a0 int64
		if e.fine {
			a0 = clock.Now()
		}
		task, ok := e.mgr.Next(w)
		if !ok {
			return
		}
		// a1 is the dispatch boundary: it ends the dispatch-wait interval
		// and stamps the KDispatch record, one reading for both.
		var a1 int64
		if e.fine || ring != nil {
			a1 = clock.Now()
		}
		if e.fine {
			// On the real backends the dispatch wait is the whole Next call
			// — queue pop, lock wait, steal sweep, park — the honest answer
			// to "how long did this worker wait for its next task".
			e.met.DispatchWait.Observe(a1 - a0)
		}
		e.met.Dispatches.Inc(w)
		if ring != nil {
			ring.Record(trace.KDispatch, e.rec.At(a1), int32(w), 0,
				int32(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), 0)
		}
		work := e.prog.Phases[task.Phase].Work

		var tf taskFaults
		if e.plan != nil {
			e.injectTask(w, task, &work, &tf)
			if tf.err != nil {
				e.mgr.Abort(tf.err)
				return
			}
		}

		c0 := clock.Now()
		workErr := e.execute(work, task)
		if workErr == nil && tf.factor > 1 {
			stretchCompute(clock.Since(c0), tf.factor)
		}
		// c1 ends the compute interval and stamps the KComplete record.
		c1 := clock.Now()
		dur := c1 - c0

		if workErr != nil {
			e.mgr.Abort(workErr)
			return
		}
		if e.plan != nil {
			e.beforeComplete(w, &tf)
			// A withheld or delayed completion is stamped when it is
			// finally submitted, after the fault records it caused.
			c1 = clock.Now()
		}
		e.met.ComputeTime.Add(w, dur)
		e.met.Completions.Inc(w)
		// Recorded BEFORE the completion is submitted to management, so
		// any dispatch it enables carries a larger Seq (the causal edge
		// replay and diff rely on).
		if ring != nil {
			ring.Record(trace.KComplete, e.rec.At(c1), int32(w), 0,
				int32(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), dur)
		}
		e.mgr.Complete(w, task)
		if e.plan != nil && e.maybeCrash(w) {
			return
		}
	}
}

// execute runs the work function over the task's granules (outside any
// manager lock). A nil work function is a pure scheduling run. Panics in
// user work are captured and surfaced as run errors rather than tearing
// down the whole process.
func (e *engine) execute(work core.WorkFn, task core.Task) (err error) {
	if work == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("executive: work panicked in %v: %v", task, r)
		}
	}()
	task.Run.Each(func(g granule.ID) { work(g) })
	return nil
}
