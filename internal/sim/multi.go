package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrUnsupportedMgmt reports a management model a simulation mode cannot
// price. Errors wrapping it name the rejected model and the supported
// alternatives; test with errors.Is.
var ErrUnsupportedMgmt = errors.New("sim: unsupported management model")

// This file is the engine: one or more jobs, each with its own
// core.Scheduler, sharing one P-processor machine in virtual time — the
// discrete-event analogue of internal/tenant's worker pool. Every
// management probe (including a failed ask at a foreign job) is charged
// to the executive resource under the configured management model, and
// the dispatch policy mirrors the pool exactly: a worker serves its home
// job while anything there is dispatchable, and backfills the other jobs
// — priority first, then deficit-round-robin credit — only during its
// home job's rundown. A job run alone (Run, RunJob) owns every worker and
// never backfills.

// mdrrQuantum matches the tenant pool's deficit-round-robin quantum.
const mdrrQuantum = 64

// JobSpec describes one job of a multi-program run.
type JobSpec struct {
	// Name labels the job in results ("jobN" default).
	Name string
	// Prog is the job's program.
	Prog *core.Program
	// Opt configures the job's scheduler.
	Opt core.Options
	// Priority orders backfill (higher first), as in tenant.JobConfig.
	Priority int
	// Weight is the job's share of home workers and backfill credit
	// (<= 0 selects 1).
	Weight int
	// Deadline is the job's virtual-time budget (<= 0 = none): a job not
	// done by t=Deadline is aborted AT the deadline with an error
	// wrapping context.DeadlineExceeded; co-tenants keep running.
	Deadline int64
	// Retry is how many times an injected grain failure (panic or error)
	// restarts the job on a fresh scheduler. Deadline aborts never
	// retry.
	Retry int
	// Backoff is the base restart delay in virtual units, doubled on
	// each further attempt and capped at 64× base (0 = restart
	// immediately).
	Backoff int64
}

// JobResult aggregates one job's outcome within a multi-program run.
type JobResult struct {
	Name string
	// Makespan is the virtual time the job's last completion finished
	// processing (all jobs start at t=0).
	Makespan int64
	// ComputeUnits is the job's total granule execution time.
	ComputeUnits int64
	// BackfillUnits is the part of ComputeUnits performed by processors
	// homed on another job — the rundown fill the job received.
	BackfillUnits int64
	// HomeWorkers is the job's home-worker share at the start of the run.
	HomeWorkers int
	// Sched is the job's scheduler statistics.
	Sched core.Stats
	// Err is the job's terminal error (nil = completed): an injected
	// failure that exhausted its retries, or a deadline abort (test with
	// errors.Is(err, context.DeadlineExceeded)). A failed job's Makespan
	// is the time it was retired.
	Err error
	// Attempts counts schedule attempts (1 = never retried).
	Attempts int
	// SerialUnits is the executive time the job spent in between-phase
	// serial actions.
	SerialUnits int64
	// Phases is the job's rundown ledger, one entry per program phase,
	// accumulated over every attempt.
	Phases []PhaseTrace
}

// MultiResult aggregates a multi-program run.
type MultiResult struct {
	// Makespan is the virtual completion time of the last job.
	Makespan int64
	// ComputeUnits, MgmtUnits and IdleUnits aggregate across jobs.
	ComputeUnits int64
	MgmtUnits    int64
	IdleUnits    int64
	// BackfillUnits is total cross-job compute (every job's backfill).
	BackfillUnits int64
	// Workers is the number of processors that executed granules; Procs
	// is the machine size P.
	Workers int
	Procs   int
	// Utilization is ComputeUnits / (Procs * Makespan).
	Utilization float64
	// Batch is the pool-wide refill batch size at the end of the run
	// (Adaptive model only; see Result.Batch). Zero under other models.
	Batch int
	// BatchChanges counts the pool-wide adaptive controller's parameter
	// changes (Adaptive model with Options.AdaptiveBatch on any job).
	BatchChanges int
	// Faults counts injected fault firings (Config.Faults); Retries
	// counts job restarts.
	Faults  int64
	Retries int64
	// MaxBackfillTask is the largest backfill dispatch in granules — the
	// measured bound Config.PreemptBound caps.
	MaxBackfillTask int
	// Jobs holds the per-job results in submission order.
	Jobs []JobResult
	// Timeline is the run's bucketed utilization recorder: every
	// processor's compute and the management resource's busy time.
	Timeline *metrics.Timeline `json:"-"`
	// Gantt is non-nil when Config.Gantt was set.
	Gantt *metrics.Gantt `json:"-"`
}

// mjob is one job's runtime state.
type mjob struct {
	spec    JobSpec
	sched   *core.Scheduler
	deficit int64
	done    bool
	// phases is the job's rundown ledger (see PhaseTrace).
	phases []PhaseTrace
	// ready and hasDef cache sched.ReadyTasks() and sched.HasDeferred(),
	// refreshed by mstate.syncReady after every scheduler call, so wake
	// and the idle-absorption probe read counters instead of re-querying
	// every job per event.
	ready  int
	hasDef bool
	// openAt gates dispatch: a serial action between phases (charged
	// inside the completion that advanced the phase window) must finish
	// before the next phase's queued granules may be handed out. A wake
	// carries the serial's finish time, but a worker can also ask inside
	// the serial window (another job's event woke it, or its own reopen
	// retry), so the gate must be explicit.
	openAt int64

	makespan int64
	compute  int64
	backfill int64
	homeAt0  int

	// Failure state (see faults.go): the resolved options retries
	// re-create the scheduler from, the attempt generation completion
	// events must match to be believed (a failure bumps it, orphaning the
	// dead attempt's in-flight work), the attempt count, the remaining
	// retry budget, and the terminal error.
	opt         core.Options
	attempt     int64
	attempts    int
	retriesLeft int
	err         error

	// Async model state: the job's slice of the shared dedicated server's
	// ready buffer (tasks already pulled from this job's scheduler, each
	// stamped with its production time), the completions queued behind the
	// server, and the NextTasks scratch. See multi_async.go.
	aready []asyncSlot
	acomp  []core.Task
	abuf   []core.Task
}

// mitem is one queue entry: a task completion (isDone) or an idle
// worker's ask for work. The queue is strictly TIME-ordered (insertion
// order only breaks ties), so the management server serves requests
// first come, first served in virtual time: a future-stamped ask never
// overtakes an earlier completion, and one job's serial-action delay
// cannot commit workers before another job's earlier release gets a
// chance to claim them.
//
// Asks carry the issuing generation of their worker: a parked worker
// woken for time T can be re-woken for an earlier T' by another job's
// release, and the superseded ask must then die when it surfaces.
// Completions carry their job's ATTEMPT generation instead: a job
// failure bumps it, and the dead attempt's in-flight completions are
// dropped when they surface (the worker is freed, the result
// discarded).
type mitem struct {
	at     int64
	seq    int64
	isDone bool
	proc   int
	gen    int64
	job    int
	task   core.Task
	dur    int64 // completed task's compute cost (isDone only)
	fail   error // injected grain failure carried by this completion
}

// The queue holding mitems is the typed 4-ary mqueue in heap.go, ordered
// by (at, asks-before-completions, seq).

// SupportsMulti reports whether RunMulti can price model — the static
// form of the ErrUnsupportedMgmt check, so a caller can discover a
// rejection before building jobs and running. Every current model is
// supported: the Async model keeps per-job ready buffers on the shared
// dedicated server (an ask pops the asker's candidate buffers in
// dispatch-policy order, so cross-job backfill never strands a buffered
// task), and the Adaptive model tags each worker's batch shard with the
// job it was refilled from, flushing the shard's completion batch before
// the worker may switch jobs. RunMulti's own gate is derived from this
// predicate, so capability and behaviour cannot drift apart.
func SupportsMulti(m MgmtModel) bool {
	switch m {
	case StealsWorker, Dedicated, Sharded, Adaptive, Async:
		return true
	}
	return false
}

// RunMulti simulates jobs sharing one machine under cfg. All jobs start
// at t=0. Mgmt selects any management model (SupportsMulti reports the
// accepted set). Under Adaptive, Config.Batch and Options.AdaptiveBatch
// govern one pool-wide controller; under Async, Config.ReadyCap and
// Config.LowWater size each job's slice of the dedicated server's ready
// buffer. A job's failure lands in its JobResult.Err, not in the
// returned error, which reports only run-level failures (bad
// configuration, cancellation, the runaway guard).
func RunMulti(jobs []JobSpec, cfg Config) (*MultiResult, error) {
	return RunMultiContext(context.Background(), jobs, cfg)
}

// RunMultiContext is RunMulti with cooperative cancellation: the event
// loop checks ctx between management operations and a cancelled run
// returns an error wrapping ctx.Err() (test with errors.Is). A nil ctx
// behaves like context.Background().
func RunMultiContext(ctx context.Context, jobs []JobSpec, cfg Config) (*MultiResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// failEarly keeps the observer contract — one Final snapshot on
	// every outcome — for runs that die before starting.
	failEarly := func(err error) (*MultiResult, error) {
		if cfg.Observer != nil {
			cfg.Observer(Snapshot{Final: true})
		}
		return nil, err
	}
	if len(jobs) == 0 {
		return failEarly(fmt.Errorf("sim: RunMulti needs at least one job"))
	}
	if cfg.Procs < 1 {
		return failEarly(fmt.Errorf("sim: need at least 1 processor"))
	}
	if !SupportsMulti(cfg.Mgmt) {
		// Unreachable for the known models (SupportsMulti accepts them
		// all); this keeps an unknown or future model from being mispriced
		// silently.
		return failEarly(fmt.Errorf("%w: the %v model has no multi-program pricing",
			ErrUnsupportedMgmt, cfg.Mgmt))
	}
	workers := cfg.Procs
	if cfg.Mgmt == StealsWorker {
		workers = cfg.Procs - 1
		if workers < 1 {
			return failEarly(fmt.Errorf("sim: StealsWorker model needs at least 2 processors"))
		}
	}

	s := &mstate{
		ctx:        ctx,
		model:      cfg.Mgmt,
		workers:    workers,
		procs:      cfg.Procs,
		homes:      make([]int, workers),
		parked:     make([]bool, workers),
		parkedB:    newParkedSet(workers),
		parkedAt:   make([]int64, workers),
		pendingAt:  make([]int64, workers),
		askGen:     make([]int64, workers),
		workerFree: make([]int64, workers),
		orderDirty: true,
	}
	s.queue.init(workers)
	var totalGranules, totalCost int64
	for i := range jobs {
		spec := jobs[i]
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("job%d", i)
		}
		if spec.Weight <= 0 {
			spec.Weight = 1
		}
		opt := spec.Opt
		if opt.Workers <= 0 {
			opt.Workers = workers
		}
		opt = capGrain(spec.Prog, opt, cfg.PreemptBound)
		sched, err := core.New(spec.Prog, opt)
		if err != nil {
			return failEarly(fmt.Errorf("sim: job %q: %w", spec.Name, err))
		}
		phases := make([]PhaseTrace, len(spec.Prog.Phases))
		for k, ph := range spec.Prog.Phases {
			phases[k] = PhaseTrace{Name: ph.Name, Start: -1, End: -1, RundownStart: -1}
		}
		s.jobs = append(s.jobs, &mjob{
			spec: spec, sched: sched, phases: phases,
			opt: opt, attempts: 1, retriesLeft: spec.Retry,
		})
		if spec.Deadline > 0 {
			s.hasDeadline = true
		}
		totalGranules += int64(spec.Prog.TotalGranules())
		totalCost += int64(spec.Prog.TotalCost())
	}
	s.liveCount = len(s.jobs)
	s.order = make([]int, 0, len(s.jobs))
	s.cand = make([]int, 0, len(s.jobs))
	bucket := cfg.BucketWidth
	if bucket <= 0 {
		// Roughly 200 buckets over a makespan estimate.
		bucket = (totalCost/int64(workers) + 1) / 200
	}
	s.tl = metrics.NewTimeline(cfg.Procs, bucket)
	if cfg.Gantt {
		s.gantt = metrics.NewGantt(cfg.Procs)
	}
	s.obs = newObserver(cfg.Observer, cfg.ObserveEvery, totalCost, workers)
	if s.obs != nil {
		s.nowFn = s.frontier
		s.snapFn = s.snapshot
	}
	if cfg.Trace != nil {
		s.tr = bindTrace(cfg.Trace, cfg.Mgmt, workers, s.jobs[0].spec.Prog)
		for ji, j := range s.jobs {
			cfg.Trace.SetJob(ji, j.spec.Name)
		}
	}
	s.met = cfg.Metrics
	if cfg.Mgmt == Async {
		s.masyncInit(cfg)
	}
	if cfg.Mgmt == Adaptive {
		s.madaptiveInit(cfg, totalCost)
		if s.met != nil {
			s.met.BatchSize.Set(int64(s.batchN))
		}
	}
	if cfg.Faults != nil {
		s.plan = fault.New(*cfg.Faults)
	}
	s.crashed = make([]bool, workers)
	s.livew = workers

	maxOps := cfg.MaxOps
	if maxOps <= 0 {
		maxOps = totalGranules*64 + int64(workers)*1024 + 1_000_000
	}
	if err := s.run(maxOps); err != nil {
		// Close the observer stream on failure too, with the counters
		// accumulated so far; the trace closes with an abort record.
		if s.tr != nil {
			s.tr.Record(trace.KAbort, s.frontier(), -1, -1, -1, 0, 0, 0)
		}
		s.finishMetrics()
		s.obs.final(s.snapshot(s.frontier()))
		return nil, err
	}
	res := s.result()
	if s.tr != nil {
		s.tr.Record(trace.KFinish, res.Makespan, -1, -1, -1, 0, 0, 0)
	}
	s.finishMetrics()
	s.obs.final(s.snapshot(res.Makespan))
	return res, nil
}

type mstate struct {
	ctx     context.Context
	jobs    []*mjob
	model   MgmtModel
	workers int
	procs   int
	obs     *observer
	tr      *trace.Ring    // flight recorder (nil = tracing off)
	met     *telemetry.Set // metric set (nil = metrics off)
	tl      *metrics.Timeline
	gantt   *metrics.Gantt // nil unless Config.Gantt

	queue      mqueue
	seq        int64
	serverFree int64
	workerFree []int64

	homes     []int // worker -> job index; -1 when every job is done
	parked    []bool
	parkedB   parkedSet // same membership as parked, for sparse wake scans
	parkedN   int
	parkedAt  []int64
	pendingAt []int64 // scheduled wake time of a parked worker; -1 = none
	askGen    []int64 // bumps when a pending ask is superseded

	// Incremental candidate machinery. order caches the live jobs sorted
	// by the backfill comparator (priority desc, deficit desc, index asc);
	// it is rebuilt only when orderDirty — set by any deficit, done-bit,
	// or replenishment change — so the common ask reuses the cached order.
	// cand is the per-ask scratch (home first, then order minus home).
	// liveCount/creditCount make the deficit-replenishment check O(1):
	// creditCount counts live jobs with deficit > 0, and the backfill
	// set's credit for a given asker is creditCount minus its home's
	// contribution.
	order       []int
	cand        []int
	orderDirty  bool
	liveCount   int
	creditCount int

	// readyTotal sums the jobs' cached ready counts; deferredN counts live
	// jobs with cached deferred work. Both are maintained by syncReady so
	// wake and the idle-absorption probe stop scanning every job.
	readyTotal int
	deferredN  int

	// Async model state: per-job ready-buffer knobs and the pool-wide
	// buffered-task count (wake's extra availability). See multi_async.go.
	readyCap  int
	lowWater  int
	bufferedN int

	// Adaptive model state: per-worker job-tagged shards, the shared batch
	// knobs, the per-visit Acquire accounting, and one pool-wide controller
	// with its epoch snapshots and hoarded-idle integral. See
	// multi_adaptive.go.
	mab          []mshard
	batchN       int
	cbatchN      int
	acquireUnits int64
	tuner        *executive.Tuner
	epochLen     int64
	lastObsAt    int64
	lastObsAcq   int64
	lastObsHI    int64
	hoardNow     int
	hiInt        int64
	hiAt         int64

	// front caches frontier()'s running maximum — lastDone and the job
	// makespans are monotone, so the max never has to be rescanned.
	front int64

	// Pre-bound observer thunks (see observer.maybe).
	nowFn  func() int64
	snapFn func(at int64) Snapshot

	idleUnits    int64
	computeUnits int64
	doneUnits    int64 // compute of tasks whose completion event was served
	mgmtUnits    int64
	lastDone     int64

	// Fault injection and tenancy state (see faults.go): the compiled
	// campaign (nil = off), retired workers and the live floor, whether
	// any job carries a deadline, the retry count, and the measured
	// PreemptBound bound.
	plan            *fault.Plan
	crashed         []bool
	livew           int
	hasDeadline     bool
	retries         int64
	maxBackfillTask int
}

// syncReady refreshes job j's cached ready/deferred state and the global
// readyTotal/deferredN counters. Call after every scheduler call that can
// change them (Start, NextTask, Complete, DeferredMgmt) — and after the
// done bit flips, which zeroes the job's contribution.
func (s *mstate) syncReady(j *mjob) {
	r := 0
	d := false
	if !j.done {
		r = j.sched.ReadyTasks()
		d = j.sched.HasDeferred()
	}
	s.readyTotal += r - j.ready
	j.ready = r
	if d != j.hasDef {
		if d {
			s.deferredN++
		} else {
			s.deferredN--
		}
		j.hasDef = d
	}
}

// chargeMgmt charges cost units of executive time for a request involving
// worker w: on the serial management server under the serial models, or —
// under the Sharded model — inline on the worker's own lane, so management
// from different processors proceeds concurrently. Requests with no worker
// (w < 0) always serialize.
func (s *mstate) chargeMgmt(w int, at int64, cost core.Cost) int64 {
	if s.model != Sharded || w < 0 {
		return s.serve(at, cost)
	}
	start := at
	if s.workerFree[w] > start {
		start = s.workerFree[w]
	}
	fin := start + int64(cost)
	if cost > 0 {
		s.tl.AddMgmt(start, fin)
		s.mgmtUnits += int64(cost)
	}
	s.workerFree[w] = fin
	// The serialized lane (phase activation, deferred idle-time work)
	// must never lag the management frontier: without this, deferred
	// composite-map builds would be charged in the past — overlapping
	// work that already happened.
	if fin > s.serverFree {
		s.serverFree = fin
	}
	return fin
}

// serve charges cost units of executive time on the serial management
// server starting no earlier than at, records them, and returns the
// finish time.
func (s *mstate) serve(at int64, cost core.Cost) int64 {
	start := at
	if s.serverFree > start {
		start = s.serverFree
	}
	fin := start + int64(cost)
	if cost > 0 {
		s.tl.AddMgmt(start, fin)
		s.mgmtUnits += int64(cost)
	}
	s.serverFree = fin
	return fin
}

// rebalance assigns home workers over the unfinished jobs by weighted
// largest-remainder, leftovers to the highest (priority, remainder,
// index) — the tenant pool's policy in virtual time.
func (s *mstate) rebalance() {
	live := make([]int, 0, len(s.jobs))
	total := 0
	for i, j := range s.jobs {
		if !j.done {
			live = append(live, i)
			total += j.spec.Weight
		}
	}
	if len(live) == 0 {
		for w := range s.homes {
			s.homes[w] = -1
		}
		return
	}
	n := len(live)
	shares := make([]int, n)
	rems := make([]int, n)
	assigned := 0
	for k, ji := range live {
		exact := s.workers * s.jobs[ji].spec.Weight
		shares[k] = exact / total
		rems[k] = exact % total
		assigned += shares[k]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ja, jb := s.jobs[live[a]], s.jobs[live[b]]
		if c := cmp.Compare(jb.spec.Priority, ja.spec.Priority); c != 0 {
			return c
		}
		return cmp.Compare(rems[b], rems[a])
	})
	for i := 0; assigned < s.workers; i = (i + 1) % n {
		shares[order[i]]++
		assigned++
	}
	slot := 0
	for k, ji := range live {
		for c := 0; c < shares[k]; c++ {
			s.homes[slot] = ji
			slot++
		}
	}
}

// rebuildOrder recomputes the cached live-job order by the backfill
// comparator. The comparator is a strict total order (the index breaks
// every tie), so the globally sorted list with a given asker's home
// skipped is exactly what sorting that asker's backfill set would have
// produced — one shared cache serves every worker.
func (s *mstate) rebuildOrder() {
	s.order = s.order[:0]
	for i, j := range s.jobs {
		if !j.done {
			s.order = append(s.order, i)
		}
	}
	slices.SortStableFunc(s.order, func(a, b int) int {
		ja, jb := s.jobs[a], s.jobs[b]
		if c := cmp.Compare(jb.spec.Priority, ja.spec.Priority); c != 0 {
			return c
		}
		if c := cmp.Compare(jb.deficit, ja.deficit); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	s.orderDirty = false
}

// noteDeficit applies a deficit change to job j, keeping creditCount (live
// jobs with positive deficit) exact and invalidating the cached order.
func (s *mstate) noteDeficit(j *mjob, delta int64) {
	was := j.deficit > 0
	j.deficit += delta
	if now := j.deficit > 0; now != was && !j.done {
		if now {
			s.creditCount++
		} else {
			s.creditCount--
		}
	}
	s.orderDirty = true
}

// candidates returns the job order worker w asks for work in: home first,
// then the backfill candidates by (priority, deficit, index), with the
// deficit-round-robin credit replenished when collectively exhausted.
// The replenishment check is O(1): the asker's backfill set is the live
// jobs minus its home, so its size and credit are the global counters
// minus the home's contribution. Replenishment itself (and any other
// deficit or done-bit change) marks the cached order dirty; everything
// else reuses it, and the returned slice is a reused scratch valid until
// the next call.
func (s *mstate) candidates(w int) []int {
	home := s.homes[w]
	homeLive := home >= 0 && !s.jobs[home].done
	nBackfill := s.liveCount
	credit := s.creditCount
	if homeLive {
		nBackfill--
		if s.jobs[home].deficit > 0 {
			credit--
		}
	}
	if nBackfill > 0 && credit == 0 {
		for _, j := range s.jobs {
			if !j.done {
				s.noteDeficit(j, int64(j.spec.Weight)*mdrrQuantum)
			}
		}
	}
	if s.orderDirty {
		s.rebuildOrder()
	}
	out := s.cand[:0]
	if homeLive {
		out = append(out, home)
	}
	for _, ji := range s.order {
		if ji != home {
			out = append(out, ji)
		}
	}
	s.cand = out
	return out
}

// homePhase returns worker w's home job's current phase ledger entry,
// or nil when the worker has no live home or the job is past its last
// phase.
func (s *mstate) homePhase(w int) *PhaseTrace {
	h := s.homes[w]
	if h < 0 {
		return nil
	}
	j := s.jobs[h]
	if cur := j.sched.CurrentPhase(); cur < len(j.phases) {
		return &j.phases[cur]
	}
	return nil
}

func (s *mstate) park(w int, at int64) {
	if s.parked[w] {
		return
	}
	if s.tr != nil {
		s.tr.Record(trace.KPark, at, int32(w), -1, -1, 0, 0, 0)
	}
	s.mNoteStarve(at)
	s.parked[w] = true
	s.parkedB.set(w)
	s.parkedN++
	s.parkedAt[w] = at
	s.pendingAt[w] = -1
	if pt := s.homePhase(w); pt != nil && pt.RundownStart < 0 {
		pt.RundownStart = at
	}
}

// beginAsk is the shared prologue of every ask handler: it drops asks a
// later wake superseded and settles the asker's park accounting. It
// reports whether the ask is still live.
func (s *mstate) beginAsk(req mitem) bool {
	if req.gen != s.askGen[req.proc] {
		return false // superseded by an earlier wake
	}
	if s.parked[req.proc] {
		if s.tr != nil {
			s.tr.Record(trace.KUnpark, req.at, int32(req.proc), -1, -1, 0, 0,
				req.at-s.parkedAt[req.proc])
		}
		s.mNoteStarve(req.at)
		s.parked[req.proc] = false
		s.parkedB.clear(req.proc)
		s.parkedN--
		s.pendingAt[req.proc] = -1
		if d := req.at - s.parkedAt[req.proc]; d > 0 {
			s.idleUnits += d
			if pt := s.homePhase(req.proc); pt != nil {
				pt.IdleUnits += d
			}
		}
	}
	return true
}

// noteJobDone flips job j's done bookkeeping when its scheduler just
// finished: the job leaves the live and credit counts, the cached
// backfill order, and the home-worker map. Call before syncReady (which
// zeroes a done job's cached contribution).
func (s *mstate) noteJobDone(j *mjob) {
	if j.done || !j.sched.Done() {
		return
	}
	j.done = true
	if s.met != nil {
		s.met.JobsDone.Inc(0)
		s.met.ActiveJobs.Add(-1)
		// A deadlined job reaching here beat its deadline (a miss is
		// aborted AT the deadline and never arrives); the margin is the
		// budget it had left. Callers update j.makespan before calling.
		if j.spec.Deadline > 0 {
			s.met.DeadlineMargin.Observe(j.spec.Deadline - j.makespan)
		}
	}
	s.liveCount--
	if j.deficit > 0 {
		s.creditCount--
	}
	s.orderDirty = true
	s.rebalance()
}

// wake schedules asks for parked workers at time at, bounded by the
// ready tasks across all unfinished jobs. A worker stays parked until its
// ask is served: a wake carrying a serial-action delay schedules the ask
// in the future, and a later release by ANOTHER job may land inside that
// window — the earlier wake then supersedes the pending one (askGen
// orphans the stale ask). Without this, one job's serial action would
// phantom-occupy workers the other jobs could have used.
func (s *mstate) wake(at int64) {
	if s.parkedN == 0 {
		return
	}
	avail := s.readyTotal
	if s.model == Async {
		// Buffered tasks are poppable by any worker whose candidate walk
		// reaches their job, so they count as availability; the dispatch
		// waits for the slot's production stamp, not the ask.
		avail += s.bufferedN
	}
	if avail <= 0 {
		return
	}
	if s.plan != nil && s.plan.DropWakeup() {
		// The wakeup vanishes; the run loop's queue-empty probe re-wakes.
		s.noteFault(at, -1, -1, fault.DropWakeup)
		return
	}
	// Walk only the parked workers, in ascending order — the order the
	// old full scan visited them — via the bitset.
	for wi := 0; wi < len(s.parkedB.words) && avail > 0; wi++ {
		word := s.parkedB.words[wi]
		for word != 0 && avail > 0 {
			w := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if s.pendingAt[w] >= 0 && s.pendingAt[w] <= at {
				continue // already scheduled no later than this wake
			}
			s.pendingAt[w] = at
			s.askGen[w]++
			s.push(mitem{at: at, proc: w, gen: s.askGen[w]})
			avail--
		}
	}
}

// push enqueues an item with the next tie-break sequence number.
func (s *mstate) push(it mitem) {
	s.seq++
	it.seq = s.seq
	s.queue.push(it)
}

func (s *mstate) run(maxOps int64) error {
	// An already-cancelled context aborts before any work (the in-loop
	// poll is batched and would let a small run finish unobserved).
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("sim: run canceled at t=0: %w", err)
	}
	for ji, j := range s.jobs {
		c0 := s.serverFree
		fin := s.serve(s.serverFree, j.sched.Start())
		if j.sched.SerialCost() > 0 {
			j.openAt = fin
		}
		s.syncReady(j)
		if s.tr != nil {
			s.tr.Record(trace.KStart, c0, -1, int32(ji), -1, 0, 0, fin-c0)
		}
		if s.met != nil {
			// Every job is admitted at t=0 — the virtual machine has no
			// admission queue — so queue wait observes zero per job.
			s.met.JobsSubmitted.Inc(0)
			s.met.ActiveJobs.Add(1)
			s.met.QueueWait.Observe(0)
		}
	}
	s.rebalance()
	for i, j := range s.jobs {
		j.homeAt0 = 0
		for _, h := range s.homes {
			if h == i {
				j.homeAt0++
			}
		}
	}
	for w := 0; w < s.workers; w++ {
		s.push(mitem{at: s.serverFree, proc: w, gen: s.askGen[w]})
	}

	var ops int64
	for {
		ops++
		if ops > maxOps {
			return fmt.Errorf("sim: exceeded %d management operations (runaway?)", maxOps)
		}
		// Cooperative cancellation: one ctx poll per batch of management
		// operations, so a cancelled caller gets back promptly without the
		// hot loop paying an atomic load per event.
		if ops&1023 == 0 {
			if err := s.ctx.Err(); err != nil {
				return fmt.Errorf("sim: run canceled at t=%d: %w", s.frontier(), err)
			}
		}
		// Guarded here, not in maybe: an unobserved run must not pay even
		// the thunk's indirect call per event. (The frontier itself is a
		// cached running max, so an observed run pays O(1) too.) A mark
		// that fires here is recorded BEFORE the events this iteration
		// serves — the equal-tick ordering contract (trace.go).
		if s.obs != nil {
			if at, fired := s.obs.maybe(s.nowFn, s.snapFn); fired && s.tr != nil {
				s.tr.Record(trace.KMark, at, -1, -1, -1, 0, 0, 0)
			}
		}

		// Deadline enforcement: a deadlined job is failed exactly AT its
		// deadline once no queued event could finish it in time.
		if s.hasDeadline && s.checkDeadlines() {
			continue
		}

		// Idle executive moment (nothing due until after the management
		// resource frees up): absorb one deferred management item from
		// the first unfinished job that has any (deterministic order). An
		// item due exactly when the server frees is served first —
		// idle-time work must not preempt due work. deferredN gates the
		// scan — the idle condition is common, and without the counter
		// every such event would re-probe all jobs.
		next, have := s.queue.peekTime()
		if s.deferredN > 0 && (!have || next > s.serverFree) {
			absorbed := false
			for _, j := range s.jobs {
				if j.done || !j.hasDef {
					continue
				}
				cost, ok := j.sched.DeferredMgmt()
				s.syncReady(j)
				if ok {
					fin := s.serve(s.serverFree, cost)
					s.wake(fin)
					absorbed = true
					break
				}
			}
			if absorbed {
				continue
			}
		}

		if have {
			it := s.queue.pop()
			if it.isDone {
				j := s.jobs[it.job]
				if j.done || it.gen != j.attempt {
					// Orphaned completion of a retired or restarted
					// attempt: the result is discarded, the worker is
					// freed to ask again.
					s.push(mitem{at: it.at, proc: it.proc, gen: s.askGen[it.proc]})
					continue
				}
				if it.fail != nil {
					// The completion carries an injected grain failure:
					// retry the job or retire it; co-tenants keep running.
					s.failJob(it.job, it.at, it.proc, it.fail, true)
					continue
				}
				if s.plan != nil {
					// A management-delay fault withholds this completion's
					// submission to the executive: the event re-queues
					// Delay later (the rule's budget bounds the re-queues).
					if d, ok := s.plan.Mgmt(it.job, it.at); ok {
						s.noteFault(it.at, it.proc, it.job, fault.MgmtDelay)
						it.at += d
						s.push(it)
						continue
					}
				}
			}
			// One chokepoint records EVERY model's completions (the model
			// handlers below diverge), before the scheduler absorbs the
			// event — so dispatches it enables carry larger Seqs.
			if it.isDone && s.tr != nil {
				s.tr.Record(trace.KComplete, it.at, int32(it.proc), int32(it.job),
					int32(it.task.Phase), uint32(it.task.Run.Lo), uint32(it.task.Run.Hi), it.dur)
			}
			if it.isDone && s.met != nil {
				s.met.Completions.Inc(it.proc)
			}
			switch {
			case !it.isDone:
				switch s.model {
				case Async:
					s.masyncAsk(it)
				case Adaptive:
					s.madaptiveAsk(it)
				default:
					s.serveAsk(it)
				}
			case s.model == Async:
				s.masyncComplete(it)
			case s.model == Adaptive:
				s.madaptiveComplete(it)
			default:
				s.completeTask(it)
			}
			continue
		}

		// Async: completions can be parked behind a busy server with no
		// further worker event left to trigger a drain (every worker
		// parked); force one per backlogged job so the run can finish.
		if s.model == Async {
			drained := false
			for ji, j := range s.jobs {
				if len(j.acomp) > 0 {
					s.masyncServiceJob(ji, s.serverFree, true)
					drained = true
				}
			}
			if drained {
				continue
			}
		}

		alldone := true
		for _, j := range s.jobs {
			if !j.done {
				alldone = false
				break
			}
		}
		if alldone {
			return nil
		}
		// Dropped-wakeup recovery: ready work with every worker parked and
		// nothing queued means a wake was injected away — re-wake (the
		// DropWakeup budget bounds repeats; maxOps guards the rest).
		if s.plan != nil && s.parkedN > 0 {
			avail := s.readyTotal
			if s.model == Async {
				avail += s.bufferedN
			}
			if avail > 0 {
				s.wake(s.serverFree)
				continue
			}
		}
		return fmt.Errorf("sim: stalled at t=%d: queue empty, jobs incomplete", s.serverFree)
	}
}

// serveAsk handles an idle worker's ask: it walks the dispatch-policy
// order, charging every probe's management cost, and parks the worker
// when every candidate is dry. A candidate skipped because its serial
// action is still running reopens at a known time, so a worker that then
// parks schedules its own retry for the earliest such reopening — the
// wake that announced the gated work ran when openAt was set and cannot
// see workers that park later.
func (s *mstate) serveAsk(req mitem) {
	if !s.beginAsk(req) {
		return
	}
	if s.plan != nil && s.maybeCrash(req.proc, req.at) {
		return // the worker is retired: its ask dies, it never asks again
	}
	at := req.at
	home := s.homes[req.proc]
	reopen := int64(-1)
	for _, ji := range s.candidates(req.proc) {
		j := s.jobs[ji]
		if at < j.openAt {
			// The job's between-phase serial action is still running.
			if reopen < 0 || j.openAt < reopen {
				reopen = j.openAt
			}
			continue
		}
		task, cost, ok := j.sched.NextTask()
		s.syncReady(j)
		fin := s.chargeMgmt(req.proc, at, cost)
		if ok {
			if ji != home {
				s.noteDeficit(j, -int64(task.Run.Len()))
			}
			if s.met != nil {
				s.met.DispatchWait.Observe(fin - req.at)
			}
			s.dispatch(req.proc, ji, ji != home, task, fin)
			return
		}
		at = fin
	}
	s.park(req.proc, at)
	if reopen >= 0 {
		s.pendingAt[req.proc] = reopen
		s.askGen[req.proc]++
		s.push(mitem{at: reopen, proc: req.proc, gen: s.askGen[req.proc]})
	}
}

func (s *mstate) dispatch(worker, ji int, backfill bool, task core.Task, at int64) {
	j := s.jobs[ji]
	dur := int64(j.sched.TaskCost(task))
	var lag int64 // completion-event delay (stuck grain / wedged worker)
	var fail error
	if s.plan != nil {
		dur, lag, fail = s.inject(worker, ji, task, at, dur)
	}
	if s.tr != nil {
		s.tr.Record(trace.KDispatch, at, int32(worker), int32(ji),
			int32(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), dur)
		if backfill {
			s.tr.Record(trace.KBackfill, at, int32(worker), int32(ji),
				int32(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), dur)
		}
	}
	if s.met != nil {
		s.met.Dispatches.Inc(worker)
		if backfill {
			s.met.Backfill.Inc(worker)
		}
	}
	end := at + dur
	s.computeUnits += dur
	j.compute += dur
	if backfill {
		j.backfill += dur
		if n := task.Run.Len(); n > s.maxBackfillTask {
			s.maxBackfillTask = n
		}
	}
	s.tl.AddBusy(worker, at, end)
	if s.gantt != nil {
		s.gantt.Add(worker, at, end, rune('A'+int(task.Phase)%26))
	}
	pt := &j.phases[task.Phase]
	if pt.Start < 0 || at < pt.Start {
		pt.Start = at
	}
	pt.Dispatched++
	// Rundown fill: compute this worker performs for anything but its
	// home job's current phase — a later phase (overlap) or another job
	// (backfill) — fills that phase's rundown.
	if hp := s.homePhase(worker); hp != nil && hp != pt {
		hp.OverlapUnits += dur
		if backfill && hp.RundownStart < 0 {
			hp.RundownStart = at
		}
	}
	if end+lag > s.workerFree[worker] {
		s.workerFree[worker] = end + lag
	}
	s.push(mitem{at: end + lag, isDone: true, proc: worker, gen: j.attempt, job: ji, task: task, dur: dur, fail: fail})
}

// noteEnd extends task t's phase window to at, the time its completion
// finished processing.
func (j *mjob) noteEnd(t core.Task, at int64) {
	if pt := &j.phases[t.Phase]; at > pt.End {
		pt.End = at
	}
}

func (s *mstate) completeTask(req mitem) {
	// Done-work accrual for the observer: computeUnits is charged in full
	// at dispatch (it includes in-flight tasks' future work, which would
	// read as utilization > 1 mid-run), so snapshots count a task's
	// compute only once its completion event is served.
	s.doneUnits += req.dur
	j := s.jobs[req.job]
	serial0 := j.sched.SerialCost()
	cost := j.sched.Complete(req.task)
	fin := s.chargeMgmt(req.proc, req.at, cost)
	if j.sched.SerialCost() > serial0 && fin > j.openAt {
		j.openAt = fin
	}
	if req.at > s.lastDone {
		s.lastDone = req.at
		if req.at > s.front {
			s.front = req.at
		}
	}
	if fin > j.makespan {
		j.makespan = fin
		if fin > s.front {
			s.front = fin
		}
	}
	j.noteEnd(req.task, fin)
	s.noteJobDone(j)
	s.syncReady(j)
	s.wake(fin)
	// Fast path: when the worker's re-ask would be the very next event
	// anyway, serve it inline and skip the queue push/pop pair. This is
	// exactly the event the main loop would process next: any worker wake
	// just issued at fin carries a lower sequence number and defeats the
	// peek check, and the loop would not absorb deferred work first —
	// completion processing leaves serverFree >= fin, and an ask due when
	// the server frees is served before idle-time work. Deadline runs
	// take the loop so its deadline check sees the re-ask's time. The
	// loop-top observer poll is replayed here so snapshot streams are
	// untouched.
	if !s.hasDeadline && s.queue.askWouldPopFirst(fin) {
		if s.obs != nil {
			if at, fired := s.obs.maybe(s.nowFn, s.snapFn); fired && s.tr != nil {
				s.tr.Record(trace.KMark, at, -1, -1, -1, 0, 0, 0)
			}
		}
		s.serveAsk(mitem{at: fin, proc: req.proc, gen: s.askGen[req.proc]})
		return
	}
	s.push(mitem{at: fin, proc: req.proc, gen: s.askGen[req.proc]})
}

// frontier is the run's virtual-time high-water mark, matching the
// makespan quantity result() reports: the last completion event or
// completion-processing finish. The management server's own horizon
// (serverFree) is deliberately excluded — trailing zero-cost asks and
// deferred absorption can push it past the final makespan, and the
// observer stream must never report a VirtualTime beyond the Final
// snapshot's.
// lastDone and the per-job makespans only ever increase, so front is
// maintained as a running max where they are updated (completeTask) and
// this is O(1).
func (s *mstate) frontier() int64 {
	return s.front
}

// snapshot builds an observation of the run at virtual time at. Jobs
// counts the still-unfinished jobs, so a live observer watches the
// tenancy drain (a job run alone reads 1, then 0 on the Final snapshot);
// ComputeUnits counts completed tasks only — dispatch-time accrual would
// include in-flight tasks' future work and read as utilization above 1.
func (s *mstate) snapshot(at int64) Snapshot {
	sn := Snapshot{
		VirtualTime:  at,
		ComputeUnits: s.doneUnits,
		MgmtUnits:    s.mgmtUnits,
		IdleUnits:    s.idleUnits,
	}
	if s.model == Adaptive {
		sn.Batch = s.batchN
	}
	for _, j := range s.jobs {
		sn.Tasks += j.sched.Dispatches()
		if !j.done {
			sn.Jobs++
		}
	}
	if at > 0 {
		capacity := float64(s.procs) * float64(at)
		sn.Utilization = float64(sn.ComputeUnits) / capacity
		sn.OverheadShare = float64(s.mgmtUnits) / capacity
	}
	return sn
}

func (s *mstate) result() *MultiResult {
	makespan := s.lastDone
	for _, j := range s.jobs {
		if j.makespan > makespan {
			makespan = j.makespan
		}
	}
	// Close out any still-parked workers at the makespan.
	for w := range s.parked {
		if s.parked[w] {
			s.parked[w] = false
			if d := makespan - s.parkedAt[w]; d > 0 {
				s.idleUnits += d
			}
		}
	}
	s.tl.SetEnd(makespan)
	res := &MultiResult{
		Makespan:     makespan,
		ComputeUnits: s.computeUnits,
		MgmtUnits:    s.mgmtUnits,
		IdleUnits:    s.idleUnits,
		Workers:      s.workers,
		Procs:        s.procs,
		Timeline:     s.tl,
		Gantt:        s.gantt,
	}
	if s.model == Adaptive {
		res.Batch = s.batchN
		if s.tuner != nil {
			res.BatchChanges = s.tuner.Changes()
		}
	}
	res.Faults = s.plan.Injected()
	res.Retries = s.retries
	res.MaxBackfillTask = s.maxBackfillTask
	res.Jobs = make([]JobResult, 0, len(s.jobs))
	for _, j := range s.jobs {
		res.BackfillUnits += j.backfill
		st := j.sched.Stats()
		res.Jobs = append(res.Jobs, JobResult{
			Name:          j.spec.Name,
			Makespan:      j.makespan,
			ComputeUnits:  j.compute,
			BackfillUnits: j.backfill,
			HomeWorkers:   j.homeAt0,
			Sched:         st,
			Err:           j.err,
			Attempts:      j.attempts,
			SerialUnits:   int64(st.SerialCost),
			Phases:        j.phases,
		})
	}
	if makespan > 0 {
		res.Utilization = float64(s.computeUnits) / (float64(s.procs) * float64(makespan))
	}
	return res
}

// finishMetrics flushes the run's accumulated time-split totals into the
// metric set on any outcome — once, at the end, so the hot serve path
// stays metric-free.
func (s *mstate) finishMetrics() {
	if s.met == nil {
		return
	}
	s.met.ComputeTime.Add(0, s.computeUnits)
	s.met.MgmtTime.Add(0, s.mgmtUnits)
	s.met.IdleTime.Add(0, s.idleUnits)
	var backfill int64
	for _, j := range s.jobs {
		backfill += j.backfill
	}
	s.met.BackfillTime.Add(0, backfill)
}
