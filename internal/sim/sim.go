// Package sim is a deterministic discrete-event simulator of a PAX-style
// parallel machine: P processors executing granule tasks dispatched by a
// management server (the executive). It drives core.Scheduler state
// machines in virtual time, charging every management cost a scheduler
// reports to the management resource.
//
// There is one engine. RunMulti prices several jobs sharing the machine,
// each with its own scheduler, under the tenant pool's home/backfill
// dispatch policy; Run and RunJob are RunMulti with a single job, their
// MultiResult folded into the single-program Result. Every run records the
// paper's rundown ledger per job and phase (PhaseTrace: rundown onset,
// idle processor-time, and the overlap or backfill compute that filled
// it) and a bucketed utilization Timeline.
//
// The engine's queue of worker asks and task completions is strictly
// time-ordered: the management server serves requests first come, first
// served in virtual time, with asks before completions at equal times.
//
// Five management resource models are provided. The first two reproduce
// the paper's discussion; the others price the parallel and asynchronous
// managers this reproduction adds (internal/executive's ShardedManager
// and AsyncManager):
//
//   - StealsWorker: the executive runs on one of the P processors ("in the
//     PAX/CASPER UNIVAC 1100 test bed, executive computation was done at
//     the direct expense of worker computation"), so only P-1 processors
//     compute granules.
//   - Dedicated: "some real parallel machines may provide separate
//     executive computing resources" — all P processors compute and the
//     executive runs beside them.
//   - Sharded: management is distributed across the workers. Each
//     processor pays its own dispatch and completion costs inline on its
//     own timeline (per-shard management), so management work from
//     different processors proceeds concurrently instead of queueing on
//     one serial server; only phase activation and deferred idle-time
//     work (table builds, successor splitting) remain serialized. This is
//     the optimistic bound: it assumes entering the executive costs
//     nothing beyond the state-machine work itself.
//   - Adaptive: the batched-executive model — the virtual-time price of
//     the deque-based sharded manager. Workers hold local task buffers
//     and completion batches; popping the local buffer is free, but every
//     refill (NextTasks) and batch flush (CompleteBatch) is one visit to
//     the serialized management server charging MgmtCosts.Acquire plus
//     the state-machine cost. Batch size governs how many tasks amortize
//     each Acquire — too small and the lock serializes the machine, too
//     large and refills hoard tasks idle workers needed (the rundown
//     tail). With Options.AdaptiveBatch the batch is retuned online by
//     the executive.Tuner feedback loop; otherwise Config.Batch fixes it.
//     See multi_adaptive.go.
//   - Async: the Dedicated model extended with the async executive's
//     ready-buffer/low-water protocol — workers pop a bounded buffer the
//     dedicated server keeps topped up and queue completions back without
//     waiting; the virtual-time price of executive.AsyncManager. See
//     multi_async.go.
//
// The simulator is deterministic: identical inputs produce identical
// schedules, event orders and metrics.
package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// MgmtModel selects where executive computation runs.
type MgmtModel uint8

const (
	// StealsWorker dedicates one of the P processors to the executive.
	StealsWorker MgmtModel = iota
	// Dedicated gives the executive its own processor beside the P workers.
	Dedicated
	// Sharded distributes management across the P workers: each processor
	// pays its own management costs inline, concurrently with the others'.
	Sharded
	// Adaptive is the batched-executive model: per-worker task buffers
	// and completion batches, each refill or flush paying one serialized
	// Acquire-priced lock visit; the batch size is fixed (Config.Batch)
	// or retuned online (Options.AdaptiveBatch).
	Adaptive
	// Async is the Dedicated model extended with the async executive's
	// ready-buffer protocol (see multi_async.go): a separate executive
	// processor keeps a bounded ready-buffer topped up, workers pop it
	// for free and queue completions back without waiting, and deferred
	// management overlaps computation above the buffer's low-water mark
	// — the virtual-time price of executive.AsyncManager.
	Async
)

func (m MgmtModel) String() string {
	switch m {
	case StealsWorker:
		return "steals-worker"
	case Dedicated:
		return "dedicated"
	case Sharded:
		return "sharded"
	case Adaptive:
		return "adaptive"
	case Async:
		return "async"
	default:
		return fmt.Sprintf("MgmtModel(%d)", uint8(m))
	}
}

// Config parameterizes a simulation run.
type Config struct {
	// Procs is the machine's processor count P (>= 1; >= 2 for
	// StealsWorker, which reserves one processor for the executive).
	Procs int
	// Mgmt selects the executive resource model.
	Mgmt MgmtModel
	// BucketWidth sets the Timeline's resolution in virtual units; <= 0
	// chooses roughly 200 buckets from a makespan estimate.
	BucketWidth int64
	// Gantt records per-processor spans for ASCII rendering, labelled by
	// phase letter. Only use on small runs; memory is O(tasks).
	Gantt bool
	// MaxOps bounds the number of management operations as a runaway
	// guard; <= 0 means a generous default.
	MaxOps int64
	// Batch is the Adaptive model's refill batch size (the virtual
	// DequeCap): how many tasks one serialized lock visit pulls; the
	// completion batch is half of it. <= 0 selects 16. With
	// Options.AdaptiveBatch on any job this is the starting point of one
	// machine-wide controller; otherwise it is fixed for the whole run.
	// Other models ignore it.
	Batch int
	// ReadyCap bounds each job's share of the Async model's ready-buffer —
	// how many dispatched-but-unclaimed tasks the dedicated executive
	// keeps ahead of the workers. <= 0 selects 2*workers divided over the
	// jobs (minimum 8), matching executive.Config.ReadyCap for one job.
	// Other models ignore it.
	ReadyCap int
	// LowWater is the Async model's deferred-overlap mark: the executive
	// absorbs deferred management whenever the ready-buffer holds more
	// than this many tasks. <= 0 selects ReadyCap/4 (minimum 1). Other
	// models ignore it.
	LowWater int
	// Observer, when non-nil, receives periodic Snapshots as the run's
	// virtual frontier advances, plus one Final snapshot on every
	// outcome — at the makespan on success, at the frontier reached on
	// failure or cancellation. Emission points are deterministic (fixed
	// virtual-time marks), so observation never perturbs the schedule.
	Observer func(Snapshot)
	// ObserveEvery is the snapshot stride in virtual units; <= 0 selects
	// roughly 16 snapshots from a makespan estimate. Ignored without
	// Observer.
	ObserveEvery int64
	// Trace, when non-nil, flight-records every scheduling decision —
	// dispatches, completions, parks/unparks, controller retunes,
	// observation marks, start/finish/abort — stamped with virtual times.
	// The simulator emits from its single event-loop goroutine into ring
	// 0 in processing order, so the merged trace's (Time, Seq) order IS
	// the loop's deterministic serve order (equal-tick ordering contract:
	// see internal/sim/trace.go).
	Trace *trace.Recorder
	// Metrics, when non-nil, records the standard telemetry.Set at the
	// same chokepoints the flight recorder traces — dispatches,
	// completions, ask-to-dispatch latency, faults, retries, retunes,
	// buffer occupancy — with every duration in virtual units. Recording
	// happens on the single event-loop goroutine in processing order, so
	// identical inputs yield bit-identical metric dumps (the determinism
	// goldens pin this).
	Metrics *telemetry.Set
	// Faults is the seeded fault-injection campaign (nil = off). A fresh
	// fault.Plan is compiled per run — Plans are stateful — and consulted
	// at the same chokepoints the real backends use, so identical Specs
	// yield bit-identical virtual outcomes.
	Faults *fault.Spec
	// PreemptBound caps every job's task grain at this many granules —
	// the bounded-degradation contract: a home job emerging from rundown
	// waits at most one PreemptBound-sized grain for any in-flight
	// foreign task. <= 0 leaves the grain at the job's own setting (or
	// the core default). MultiResult.MaxBackfillTask reports the measured
	// bound.
	PreemptBound int
}

// PhaseTrace describes one phase's schedule within a job: the rundown
// ledger. A processor belongs to the job it is homed on (every processor,
// when the job runs alone), and the ledger charges that processor's
// idleness and fill work to the job's current phase.
type PhaseTrace struct {
	Name string
	// Start is the virtual time the phase's first task was handed out;
	// End is when its last completion finished processing (-1 for both
	// while the phase has not run).
	Start, End int64
	// RundownStart is the first time a processor homed on the job went
	// idle or took foreign work while this phase was the job's current
	// phase (-1 if none did): the onset of computational rundown.
	RundownStart int64
	// IdleUnits is the processor-time accumulated by the job's home
	// workers that parked while this phase was current.
	IdleUnits int64
	// Dispatched counts tasks of this phase.
	Dispatched int64
	// OverlapUnits is compute the job's home workers performed for
	// anything but this phase during its currency — a later phase of the
	// same job (overlap) or another job (backfill): the work that filled
	// the rundown.
	OverlapUnits int64
}

// Result aggregates a simulation run.
type Result struct {
	// Makespan is the virtual completion time of the whole program.
	Makespan int64
	// ComputeUnits is the total granule execution time.
	ComputeUnits int64
	// MgmtUnits is the total executive busy time.
	MgmtUnits int64
	// SerialUnits is the executive time spent in between-phase serial actions.
	SerialUnits int64
	// IdleUnits is the total parked worker time.
	IdleUnits int64
	// Workers is the number of processors that executed granules.
	Workers int
	// Procs is the machine size P (capacity denominator).
	Procs int
	// Utilization is ComputeUnits / (Procs * Makespan).
	Utilization float64
	// WorkerUtilization is ComputeUnits / (Workers * Makespan).
	WorkerUtilization float64
	// MgmtRatio is the paper's computation-to-management ratio:
	// ComputeUnits / MgmtUnits (0 when MgmtUnits is 0).
	MgmtRatio float64
	// Sched is the scheduler's management statistics.
	Sched core.Stats
	// Batch is the refill batch size at the end of the run (Adaptive
	// model only: the fixed Config.Batch, or wherever the controller
	// settled). Zero under the other models.
	Batch int
	// BatchChanges counts the adaptive controller's parameter changes
	// (Adaptive model with Options.AdaptiveBatch only).
	BatchChanges int
	// Faults counts injected fault firings (Config.Faults); Retries
	// counts restarts of the program on a fresh scheduler (JobSpec.Retry).
	Faults  int64
	Retries int64
	// Phases is the program's rundown ledger, one entry per phase.
	Phases []PhaseTrace
	// Timeline is the bucketed utilization recorder.
	Timeline *metrics.Timeline
	// Gantt is non-nil when Config.Gantt was set.
	Gantt *metrics.Gantt
}

// Run simulates prog under the scheduler options opt on the machine cfg.
func Run(prog *core.Program, opt core.Options, cfg Config) (*Result, error) {
	return RunJob(context.Background(), JobSpec{Prog: prog, Opt: opt}, cfg)
}

// RunContext is Run with cooperative cancellation: the event loop checks
// ctx between management operations and a cancelled run returns an error
// wrapping ctx.Err() (test with errors.Is). A nil ctx behaves like
// context.Background().
func RunContext(ctx context.Context, prog *core.Program, opt core.Options, cfg Config) (*Result, error) {
	return RunJob(ctx, JobSpec{Prog: prog, Opt: opt}, cfg)
}

// RunJob simulates one job alone on the machine cfg: RunMultiContext with
// a single job, folded into a Result. The job's Deadline, Retry and
// Backoff apply; a job that fails — a deadline miss, or an injected grain
// failure with no retries left — returns its error (a deadline miss wraps
// context.DeadlineExceeded).
func RunJob(ctx context.Context, job JobSpec, cfg Config) (*Result, error) {
	mr, err := RunMultiContext(ctx, []JobSpec{job}, cfg)
	if err != nil {
		return nil, err
	}
	j := &mr.Jobs[0]
	if j.Err != nil {
		return nil, j.Err
	}
	res := &Result{
		Makespan:     mr.Makespan,
		ComputeUnits: mr.ComputeUnits,
		MgmtUnits:    mr.MgmtUnits,
		SerialUnits:  j.SerialUnits,
		IdleUnits:    mr.IdleUnits,
		Workers:      mr.Workers,
		Procs:        mr.Procs,
		Utilization:  mr.Utilization,
		Sched:        j.Sched,
		Batch:        mr.Batch,
		BatchChanges: mr.BatchChanges,
		Faults:       mr.Faults,
		Retries:      mr.Retries,
		Phases:       j.Phases,
		Timeline:     mr.Timeline,
		Gantt:        mr.Gantt,
	}
	if mr.Makespan > 0 {
		res.WorkerUtilization = float64(mr.ComputeUnits) / (float64(mr.Workers) * float64(mr.Makespan))
	}
	if mr.MgmtUnits > 0 {
		res.MgmtRatio = float64(mr.ComputeUnits) / float64(mr.MgmtUnits)
	}
	return res, nil
}
