// Package trace is the flight recorder: a low-overhead structured event
// log of every scheduling decision a run makes — dispatches, completions,
// steals, backfill grants, parks, batch retunes, aborts — captured from
// any backend (the deterministic simulator, the goroutine executive, or
// the multi-tenant pool) in one common record format.
//
// The recording hot path is built for the goroutine backends: each worker
// appends to its own Ring with no synchronization (owner-only writes,
// amortized-zero allocation past the growth knee), a global atomic
// sequence number stamps causal order across rings, and rare events from
// non-worker contexts (a controller retune under the manager lock, an
// abort from an arbitrary goroutine) go through the mutex-guarded
// Recorder.Emit side channel. The simulator emits into ring 0 from its
// single event-loop goroutine, stamping virtual times directly.
//
// Take merges the rings into a Trace ordered by (Time, Seq). Because
// every emitter records a completion BEFORE submitting it to management
// and a dispatch AFTER management hands the task out, any dispatch
// enabled by a completion carries a larger Seq — so the merged order is a
// valid causal schedule even when coarse clocks produce equal timestamps.
// Traces round-trip through a versioned binary file format (file.go),
// diff against each other (diff.go), replay in the simulator
// (sim.Replay), and export to metrics timelines, Gantt charts, and JSON
// (export.go).
package trace

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies one scheduling decision.
type Kind uint8

const (
	// KStart marks the run's begin (Arg: the scheduler's start cost in
	// virtual traces).
	KStart Kind = 1 + iota
	// KDispatch records a task handed to a worker: Proc executes granules
	// [Lo, Hi) of Phase for Job. In virtual traces Arg is the task's
	// compute cost; wall-clock traces leave it 0 (the duration is known
	// only at completion).
	KDispatch
	// KComplete records a task finishing on Proc: granules [Lo, Hi) of
	// Phase for Job. Arg is the task's duration — virtual compute cost in
	// simulator traces, wall nanoseconds in executive/pool traces — so a
	// trace alone reconstructs busy intervals as [Time-Arg, Time).
	KComplete
	// KStealAttempt / KStealWin / KStealLose record a sharded-manager
	// steal sweep by Proc: the attempt when the sweep starts, then either
	// a win (Arg: the victim worker, Lo/Hi: the first stolen task's
	// range) or a loss (every victim was dry).
	KStealAttempt
	KStealWin
	KStealLose
	// KBackfill records a cross-job grant: the KDispatch it accompanies
	// gave Proc a task from a job it is not homed on (rundown fill).
	KBackfill
	// KPark / KUnpark bracket a worker idling: KPark when Proc gives up
	// finding work, KUnpark when it resumes (Arg: the idle span, virtual
	// units or wall nanoseconds, when the emitter knows it).
	KPark
	KUnpark
	// KRetune records the adaptive controller changing the batch knobs
	// (Arg: the new refill capacity).
	KRetune
	// KAbort records a run failing or being cancelled.
	KAbort
	// KFinish marks the run's end (Time: the makespan in virtual traces).
	KFinish
	// KMark records a deterministic observation mark: the virtual-time
	// point where the simulator's Observer emitted a Snapshot. At equal
	// virtual timestamps marks order BEFORE the events the same loop
	// iteration then processes (see §"ordering" in DESIGN.md), pinned by
	// the trace-order golden test.
	KMark
	// KFault records an injected fault firing (internal/fault): Arg is
	// the fault.Kind, Proc/Job/Phase/[Lo,Hi) locate the victim where the
	// fault has one. Appended after KMark so pre-fault binary traces
	// replay unchanged.
	KFault
	// KRetry records a job restarting after a retryable failure: Job is
	// the retried job, Arg the attempt number just begun (2 = first
	// retry). Granules completed by earlier attempts re-run, so per-job
	// conservation holds from the LAST KRetry onward (Trace.FilterJob
	// cuts there).
	KRetry
)

var kindNames = [...]string{
	KStart:        "start",
	KDispatch:     "dispatch",
	KComplete:     "complete",
	KStealAttempt: "steal-attempt",
	KStealWin:     "steal-win",
	KStealLose:    "steal-lose",
	KBackfill:     "backfill",
	KPark:         "park",
	KUnpark:       "unpark",
	KRetune:       "retune",
	KAbort:        "abort",
	KFinish:       "finish",
	KMark:         "mark",
	KFault:        "fault",
	KRetry:        "retry",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded scheduling decision. Proc, Job and Phase are -1
// when the event has no such association (e.g. a machine-wide mark).
type Event struct {
	// Seq is the global emission order: unique, monotone per emitting
	// goroutine, and causal across goroutines for the completion→dispatch
	// edge (see the package comment).
	Seq uint64
	// Time is when the decision happened: virtual units in simulator
	// traces, nanoseconds since the run's start in wall-clock traces
	// (Meta.TimeUnit says which).
	Time int64
	Kind Kind
	// Proc is the worker/processor involved.
	Proc int32
	// Job indexes the job in multi-program runs (0 in single-program).
	Job int32
	// Phase and [Lo, Hi) name the task's granule range.
	Phase  int32
	Lo, Hi uint32
	// Arg is per-kind payload (durations, victims, batch sizes).
	Arg int64
}

func (e Event) String() string {
	return fmt.Sprintf("#%d t=%d %s proc=%d job=%d phase=%d [%d,%d) arg=%d",
		e.Seq, e.Time, e.Kind, e.Proc, e.Job, e.Phase, e.Lo, e.Hi, e.Arg)
}

// Time units for Meta.TimeUnit.
const (
	UnitVirtual = "virtual" // deterministic simulator units
	UnitNanos   = "ns"      // wall-clock nanoseconds since run start
)

// PhaseMeta names one phase of the recorded program.
type PhaseMeta struct {
	Name     string `json:"name"`
	Granules int    `json:"granules"`
}

// Meta describes the run a trace was recorded from. It is stored as a
// JSON block in the file header so the format can grow fields without a
// version bump; unknown fields are ignored on read.
type Meta struct {
	// Version is the record-format version (set by the file writer).
	Version int `json:"version,omitempty"`
	// Backend names the recording machine: "virtual", "exec", or "pool".
	Backend string `json:"backend"`
	// Manager / Model name the management configuration (whichever side
	// of the pairing the backend used).
	Manager string `json:"manager,omitempty"`
	Model   string `json:"model,omitempty"`
	// Workers is the worker/processor count the run used.
	Workers int `json:"workers"`
	// TimeUnit is UnitVirtual or UnitNanos.
	TimeUnit string `json:"time_unit"`
	// Jobs names the jobs of a multi-program run, in index order.
	Jobs []string `json:"jobs,omitempty"`
	// Phases describes the (first job's) program, for replay cross-checks
	// and labeled exports.
	Phases []PhaseMeta `json:"phases,omitempty"`
}

// Virtual reports whether the trace's times are deterministic virtual
// units (diff compares them exactly; wall-clock times are never equal
// across runs and are compared structurally instead).
func (m *Meta) Virtual() bool { return m.TimeUnit == UnitVirtual }

// Ring is one worker's private event buffer. Only the owning worker
// calls Record; the Recorder merges rings in Take. Append amortizes to
// zero allocations: the backing array doubles like any slice but is
// retained by Reset, so steady-state recording never allocates (pinned
// by an AllocsPerRun gate). The per-ring mutex exists for live
// snapshots (Take on a long-lived pool's recorder, see cmd/rundownd):
// it is private to the ring, so the only contention a worker ever sees
// is an in-progress snapshot copy.
type Ring struct {
	rec *Recorder
	mu  sync.Mutex
	ev  []Event
	// pad keeps two adjacent Rings out of one cache line: each worker
	// bumps its own slice header on every Record, and cross-line sharing
	// would put that store on the neighbor's hot path.
	_ [64 - 8 - 8 - 24]byte
}

// Record appends one event stamped with the next global sequence number.
func (g *Ring) Record(k Kind, at int64, proc, job, phase int32, lo, hi uint32, arg int64) {
	e := Event{
		Seq: g.rec.seq.Add(1), Time: at, Kind: k,
		Proc: proc, Job: job, Phase: phase, Lo: lo, Hi: hi, Arg: arg,
	}
	g.mu.Lock()
	g.ev = append(g.ev, e)
	g.mu.Unlock()
}

// Len reports the number of events recorded so far.
func (g *Ring) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.ev)
}

// Reset drops the recorded events but keeps the backing array, so a
// reused ring records without allocating.
func (g *Ring) Reset() {
	g.mu.Lock()
	g.ev = g.ev[:0]
	g.mu.Unlock()
}

// Recorder owns the per-worker rings and the global sequence counter for
// one recorded run. Create one per run with NewRecorder, hand Ring(w) to
// each worker, and call Take once the run has quiesced.
type Recorder struct {
	meta  Meta
	start time.Time
	seq   atomic.Uint64
	rings []*Ring

	mu  sync.Mutex
	aux []Event
}

// NewRecorder builds a recorder with workers rings (minimum 1).
func NewRecorder(meta Meta, workers int) *Recorder {
	if workers < 1 {
		workers = 1
	}
	r := &Recorder{meta: meta, start: time.Now()}
	r.rings = make([]*Ring, workers)
	for i := range r.rings {
		r.rings[i] = &Ring{rec: r}
	}
	return r
}

// Ring returns worker w's private ring (clamped into range, so callers
// with synthetic worker numbers never fault).
func (r *Recorder) Ring(w int) *Ring {
	if w < 0 || w >= len(r.rings) {
		w = 0
	}
	return r.rings[w]
}

// Now is the wall-clock timestamp source for real-machine recording:
// nanoseconds since the recorder was created (monotonic).
func (r *Recorder) Now() int64 { return int64(time.Since(r.start)) }

// Emit records one event from a context that has no ring of its own — a
// controller retune under the manager lock, an abort from an arbitrary
// goroutine. It takes the recorder's mutex, so keep it off hot paths;
// rare events only.
func (r *Recorder) Emit(k Kind, at int64, proc, job, phase int32, lo, hi uint32, arg int64) {
	e := Event{
		Seq: r.seq.Add(1), Time: at, Kind: k,
		Proc: proc, Job: job, Phase: phase, Lo: lo, Hi: hi, Arg: arg,
	}
	r.mu.Lock()
	r.aux = append(r.aux, e)
	r.mu.Unlock()
}

// Meta returns the recorder's run description for late amendment (e.g.
// filling phase names after construction). Not safe concurrently with
// Take; amend before the run starts. The job list is the exception: it
// grows while a live pool admits jobs, so it changes only through
// SetJob.
func (r *Recorder) Meta() *Meta { return &r.meta }

// SetJob names job i in Meta.Jobs — the label of the records whose Job
// column is i — growing the list as needed. It takes the recorder's
// lock, so jobs may be named while a concurrent Take snapshots the
// trace.
func (r *Recorder) SetJob(i int, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.meta.Jobs) <= i {
		r.meta.Jobs = append(r.meta.Jobs, "")
	}
	r.meta.Jobs[i] = name
}

// Take merges every ring and the aux channel into one Trace ordered by
// (Time, Seq). It does not consume the rings, so a second Take returns
// a superset of the first. Safe while recording continues (each ring is
// copied under its own lock): a live Take is a consistent prefix of
// every ring, though events racing the call may land on either side of
// the snapshot.
func (r *Recorder) Take() *Trace {
	var ev []Event
	for _, g := range r.rings {
		g.mu.Lock()
		ev = append(ev, g.ev...)
		g.mu.Unlock()
	}
	r.mu.Lock()
	ev = append(ev, r.aux...)
	meta := r.meta
	meta.Jobs = slices.Clone(r.meta.Jobs)
	r.mu.Unlock()
	sort.Slice(ev, func(i, j int) bool {
		if ev[i].Time != ev[j].Time {
			return ev[i].Time < ev[j].Time
		}
		return ev[i].Seq < ev[j].Seq
	})
	return &Trace{Meta: meta, Events: ev}
}

// Trace is a completed recording: the run description plus its events in
// (Time, Seq) order.
type Trace struct {
	Meta   Meta
	Events []Event
}

// Len reports the event count.
func (t *Trace) Len() int { return len(t.Events) }

// Granules sums the granules completed in the trace.
func (t *Trace) Granules() int64 {
	var n int64
	for _, e := range t.Events {
		if e.Kind == KComplete {
			n += int64(e.Hi - e.Lo)
		}
	}
	return n
}

// Count tallies events of kind k.
func (t *Trace) Count(k Kind) int {
	n := 0
	for _, e := range t.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Span reports the closed busy window [first dispatch, last completion].
// Both are 0 for a trace with no dispatches.
func (t *Trace) Span() (start, end int64) {
	first := true
	for _, e := range t.Events {
		switch e.Kind {
		case KDispatch:
			if first || e.Time < start {
				start = e.Time
			}
			first = false
		case KComplete:
			if e.Time > end {
				end = e.Time
			}
		}
	}
	return start, end
}

// FilterJob extracts one job's schedule from a multi-job trace as a
// single-job trace replayable with sim.Replay: only the job's dispatch,
// completion, backfill, steal, fault and lifecycle events survive, and
// Meta.Jobs shrinks to the one name. Events before the job's LAST KRetry
// are dropped — a retried job re-runs from a fresh scheduler, so only the
// final attempt is a complete, conserved schedule. Machine-wide events
// (parks, marks, the run's own start/finish) are dropped; Meta.Phases is
// kept only for job 0, whose program it describes.
func (t *Trace) FilterJob(job int) *Trace {
	cut := -1
	for i, e := range t.Events {
		if e.Kind == KRetry && int(e.Job) == job {
			cut = i
		}
	}
	out := &Trace{Meta: t.Meta}
	out.Meta.Jobs = nil
	if job >= 0 && job < len(t.Meta.Jobs) {
		out.Meta.Jobs = []string{t.Meta.Jobs[job]}
	}
	if job != 0 {
		out.Meta.Phases = nil
	}
	for i, e := range t.Events {
		if i <= cut || int(e.Job) != job {
			continue
		}
		switch e.Kind {
		case KDispatch, KComplete, KBackfill, KStealWin,
			KStart, KFinish, KAbort, KFault:
			e.Job = 0
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// Procs reports the processor count: Meta.Workers when set, otherwise
// the highest Proc seen plus one.
func (t *Trace) Procs() int {
	if t.Meta.Workers > 0 {
		return t.Meta.Workers
	}
	maxP := -1
	for _, e := range t.Events {
		if int(e.Proc) > maxP {
			maxP = int(e.Proc)
		}
	}
	return maxP + 1
}
