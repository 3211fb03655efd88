package sim

// Deterministic fault injection in virtual time. The engine consults one
// compiled fault.Plan at the same chokepoints the real backends do:
//
//   - grain faults strike in dispatch: a slow grain stretches the task's
//     compute (work inflation the timeline and utilization then price), a
//     stuck grain delays the completion EVENT without inflating compute,
//     and a panicking/erroring grain stamps the completion with a failure
//     the run loop turns into a job failure (a retry on a fresh
//     scheduler, or an abort isolated from the job's co-tenants; a job
//     run alone through RunJob returns the abort as its error);
//   - worker faults strike at ask service: a crashed worker finishes the
//     task in hand and never asks again (graceful capacity loss — under
//     Adaptive the crash waits for the shard to drain and flushes the
//     completion batch, so no task is stranded); a wedged worker's next
//     completion is withheld for Delay; a slow worker stretches every
//     task it runs;
//   - management faults strike the executive: a delayed completion
//     submission re-queues the completion event Delay later, and a
//     dropped wakeup makes wake() a no-op once — the run loop's
//     queue-empty probe re-wakes, so the fault prices the recovery
//     instead of hanging the run.
//
// Every firing is flight-recorded as a KFault event (Arg = fault.Kind),
// so replay and conservation tooling can see exactly what was injected
// where.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

// capGrain applies the PreemptBound contract to a job's options: the
// task grain — the largest non-preemptible unit a worker can hold, and
// therefore the longest a home job emerging from rundown can wait for an
// in-flight foreign grain — is capped at bound granules. When Grain is
// unset the core default (ceil(maxPhaseGranules / 2*Workers)) is
// materialized first so the cap composes with it instead of replacing
// it.
func capGrain(prog *core.Program, opt core.Options, bound int) core.Options {
	if bound <= 0 {
		return opt
	}
	if opt.Grain <= 0 {
		maxG := 1
		for _, ph := range prog.Phases {
			if ph.Granules > maxG {
				maxG = ph.Granules
			}
		}
		w := opt.Workers
		if w <= 0 {
			w = 1
		}
		opt.Grain = (maxG + 2*w - 1) / (2 * w)
		if opt.Grain < 1 {
			opt.Grain = 1
		}
	}
	if opt.Grain > bound {
		opt.Grain = bound
	}
	return opt
}

// satScale stretches dur by a slow-fault factor, saturating well below
// int64 overflow: fault.New clamps each Factor, but worker and grain
// stretches compound, and a wrapped negative duration would push a
// completion behind its dispatch and corrupt the virtual timeline.
func satScale(dur, factor int64) int64 {
	const maxVirtual = int64(1) << 56
	if dur <= 0 || factor <= 1 {
		return dur
	}
	if dur >= maxVirtual/factor {
		return maxVirtual
	}
	return dur * factor
}

// backoffDelay is the capped exponential retry backoff: the first retry
// waits base, each further retry doubles it, capped at 64× base.
func backoffDelay(base int64, attempts int) int64 {
	if base <= 0 {
		return 0
	}
	shift := attempts - 2 // attempts counts from 1; the first retry is attempt 2
	if shift < 0 {
		shift = 0
	}
	if shift > 6 {
		shift = 6
	}
	return base << shift
}

// noteFault flight-records one injected fault firing against job ji.
func (s *mstate) noteFault(at int64, w, ji int, k fault.Kind) {
	if s.tr != nil {
		s.tr.Record(trace.KFault, at, int32(w), int32(ji), -1, 0, 0, int64(k))
	}
	if s.met != nil {
		s.met.Faults.Inc(0)
	}
}

// inject applies grain- and worker-level faults to a dispatch: it
// returns the (possibly stretched) compute cost, the completion-event
// lag, and the failure the completion should carry. Only called with a
// non-nil plan.
func (s *mstate) inject(worker, ji int, task core.Task, at, dur int64) (int64, int64, error) {
	var lag int64
	var fail error
	if _, f, ok := s.plan.Worker(worker, at, fault.WorkerSlow); ok {
		s.noteFault(at, worker, ji, fault.WorkerSlow)
		dur = satScale(dur, f)
	}
	if d, _, ok := s.plan.Worker(worker, at, fault.WorkerWedge); ok {
		s.noteFault(at, worker, ji, fault.WorkerWedge)
		lag += d
	}
	k, d, f := s.plan.Grain(ji, int(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), at)
	switch k {
	case fault.GrainSlow:
		dur = satScale(dur, f)
	case fault.GrainStall:
		lag += d
	case fault.GrainPanic:
		fail = fmt.Errorf("sim: injected panic in job %q phase %d granules [%d,%d)",
			s.jobs[ji].spec.Name, task.Phase, task.Run.Lo, task.Run.Hi)
	case fault.GrainError:
		fail = fmt.Errorf("sim: injected error in job %q phase %d granules [%d,%d)",
			s.jobs[ji].spec.Name, task.Phase, task.Run.Lo, task.Run.Hi)
	}
	if k != 0 {
		s.noteFault(at, worker, ji, k)
	}
	return dur, lag, fail
}

// maybeCrash retires worker w when a WorkerCrash rule fires for it: the
// ask in hand dies and the worker never asks again. Called at the top of
// every ask handler. Under Adaptive the crash is deferred while the
// worker's shard holds tasks (they are not re-queueable) and the pending
// completion batch is flushed first, so no work is stranded. The last
// live worker refuses to crash — the rule is consumed but ignored — so a
// campaign cannot strand a run with zero workers.
func (s *mstate) maybeCrash(w int, at int64) bool {
	if s.crashed[w] {
		return true
	}
	if s.model == Adaptive && s.mab[w].next < len(s.mab[w].tasks) {
		return false
	}
	if _, _, ok := s.plan.Worker(w, at, fault.WorkerCrash); !ok {
		return false
	}
	if s.livew <= 1 {
		return false
	}
	if s.model == Adaptive {
		sh := &s.mab[w]
		if len(sh.done) > 0 {
			at = s.mAcquire(s.jobs[sh.job], at)
			at = s.mFlush(sh, at)
			s.wake(at)
		}
	}
	s.crashed[w] = true
	s.livew--
	s.noteFault(at, w, -1, fault.WorkerCrash)
	return true
}

// clearModelState discards job ji's model-held work — async ready and
// completion buffers, adaptive shards — when an attempt dies: the tasks
// belong to a scheduler that no longer exists, and a retried attempt
// rebuilds them from its fresh scheduler.
func (s *mstate) clearModelState(ji int, at int64) {
	j := s.jobs[ji]
	switch s.model {
	case Async:
		s.bufferedN -= len(j.aready)
		j.aready = j.aready[:0]
		j.acomp = j.acomp[:0]
		if s.met != nil {
			s.met.ReadyOccupancy.Set(int64(s.bufferedN))
		}
	case Adaptive:
		s.mNoteStarve(at)
		for w := range s.mab {
			sh := &s.mab[w]
			if sh.job != ji {
				continue
			}
			s.hoardNow -= len(sh.tasks) - sh.next
			sh.job = -1
			sh.tasks = sh.tasks[:0]
			sh.next = 0
			sh.done = sh.done[:0]
		}
	}
}

// failJob handles job ji's failure at time at (proc is the worker whose
// completion carried it, -1 for a deadline abort). A retryable failure
// with retries left restarts the job on a fresh scheduler after its
// capped exponential backoff; otherwise the job retires with err while
// its co-tenants keep running. Either way the attempt generation bumps
// first, orphaning every in-flight completion of the dead attempt — the
// run loop frees those workers and discards their results, so a failed
// job can never corrupt a surviving one.
func (s *mstate) failJob(ji int, at int64, proc int, err error, retryable bool) {
	j := s.jobs[ji]
	j.attempt++
	s.clearModelState(ji, at)
	if retryable && j.retriesLeft > 0 {
		j.retriesLeft--
		j.attempts++
		s.retries++
		if s.met != nil {
			s.met.Retries.Inc(0)
		}
		restart := at + backoffDelay(j.spec.Backoff, j.attempts)
		sched, nerr := core.New(j.spec.Prog, j.opt)
		if nerr != nil {
			// Unreachable: the same (prog, opt) compiled at setup.
			panic(fmt.Sprintf("sim: retry recompile of job %q failed: %v", j.spec.Name, nerr))
		}
		j.sched = sched
		fin := s.serve(restart, sched.Start())
		j.openAt = fin
		s.syncReady(j)
		s.orderDirty = true
		if s.tr != nil {
			s.tr.Record(trace.KRetry, at, int32(proc), int32(ji), -1, 0, 0, int64(j.attempts))
		}
		// Re-ask before waking: wake(fin) can re-anchor an emptied event
		// queue at fin, after which a push at the earlier at would be
		// rejected as time travel.
		if proc >= 0 {
			s.push(mitem{at: at, proc: proc, gen: s.askGen[proc]})
		}
		s.wake(fin)
		return
	}
	j.err = err
	j.done = true
	if s.met != nil {
		s.met.JobsDone.Inc(0)
		s.met.ActiveJobs.Add(-1)
		if errors.Is(err, context.DeadlineExceeded) {
			s.met.DeadlineMisses.Inc(0)
		}
	}
	s.liveCount--
	if j.deficit > 0 {
		s.creditCount--
	}
	s.orderDirty = true
	s.rebalance()
	if at > j.makespan {
		j.makespan = at
		if at > s.front {
			s.front = at
		}
	}
	s.syncReady(j)
	if s.tr != nil {
		s.tr.Record(trace.KAbort, at, int32(proc), int32(ji), -1, 0, 0, 0)
	}
	if proc >= 0 {
		s.push(mitem{at: at, proc: proc, gen: s.askGen[proc]})
	}
}

// queueCanRefill reports whether a run-loop recovery branch can
// regenerate events from an empty queue: deferred management work, Async
// completions parked behind a busy server, or ready work a dropped
// wakeup stranded behind parked workers. The conditions mirror the run
// loop's recovery branches exactly — those branches run AFTER the
// deadline check, so a true here guarantees the loop still makes
// progress when the deadline check defers to it.
func (s *mstate) queueCanRefill() bool {
	if s.deferredN > 0 {
		return true
	}
	if s.model == Async {
		for _, j := range s.jobs {
			if len(j.acomp) > 0 {
				return true
			}
		}
	}
	if s.plan != nil && s.parkedN > 0 {
		avail := s.readyTotal
		if s.model == Async {
			avail += s.bufferedN
		}
		if avail > 0 {
			return true
		}
	}
	return false
}

// checkDeadlines aborts every live job whose deadline has passed: a job
// is failed exactly AT its deadline once no remaining event could finish
// it in time (the next queued event lies beyond the deadline, or the
// queue is truly dead). The abort wraps context.DeadlineExceeded and
// never retries. It reports whether any job was aborted.
func (s *mstate) checkDeadlines() bool {
	next, have := s.queue.peekTime()
	if !have && s.queueCanRefill() {
		// An empty event queue is not the end of time: under Async,
		// completions routinely park behind a busy server with every
		// worker idle, and the run loop's recovery branches (deferred
		// absorb, forced completion drain, dropped-wakeup re-wake)
		// regenerate events from exactly this state. Defer to them — the
		// regenerated event carries the real frontier, and the next pass
		// fails any job it cannot save.
		return false
	}
	fired := false
	for ji, j := range s.jobs {
		if j.done || j.spec.Deadline <= 0 {
			continue
		}
		if have && next <= j.spec.Deadline {
			continue
		}
		s.failJob(ji, j.spec.Deadline, -1,
			fmt.Errorf("sim: job %q exceeded its deadline of %d units: %w",
				j.spec.Name, j.spec.Deadline, context.DeadlineExceeded),
			false)
		fired = true
	}
	return fired
}
