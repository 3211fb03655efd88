package sim

import (
	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/trace"
)

// This file is the Adaptive management model — the batched-executive
// protocol, with each worker's shard tagged by the job its last refill
// pulled from, so the virtual-time pricing covers what sharded batching
// costs a tenant machine:
//
//   - a worker pops its local shard for free while tasks remain — the
//     whole point of batching — and the shard's tasks all belong to one
//     job (the tag);
//   - a refill visit FLUSHES the shard's completion batch to its job
//     before probing for new work, so a worker switching jobs can never
//     strand completions of the job it leaves (flush-before-switch);
//     the probe order is the dispatch policy's candidate walk — home
//     first, then backfill by (priority, deficit, index) — with the
//     deficit credit for a foreign refill charged for the whole pulled
//     batch at pull time;
//   - one Acquire covers the combined flush+refill visit (the visited
//     job's own Acquire cost — each job prices its own lock), one charge
//     per lock visit;
//   - starvation is priced pool-wide: ONE hoarded-idle integral
//     (min(parked workers, hoarded tasks) over virtual time) and ONE
//     controller retune the shared batch knobs for the whole machine,
//     seeded from Config.Batch and enabled by Options.AdaptiveBatch on
//     any job.
//
// Conservation holds by construction: a shard's pending tasks keep their
// job from finishing until the owning worker dispatches and completes
// them (and the worker never parks while its shard holds tasks), and a
// parked worker always has an empty shard — its last refill visit flushed
// the completion batch before giving up.

// mshard is one worker's local state under the Adaptive model: the job
// tag, the task buffer a refill filled (tasks[next:] still pending), the
// completion batch awaiting a flush, and the NextTasks scratch. The tag
// covers both buffers: a worker completes only tasks it dispatched from
// its own shard, and flush-before-switch empties the completion batch
// before the tag can change.
type mshard struct {
	job   int
	tasks []core.Task
	next  int
	done  []core.Task
	buf   []core.Task
}

// madaptiveInit sets the pool-wide batch knobs, the per-worker shards,
// and — when any job opts into adaptive batching — the shared controller.
func (s *mstate) madaptiveInit(cfg Config, totalCost int64) {
	b := cfg.Batch
	if b <= 0 {
		b = 16
	}
	s.batchN, s.cbatchN = b, b/2
	if s.cbatchN < 1 {
		s.cbatchN = 1
	}
	for _, j := range s.jobs {
		if j.spec.Opt.AdaptiveBatch {
			s.tuner = executive.NewTuner(executive.TunerConfig{
				Cap: b, MgmtTarget: j.spec.Opt.MgmtTarget,
			})
			s.batchN, s.cbatchN = s.tuner.Cap(), s.tuner.Batch()
			break
		}
	}
	s.mab = make([]mshard, s.workers)
	for i := range s.mab {
		s.mab[i].job = -1
	}
	// Observation epochs: aim for ~100 per run so the multiplicative
	// controller has room to travel and settle.
	s.epochLen = (totalCost/int64(s.workers) + 1) / 100
	if s.epochLen < 1 {
		s.epochLen = 1
	}
}

// mNoteStarve advances the pool-wide hoarded-idle integral to now
// (Adaptive model only). Call before any change to the parked count or
// the hoarded-task count; out-of-order event times only stall the
// frontier, never rewind it.
func (s *mstate) mNoteStarve(now int64) {
	if s.model != Adaptive || now <= s.hiAt {
		return
	}
	if s.parkedN > 0 && s.hoardNow > 0 {
		n := int64(s.parkedN)
		if int64(s.hoardNow) < n {
			n = int64(s.hoardNow)
		}
		s.hiInt += n * (now - s.hiAt)
	}
	s.hiAt = now
}

// mMaybeRetune feeds the shared controller one epoch of pool-wide
// virtual-time measurements when enough virtual time has passed: the
// Acquire charges are the amortizable lock overhead, and the hoarded-idle
// integral the starvation a smaller batch would have fed. The virtual
// machine has no cond-parked-behind-the-lock state — every wait is priced
// into the serialized server directly — so the lock-starvation input is
// zero.
func (s *mstate) mMaybeRetune(now int64) {
	if s.tuner == nil || now-s.lastObsAt < s.epochLen {
		return
	}
	s.mNoteStarve(now)
	capacity := (now - s.lastObsAt) * int64(s.workers)
	cap, batch, changed := s.tuner.Observe(capacity,
		s.acquireUnits-s.lastObsAcq, s.hiInt-s.lastObsHI, 0)
	if changed {
		s.batchN, s.cbatchN = cap, batch
		if s.tr != nil {
			s.tr.Record(trace.KRetune, now, -1, -1, -1, 0, 0, int64(cap))
		}
		if s.met != nil {
			s.met.Retunes.Inc(0)
			s.met.BatchSize.Set(int64(cap))
		}
	}
	s.lastObsAt = now
	s.lastObsAcq = s.acquireUnits
	s.lastObsHI = s.hiInt
}

// mAcquire charges job j's per-lock-visit Acquire cost on the server and
// accrues it as the controller's amortizable-overhead input.
func (s *mstate) mAcquire(j *mjob, at int64) int64 {
	fin := s.serve(at, j.spec.Opt.Costs.Acquire)
	s.acquireUnits += int64(j.spec.Opt.Costs.Acquire)
	return fin
}

// mFlush applies shard sh's completion batch to its job through the
// serialized server, with the same serial-gate, makespan, and done
// bookkeeping as the plain completion path. It returns the finish time.
func (s *mstate) mFlush(sh *mshard, at int64) int64 {
	j := s.jobs[sh.job]
	serial0 := j.sched.SerialCost()
	cost := j.sched.CompleteBatch(sh.done)
	fin := s.serve(at, cost)
	for _, t := range sh.done {
		j.noteEnd(t, fin)
	}
	sh.done = sh.done[:0]
	if j.sched.SerialCost() > serial0 && fin > j.openAt {
		j.openAt = fin
	}
	if fin > j.makespan {
		j.makespan = fin
		if fin > s.front {
			s.front = fin
		}
	}
	s.noteJobDone(j)
	s.syncReady(j)
	return fin
}

// madaptiveAsk serves a worker's ask under the Adaptive model: pop the
// local shard for free, or make one serialized visit that flushes the
// shard's completion batch (to the job it belongs to) and then walks the
// dispatch-policy candidates for the next refill.
func (s *mstate) madaptiveAsk(req mitem) {
	if !s.beginAsk(req) {
		return
	}
	// The crash hook defers while the shard holds tasks (they are not
	// re-queueable) and flushes the completion batch before retiring the
	// worker, so no work is stranded.
	if s.plan != nil && s.maybeCrash(req.proc, req.at) {
		return
	}
	sh := &s.mab[req.proc]
	if sh.next < len(sh.tasks) {
		// Local shard pop: no management charge.
		task := sh.tasks[sh.next]
		sh.next++
		s.mNoteStarve(req.at)
		s.hoardNow--
		if s.met != nil {
			s.met.DispatchWait.Observe(0)
		}
		s.dispatch(req.proc, sh.job, sh.job != s.homes[req.proc], task, req.at)
		return
	}
	// Refill visit. Completions flush first (they may release the very
	// work the refill then pulls, and the worker may be about to switch
	// jobs); one Acquire covers the combined visit.
	at := req.at
	flushed := false
	if len(sh.done) > 0 {
		at = s.mFlush(sh, at)
		flushed = true
	}
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
		ts, dc := j.sched.NextTasks(sh.buf[:0], s.batchN)
		s.syncReady(j)
		at = s.serve(at, dc)
		if len(ts) == 0 {
			sh.buf = ts[:0]
			continue // dry probe: the candidate walk moves on
		}
		at = s.mAcquire(j, at)
		if ji != home {
			// Deficit credit for the whole foreign batch, charged when the
			// work is taken from the job — the batched form of the plain
			// per-dispatch charge.
			var n int64
			for _, t := range ts {
				n += int64(t.Run.Len())
			}
			s.noteDeficit(j, -n)
		}
		s.mMaybeRetune(at)
		// Wake after the refill: the visit's flush (and NextTasks' liveness
		// fallback) can release work beyond what this worker's batch took,
		// and parked peers must see it.
		s.wake(at)
		sh.job = ji
		sh.tasks, sh.buf, sh.next = ts, ts[:0], 1
		s.mNoteStarve(at)
		s.hoardNow += len(ts) - 1
		if s.met != nil {
			s.met.DispatchWait.Observe(at - req.at)
		}
		s.dispatch(req.proc, ji, ji != home, ts[0], at)
		return
	}
	if flushed {
		at = s.mAcquire(s.jobs[sh.job], at)
		s.mMaybeRetune(at)
		s.wake(at)
	}
	s.park(req.proc, at)
	if reopen >= 0 {
		s.pendingAt[req.proc] = reopen
		s.askGen[req.proc]++
		s.push(mitem{at: reopen, proc: req.proc, gen: s.askGen[req.proc]})
	}
}

// madaptiveComplete accumulates a completion in the worker's shard,
// flushing it through one serialized visit when the completion batch
// fills. The shard's tag already names the completing job — a worker has
// one outstanding task, dispatched from its own shard.
func (s *mstate) madaptiveComplete(req mitem) {
	s.doneUnits += req.dur
	sh := &s.mab[req.proc]
	sh.done = append(sh.done, req.task)
	if req.at > s.lastDone {
		s.lastDone = req.at
		if req.at > s.front {
			s.front = req.at
		}
	}
	at := req.at
	if len(sh.done) >= s.cbatchN {
		at = s.mAcquire(s.jobs[sh.job], at)
		at = s.mFlush(sh, at)
		s.mMaybeRetune(at)
		s.wake(at)
	} else {
		// Batched: the completion waits in the worker's local batch at no
		// management charge; the phase still saw the event.
		s.jobs[sh.job].noteEnd(req.task, at)
	}
	// The worker asks for new work once its completion is handed off.
	s.push(mitem{at: at, proc: req.proc, gen: s.askGen[req.proc]})
}
