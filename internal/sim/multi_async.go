package sim

import "repro/internal/core"

// This file is the Async management model: the Dedicated model (a
// separate executive processor beside all P workers) extended with the
// async executive's ready-buffer protocol, so the virtual-time pricing
// matches what internal/executive's AsyncManager does on hardware:
//
//   - the dedicated server keeps a bounded ready buffer PER JOB (each
//     job's slice of Config.ReadyCap), topped up with batched NextTasks
//     pulls charged on the server's serialized lane;
//   - a worker's ask walks its dispatch-policy candidates (home first,
//     then backfill order) and pops the first non-empty buffer for free —
//     the hardware channel receive, so worker latency is decoupled from
//     management service. The backfill gate is the home buffer found dry
//     after a top-up attempt, mirroring the plain models' "home has
//     nothing dispatchable" probe. Deficit-round-robin credit is charged
//     when a foreign slot is popped, exactly as the plain dispatch
//     charges it;
//   - each buffered task carries the virtual time the server finished
//     producing it (never earlier than its job's openAt serial gate), and
//     a dispatch starts no earlier than that — production time, not
//     server availability, is what a worker waits on;
//   - completions queue per job and are applied in fused CompleteBatch
//     drains whenever the server has caught up — under load they
//     accumulate, exactly like the MPSC queue backing up behind a busy
//     management goroutine, which is where completion-batch fusion pays
//     (last resort: the main loop forces a drain when no worker event is
//     left to trigger one);
//   - deferred management is absorbed on the server whenever a job's
//     buffer is above the low-water mark (the overlap-with-computation
//     rule), on top of the generic idle-executive absorption in the main
//     loop.
//
// Like Dedicated, the server's processor is not part of the utilization
// denominator: Procs counts the computing workers only, which is the
// resource trade the paper's steals-worker/dedicated comparison prices.
//
// Conservation holds by construction: a job cannot reach Done while any
// of its tasks sit buffered (they have not completed), and a buffered
// task can always be claimed — wake counts buffered tasks as
// availability, and a worker parked behind a serial gate schedules its
// own reopen retry.

// asyncSlot is one ready-buffer entry: a task plus the virtual time the
// server finished producing it.
type asyncSlot struct {
	task core.Task
	at   int64
}

// masyncInit sizes the per-job ready buffers with the hardware manager's
// defaults (executive.Config). With one shared server feeding several
// jobs, the whole-machine default (2*workers, minimum 8) is split across
// the jobs so aggregate buffering matches a job run alone; an explicit
// Config.ReadyCap applies per job.
func (s *mstate) masyncInit(cfg Config) {
	rc := cfg.ReadyCap
	if rc <= 0 {
		rc = 2 * s.workers / len(s.jobs)
		if rc < 8 {
			rc = 8
		}
	}
	lw := cfg.LowWater
	if lw <= 0 {
		lw = rc / 4
		if lw < 1 {
			lw = 1
		}
	}
	if lw >= rc {
		lw = rc - 1
	}
	s.readyCap, s.lowWater = rc, lw
}

// masyncTopUp pulls one batched NextTasks refill into job j's buffer,
// charging the server and stamping each slot with its production time
// (clamped to the job's serial-gate reopening, so a gated phase's tasks
// cannot start early). It reports whether anything was buffered.
func (s *mstate) masyncTopUp(j *mjob, now int64) bool {
	if j.done {
		return false
	}
	free := s.readyCap - len(j.aready)
	if free <= 0 {
		return false
	}
	ts, dc := j.sched.NextTasks(j.abuf[:0], free)
	s.syncReady(j)
	fin := s.serve(now, dc)
	stamp := fin
	if j.openAt > stamp {
		stamp = j.openAt
	}
	for _, task := range ts {
		j.aready = append(j.aready, asyncSlot{task: task, at: stamp})
	}
	j.abuf = ts[:0]
	s.bufferedN += len(ts)
	if s.met != nil && len(ts) > 0 {
		s.met.ReadyOccupancy.Set(int64(s.bufferedN))
	}
	return len(ts) > 0
}

// masyncServiceJob is one pass of the shared server on behalf of job ji:
// drain the job's queued completions when caught up (force drains
// regardless), top its buffer up, and overlap one unit of the job's
// deferred management while the buffer is above the low-water mark.
// Parked workers are woken when the pass buffered anything.
func (s *mstate) masyncServiceJob(ji int, now int64, force bool) {
	j := s.jobs[ji]
	buffered := false
	for {
		worked := false
		if len(j.acomp) > 0 && (force || s.serverFree <= now) {
			serial0 := j.sched.SerialCost()
			cost := j.sched.CompleteBatch(j.acomp)
			fin := s.serve(now, cost)
			for _, t := range j.acomp {
				j.noteEnd(t, fin)
			}
			j.acomp = j.acomp[:0]
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
			worked = true
		}
		if s.masyncTopUp(j, now) {
			worked = true
			buffered = true
		}
		if !worked {
			break
		}
	}
	// At most one deferred unit per pass — the hardware cycle's rule
	// (overlap deferred work with computation while workers are fed), and
	// in virtual time also a modeling necessity: the buffer cannot drain
	// mid-pass, so a per-iteration gate would let one pass absorb the
	// whole deferred queue while workers starve behind it. Bulk
	// absorption belongs to the main loop's idle-executive path, which is
	// bounded by the event horizon. A unit that released work gets one
	// refill attempt so the release reaches the buffer this pass.
	if !j.done && j.hasDef && len(j.aready) > s.lowWater {
		if cost, ok := j.sched.DeferredMgmt(); ok {
			s.serve(now, cost)
			s.syncReady(j)
			if s.masyncTopUp(j, now) {
				buffered = true
			}
		}
	}
	if buffered {
		s.wake(now)
	}
}

// masyncAsk serves a worker's ask under the Async model: walk the
// dispatch-policy candidates and pop the first non-empty ready buffer for
// free. A dry candidate gets one top-up attempt (charged to the server,
// not the worker — the background server is always running; the ask is
// just the moment virtual time can observe it), and only a home buffer
// still dry after that opens the backfill gate to the next candidate.
func (s *mstate) masyncAsk(req mitem) {
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
			// The job's between-phase serial action is still running; its
			// buffered slots are stamped at or after openAt anyway, but new
			// production on its behalf must wait too.
			if reopen < 0 || j.openAt < reopen {
				reopen = j.openAt
			}
			continue
		}
		if len(j.aready) == 0 {
			s.masyncServiceJob(ji, at, false)
		}
		if len(j.aready) == 0 {
			continue // dry after the top-up attempt: backfill gate opens
		}
		sl := j.aready[0]
		j.aready = j.aready[1:]
		s.bufferedN--
		dat := at
		if sl.at > dat {
			dat = sl.at
		}
		if ji != home {
			s.noteDeficit(j, -int64(sl.task.Run.Len()))
		}
		if s.met != nil {
			s.met.ReadyOccupancy.Set(int64(s.bufferedN))
			s.met.DispatchWait.Observe(dat - req.at)
		}
		s.dispatch(req.proc, ji, ji != home, sl.task, dat)
		// Top the buffer back up behind the pop so the next ask finds it
		// warm.
		s.masyncServiceJob(ji, dat, false)
		return
	}
	s.park(req.proc, at)
	if reopen >= 0 {
		s.pendingAt[req.proc] = reopen
		s.askGen[req.proc]++
		s.push(mitem{at: reopen, proc: req.proc, gen: s.askGen[req.proc]})
	}
}

// masyncComplete queues a completion behind the server on its job's
// completion queue. The worker asks for new work immediately — it hands
// the completion off and never waits on management, the async executive's
// defining property.
func (s *mstate) masyncComplete(req mitem) {
	s.doneUnits += req.dur
	j := s.jobs[req.job]
	j.acomp = append(j.acomp, req.task)
	j.noteEnd(req.task, req.at)
	if req.at > s.lastDone {
		s.lastDone = req.at
		if req.at > s.front {
			s.front = req.at
		}
	}
	s.masyncServiceJob(req.job, req.at, false)
	s.push(mitem{at: req.at, proc: req.proc, gen: s.askGen[req.proc]})
}
