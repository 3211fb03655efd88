package executive

// Deterministic fault injection on the real goroutine backend. The same
// fault.Plan the simulator consults in virtual time is consulted here at
// the matching chokepoints, with wall-clock effects bounded by
// fault.Sleep so a campaign can never turn a run into a sleep marathon:
//
//   - grain faults strike in the worker loop around execute: a slow grain
//     (and a slow worker) stretches the task's measured compute, a stuck
//     grain withholds the completion, a panicking grain replaces the work
//     function with one that panics — exercising the engine's recover
//     machinery end to end — and an erroring grain aborts with an
//     injected error before execute runs;
//   - worker crash retires the goroutine after its completion is
//     submitted: graceful capacity loss, no task lost. Managers that
//     census workers for stall detection or keep per-worker state are
//     told through the optional Retirer interface;
//   - management faults delay a completion's submission (MgmtDelay).
//     DropWakeup and the unbounded wedge are pool/simulator concepts —
//     the plain executive has no watchdog to recover them, so injecting
//     them here would trade a priced fault for a hang.
//
// Every firing is flight-recorded as a KFault event (Arg = fault.Kind).

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/granule"
	"repro/internal/trace"
)

// Retirer is implemented by managers that must be told when a worker
// retires mid-run (fault injection's WorkerCrash): the manager flushes
// the worker's local state and removes it from the census its stall
// detector counts against, so the survivors' all-parked probe stays
// sound with fewer workers alive.
type Retirer interface {
	Retire(w int)
}

// Retire removes w from the serial stall census. Serial keeps no
// per-worker state to flush; the broadcast re-evaluates the all-parked
// check under the new worker count.
func (m *serial) Retire(w int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workers--
	m.cond.Broadcast()
}

// Retire flushes w's completion batch and removes it from the sharded
// stall census. Tasks still in w's deque stay where they are — they are
// stealable, and the broadcast sends every parked peer through one more
// steal sweep so they are picked up even when no future completion would
// have woken anyone.
func (m *sharded) Retire(w int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m0 := clock.Now()
	m.flushLocked(w)
	m.mgmt += clock.Since(m0)
	m.workers--
	m.cond.Broadcast()
}

// Retire rings the management doorbell. The async manager has no
// worker census (its stall probe runs on the management goroutine
// against InFlight) and no worker-local state — completions were already
// queued before the crash point.
func (m *async) Retire(w int) { m.ring() }

// taskFaults carries one dispatch's injected effects from the
// pre-execute consultation to the post-execute application.
type taskFaults struct {
	factor int64 // compute stretch (GrainSlow × WorkerSlow product)
	stall  int64 // completion withhold in units (GrainStall + WorkerWedge)
	err    error // injected failure (GrainError)
}

// sinceStart is the nanoseconds since the run started — the
// real-backend reading of a Rule's After field.
func (e *engine) sinceStart() int64 { return clock.Now() - e.start }

// noteFault flight-records and counts one injected fault firing.
func (e *engine) noteFault(w int, k fault.Kind) {
	if e.rec != nil {
		e.rec.Ring(w).Record(trace.KFault, e.rec.Now(), int32(w), 0, -1, 0, 0, int64(k))
	}
	e.met.Faults.Inc(w)
}

// injectTask consults the plan for worker- and grain-level faults on one
// dispatch, possibly replacing work with a panicking body (GrainPanic).
// Only called with a non-nil plan.
func (e *engine) injectTask(w int, task core.Task, work *core.WorkFn, tf *taskFaults) {
	at := e.sinceStart()
	tf.factor = 1
	if _, f, ok := e.plan.Worker(w, at, fault.WorkerSlow); ok {
		e.noteFault(w, fault.WorkerSlow)
		tf.factor *= f
	}
	if d, _, ok := e.plan.Worker(w, at, fault.WorkerWedge); ok {
		// On the plain executive a wedge is a bounded withhold (the pool's
		// release-gated wedge needs a stall probe or deadline above it).
		e.noteFault(w, fault.WorkerWedge)
		tf.stall += d
	}
	k, d, f := e.plan.Grain(0, int(task.Phase), uint32(task.Run.Lo), uint32(task.Run.Hi), at)
	if k == 0 {
		return
	}
	e.noteFault(w, k)
	switch k {
	case fault.GrainSlow:
		tf.factor *= f
	case fault.GrainStall:
		tf.stall += d
	case fault.GrainPanic:
		ph := task.Phase
		*work = func(granule.ID) {
			panic(fmt.Sprintf("fault: injected panic in phase %d", ph))
		}
	case fault.GrainError:
		tf.err = fmt.Errorf("executive: injected error in phase %d granules [%d,%d)",
			task.Phase, task.Run.Lo, task.Run.Hi)
	}
}

// stretchCompute sleeps the slow-fault extension of a task that just ran
// for dur — called inside the worker's compute-measurement window, so a
// slow grain shows up as inflated compute exactly as it does in virtual
// time.
func stretchCompute(dur time.Duration, factor int64) {
	if factor > 1 {
		fault.Sleep(int64(dur) * (factor - 1) / int64(time.Microsecond))
	}
}

// beforeComplete withholds the completion (stuck grain, wedged worker)
// and delays its submission to management (MgmtDelay). Only called with
// a non-nil plan.
func (e *engine) beforeComplete(w int, tf *taskFaults) {
	if tf.stall > 0 {
		fault.Sleep(tf.stall)
	}
	if d, ok := e.plan.Mgmt(0, e.sinceStart()); ok {
		e.noteFault(w, fault.MgmtDelay)
		fault.Sleep(d)
	}
}

// maybeCrash retires the worker after its completion was submitted when
// a WorkerCrash rule fires: the goroutine returns and never asks for
// work again. The last live worker refuses (the rule is consumed but
// ignored). Only called with a non-nil plan.
func (e *engine) maybeCrash(w int) bool {
	if _, _, ok := e.plan.Worker(w, e.sinceStart(), fault.WorkerCrash); !ok {
		return false
	}
	if e.live.Add(-1) < 1 {
		e.live.Add(1)
		return false
	}
	e.noteFault(w, fault.WorkerCrash)
	if r, ok := e.mgr.(Retirer); ok {
		r.Retire(w)
	}
	return true
}
