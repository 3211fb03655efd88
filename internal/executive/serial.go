package executive

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/trace"
)

// serial is the paper-baseline Manager: a single mutex guards every state
// machine interaction, exactly serializing management the way the single
// UNIVAC executive did. The time spent inside the lock is measured as
// management time, so the paper's computation-to-management ratio can be
// observed on real hardware.
type serial struct {
	mu   sync.Mutex
	cond *sync.Cond

	sm      StateMachine
	workers int
	rec     *trace.Recorder // flight recorder (nil = tracing off)

	// Accumulators, guarded by mu.
	mgmt    time.Duration
	idle    time.Duration
	waiting int
	err     error
}

func newSerial(sm StateMachine, cfg Config) *serial {
	m := &serial{sm: sm, workers: cfg.Workers, rec: cfg.Trace}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *serial) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m0 := clock.Now()
	m.sm.Start()
	m.mgmt += clock.Since(m0)
}

// Next asks the serial executive for work, absorbing deferred management
// in idle moments and parking when nothing is ready.
func (m *serial) Next(w int) (core.Task, bool) {
	return m.next(w, true)
}

// TryNext is the non-blocking Next the multi-tenant pool drives: when the
// executive has nothing dispatchable — even after absorbing deferred
// management — the worker goes to look at another job instead of parking.
func (m *serial) TryNext(w int) (core.Task, bool) {
	return m.next(w, false)
}

func (m *serial) next(w int, park bool) (core.Task, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.err != nil {
			return core.Task{}, false
		}
		m0 := clock.Now()
		task, _, ok := m.sm.NextTask()
		m.mgmt += clock.Since(m0)

		if ok {
			return task, true
		}
		if m.sm.Done() {
			m.cond.Broadcast()
			return core.Task{}, false
		}

		// Idle executive moment: absorb deferred successor-splitting
		// management tasks before parking.
		if m.sm.HasDeferred() {
			m1 := clock.Now()
			_, _ = m.sm.DeferredMgmt()
			m.mgmt += clock.Since(m1)
			m.cond.Broadcast()
			continue
		}

		if !park {
			return core.Task{}, false
		}

		// Park until a completion or release makes work available. If
		// every worker is parked with nothing in flight, the scheduler
		// has stalled — a bug its liveness guarantees should prevent;
		// fail loudly instead of deadlocking.
		if m.waiting+1 == m.workers && m.sm.InFlight() == 0 {
			m.err = fmt.Errorf("executive: stalled at phase %d: all workers idle, nothing in flight",
				m.sm.CurrentPhase())
			recordAbort(m.rec)
			m.cond.Broadcast()
			return core.Task{}, false
		}
		i0 := clock.Now()
		if m.rec != nil {
			m.rec.Ring(w).Record(trace.KPark, m.rec.At(i0), int32(w), 0, -1, 0, 0, 0)
		}
		m.waiting++
		m.cond.Wait()
		m.waiting--
		i1 := clock.Now()
		m.idle += time.Duration(i1 - i0)
		if m.rec != nil {
			m.rec.Ring(w).Record(trace.KUnpark, m.rec.At(i1), int32(w), 0, -1, 0, 0, i1-i0)
		}
	}
}

// Complete submits the completion immediately under the global lock. A
// completion arriving after the run failed (abort, cancellation, panic)
// is dropped without touching the state machine: the run's results are
// void, and nothing may mutate the state machine after the failure point
// — Job.Wait and the report path read its statistics as soon as the job
// is retired.
func (m *serial) Complete(w int, t core.Task) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return false
	}
	m1 := clock.Now()
	func() {
		defer func() {
			if r := recover(); r != nil && m.err == nil {
				m.err = fmt.Errorf("executive: completion processing panicked: %v", r)
				recordAbort(m.rec)
			}
		}()
		m.sm.Complete(t)
	}()
	m.mgmt += clock.Since(m1)
	m.cond.Broadcast()
	return true
}

// Flush is a no-op: serial completions are submitted immediately.
func (m *serial) Flush(w int) bool { return false }

// Done reports whether the state machine has completed every phase.
func (m *serial) Done() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sm.Done()
}

// InFlight reports dispatched-but-incomplete tasks.
func (m *serial) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sm.InFlight()
}

// Abort terminates the run with err. A run whose state machine has
// already completed refuses the abort (checked under the same lock that
// serialized the completion, so there is no window): every Work
// function ran and the results are valid — a late cancellation must not
// poison them. Callers observe the refusal through Err() == nil.
func (m *serial) Abort(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil && m.sm.Done() {
		return
	}
	if m.err == nil {
		m.err = err
		recordAbort(m.rec)
	}
	m.cond.Broadcast()
}

func (m *serial) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

func (m *serial) Mgmt() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mgmt
}

func (m *serial) Idle() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.idle
}
