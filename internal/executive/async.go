package executive

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// async is the dedicated-management-processor Manager: the paper's "some
// real parallel machines may provide separate processors for the
// executive" (the sim's Dedicated model) realized on hardware. One
// background management goroutine owns the state machine exclusively;
// workers never touch the state-machine lock on any steady-state path.
//
//   - Ready-buffer: workers pull tasks from a bounded buffered channel
//     (Config.ReadyCap) the management goroutine keeps topped up via
//     NextTasks. A channel receive is the whole per-task dispatch cost on
//     the worker side, and each send wakes at most one parked receiver —
//     the targeted wakeup, with the runtime doing the targeting.
//   - Completions: workers push into a lock-free MPSC queue (mpsc.go) and
//     ring the management doorbell; the management goroutine drains the
//     queue in batches of Config.Batch via CompleteBatch.
//   - Deferred management: the management goroutine runs DeferredMgmt
//     whenever the ready-buffer is above Config.LowWater — the paper's
//     "overlap deferred management with computation", here genuinely
//     concurrent on a separate thread — and also when a refill comes up
//     empty, because deferred work may be the only source of new releases.
//   - Fallback: when GOMAXPROCS leaves the management goroutine no spare
//     core it can sit descheduled while workers starve on an empty buffer.
//     Workers detect that through the drain-latency watermark (no
//     management cycle finished within asyncDrainStale while work is
//     queued) and run a management cycle inline under smMu — degrading
//     the async manager into a coarse-grained locked manager instead of
//     spinning. The same path absorbs a full completion queue.
//
// Measurement: Mgmt() is the state-machine time of management cycles
// (wherever they ran); Idle() is worker time blocked on an empty ready
// buffer. The management goroutine itself is not a worker: like the sim's
// Dedicated model, its processor is not in the utilization denominator —
// that is exactly the resource trade the paper's comparison prices.
//
// Invariants the stall detectors rely on: every task popped from the
// state machine is immediately in the ready channel, held by a worker, or
// queued/applied as a completion, so the state machine's InFlight count
// covers everything outside it. The management goroutine parks on the
// doorbell only when InFlight > 0 (completions are coming and will ring)
// or after finishing; workers ring the doorbell whenever they push a
// completion or find the buffer empty, so the cycle after the last
// completion always observes the final state.
type async struct {
	sm      StateMachine
	workers int
	rec     *trace.Recorder // flight recorder (nil = tracing off)
	met     *telemetry.Set  // ready-buffer occupancy gauge (nil = metrics off)

	readyCap int
	lowWater int
	batch    int // completion drain chunk per CompleteBatch call

	ready chan core.Task // bounded ready-buffer; closed when the run is over
	comp  *mpsc          // completion queue, workers -> management goroutine
	wake  chan struct{}  // management doorbell, capacity 1

	// smMu serializes state-machine access between the management
	// goroutine and inline-fallback cycles run on worker goroutines. The
	// ready channel is sent to only under smMu (after a finished check),
	// so a send can never race the close.
	smMu sync.Mutex

	failed    atomic.Bool // Abort/stall/panic happened; mirrors err != nil
	finished  atomic.Bool // set under smMu exactly once when the run is over
	closeOnce sync.Once
	loopDone  chan struct{} // closed when the management goroutine exits

	errMu sync.Mutex
	err   error

	notify func() // pool progress callback; nil outside a pool

	mgmtNS       atomic.Int64 // state-machine time of management cycles
	idleNS       atomic.Int64 // worker time blocked on the empty ready buffer
	lastDrain    atomic.Int64 // clock reading at the end of the last management cycle
	inlineCycles atomic.Int64 // fallback cycles run on worker goroutines

	// Management-side scratch, guarded by smMu: the refill buffer handed
	// to NextTasks and the drain buffer handed to CompleteBatch, so
	// steady-state cycles allocate nothing.
	refillBuf []core.Task
	drainBuf  []core.Task
}

// asyncDrainStale is the drain-latency watermark: with work queued for
// the management goroutine and no cycle finished for this long, workers
// assume it is descheduled and drain inline.
const asyncDrainStale = 200 * time.Microsecond

func newAsync(sm StateMachine, cfg Config) *async {
	readyCap := cfg.ReadyCap
	if readyCap <= 0 {
		// The paper's outset condition, applied to the buffer: about two
		// buffered tasks per processor keeps everyone fed across a refill.
		readyCap = 2 * cfg.Workers
		if readyCap < 8 {
			readyCap = 8
		}
	}
	low := cfg.LowWater
	if low <= 0 {
		low = readyCap / 4
		if low < 1 {
			low = 1
		}
	}
	if low >= readyCap {
		low = readyCap - 1
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 8
	}
	return &async{
		sm:       sm,
		workers:  cfg.Workers,
		rec:      cfg.Trace,
		met:      cfg.Metrics,
		readyCap: readyCap,
		lowWater: low,
		batch:    batch,
		ready:    make(chan core.Task, readyCap),
		// Between two drains at most ReadyCap buffered + Workers executing
		// tasks can complete; the extra Workers is racing margin. Overflow
		// is not lost either way: a full push falls back to inline drain.
		comp:     newMPSC(readyCap + 2*cfg.Workers),
		wake:     make(chan struct{}, 1),
		loopDone: make(chan struct{}),
	}
}

// SetNotify registers the pool progress callback (Notifier). Call before
// Start.
func (m *async) SetNotify(fn func()) { m.notify = fn }

// Join blocks until the management goroutine has exited. Call only after
// the run is over (workers exited or Abort called); it is the point after
// which the state machine is quiescent and its statistics safe to read.
func (m *async) Join() { <-m.loopDone }

// Start activates the program, performs the first refill synchronously so
// workers find work immediately, and spawns the management goroutine.
func (m *async) Start() {
	m.smMu.Lock()
	m0 := clock.Now()
	m.sm.Start()
	m.refillLocked()
	m1 := clock.Now()
	m.mgmtNS.Add(m1 - m0)
	m.lastDrain.Store(m1)
	m.smMu.Unlock()
	go m.loop()
}

// loop is the management goroutine: run cycles until the program is done,
// aborted, or stalled; park on the doorbell in between.
func (m *async) loop() {
	defer close(m.loopDone)
	for {
		if !m.cycle() {
			return
		}
		<-m.wake
	}
}

// cycle runs one management pass and reports whether the loop should
// continue. The pool progress callback fires outside smMu (the pool takes
// its own lock inside it, and holds that lock while probing this manager).
func (m *async) cycle() bool {
	m.smMu.Lock()
	alive, progressed := m.cycleLocked()
	m.smMu.Unlock()
	if progressed && m.notify != nil {
		m.notify()
	}
	return alive
}

// cycleLocked is the management pass: drain completions, top up the ready
// buffer, overlap deferred management, detect completion and stalls.
// Caller holds smMu. It returns alive=false when the run is over and
// progressed=true when completions were applied, tasks were buffered, or
// the run finished — the events a pool parked elsewhere must hear about.
func (m *async) cycleLocked() (alive, progressed bool) {
	if m.finished.Load() {
		return false, false
	}
	for {
		// The failure check precedes the drain: once the run has failed
		// (abort, cancellation, panic) queued completions are dropped,
		// never applied — the same nothing-mutates-the-state-machine-
		// after-the-failure-point invariant the serial and sharded
		// managers enforce on their submission paths.
		if m.failed.Load() {
			m.finishLocked()
			return false, true
		}
		m0 := clock.Now()
		drained := m.drainLocked()
		if drained {
			progressed = true
		}
		if m.failed.Load() {
			// A recovered completion-processing panic may have left the
			// state machine inconsistent; do not touch it again.
			m.mgmtNS.Add(clock.Now() - m0)
			m.finishLocked()
			return false, true
		}
		refilled := m.refillLocked()
		if refilled {
			progressed = true
		}
		done := m.sm.Done()
		// m1 ends the cycle's management interval and is the drain
		// watermark's touch: one reading for both.
		m1 := clock.Now()
		m.mgmtNS.Add(m1 - m0)
		if done {
			m.finishLocked()
			return false, true
		}

		// Deferred management: overlap it with computation while the
		// ready buffer is healthy, and absorb it whenever a refill came
		// up empty — it may be the only source of new releases. One unit
		// per iteration keeps the loop responsive to arriving completions.
		if m.sm.HasDeferred() && (len(m.ready) > m.lowWater || !refilled) {
			d0 := clock.Now()
			_, _ = m.sm.DeferredMgmt()
			m.mgmtNS.Add(clock.Now() - d0)
			continue
		}

		if !drained && !refilled {
			// Nothing to apply, nothing to hand out, no deferred work. If
			// nothing is in flight either, no future completion can ring
			// the doorbell: the scheduler has stalled — a bug its liveness
			// guarantees should prevent; fail loudly instead of parking
			// forever.
			if m.sm.InFlight() == 0 {
				m.fail(fmt.Errorf("executive: stalled at phase %d: ready-buffer empty, nothing in flight",
					m.sm.CurrentPhase()))
				m.finishLocked()
				return false, true
			}
			m.lastDrain.Store(m1)
			return true, progressed
		}

		// Progress was made; go around again — more completions may have
		// landed while we refilled.
		m.lastDrain.Store(m1)
	}
}

// drainLocked applies queued completions in batches of m.batch. Caller
// holds smMu. Panics in completion processing fail the run, as in the
// other managers.
func (m *async) drainLocked() bool {
	any := false
	for {
		buf := m.drainBuf[:0]
		for len(buf) < m.batch {
			t, ok := m.comp.pop()
			if !ok {
				break
			}
			buf = append(buf, t)
		}
		m.drainBuf = buf[:0]
		if len(buf) == 0 {
			return any
		}
		any = true
		func() {
			defer func() {
				if r := recover(); r != nil {
					m.fail(fmt.Errorf("executive: completion processing panicked: %v", r))
				}
			}()
			m.sm.CompleteBatch(buf)
		}()
		if m.failed.Load() {
			return any
		}
	}
}

// refillLocked tops the ready buffer up from the state machine. Caller
// holds smMu; sends cannot block because only the smMu holder sends and
// the free-slot count is computed first, and cannot hit a closed channel
// because finishLocked runs under the same mutex.
func (m *async) refillLocked() bool {
	free := m.readyCap - len(m.ready)
	if free <= 0 {
		return false
	}
	ts, _ := m.sm.NextTasks(m.refillBuf[:0], free)
	m.refillBuf = ts[:0]
	for _, t := range ts {
		m.ready <- t
	}
	if m.met != nil && len(ts) > 0 {
		// Occupancy right after the top-up; workers pop concurrently, so
		// the gauge is a sample, not an invariant.
		m.met.ReadyOccupancy.Set(int64(len(m.ready)))
	}
	return len(ts) > 0
}

// finishLocked marks the run over and closes the ready buffer, releasing
// every worker parked in a receive. Caller holds smMu. The doorbell ring
// covers the case where an inline-fallback cycle finished the run while
// the management goroutine was parked.
func (m *async) finishLocked() {
	m.finished.Store(true)
	m.closeOnce.Do(func() { close(m.ready) })
	m.ring()
}

// fail records err (first wins) and raises the fast-path abort flag.
func (m *async) fail(err error) {
	m.errMu.Lock()
	first := m.err == nil
	if first {
		m.err = err
	}
	m.errMu.Unlock()
	if first {
		recordAbort(m.rec)
	}
	m.failed.Store(true)
}

// ring rings the management doorbell (level-triggered: extra rings while
// one is pending are dropped, and every cycle re-reads all state).
func (m *async) ring() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// tryInlineCycle runs one management cycle on the calling worker
// goroutine if the state machine is free — the shared body of every
// worker-side fallback. It never blocks behind a live management
// goroutine, and fires the pool notify outside the lock exactly as the
// management goroutine's own cycle does.
func (m *async) tryInlineCycle() {
	if !m.smMu.TryLock() {
		return
	}
	m.inlineCycles.Add(1)
	_, progressed := m.cycleLocked()
	m.smMu.Unlock()
	if progressed && m.notify != nil {
		m.notify()
	}
}

// helpIfStale runs a management cycle on this worker goroutine when the
// management goroutine appears descheduled: no cycle has finished within
// the drain-latency watermark. This is the no-spare-core degradation
// path — with GOMAXPROCS too small for a dedicated management thread the
// async manager behaves like a coarse-grained locked manager instead of
// letting workers spin behind a starved thread.
func (m *async) helpIfStale() {
	if clock.Now()-m.lastDrain.Load() < int64(asyncDrainStale) {
		return
	}
	m.tryInlineCycle()
}

// vet filters a ready-channel receive: a closed channel or a raised abort
// flag ends the worker's run (a task received after Abort is dropped — the
// run's results are void).
func (m *async) vet(t core.Task, ok bool) (core.Task, bool) {
	if !ok || m.failed.Load() {
		return core.Task{}, false
	}
	return t, true
}

// Next blocks until a task is available: fast path one channel receive,
// slow path ring the doorbell (so the management goroutine re-evaluates
// after the last completion), help inline past the watermark, then park
// in the receive — the next refill's send is the targeted wakeup.
func (m *async) Next(w int) (core.Task, bool) {
	select {
	case t, ok := <-m.ready:
		return m.vet(t, ok)
	default:
	}
	if m.failed.Load() {
		return core.Task{}, false
	}
	m.ring()
	m.helpIfStale()
	select {
	case t, ok := <-m.ready:
		return m.vet(t, ok)
	default:
	}
	i0 := clock.Now()
	if m.rec != nil {
		m.rec.Ring(w).Record(trace.KPark, m.rec.At(i0), int32(w), 0, -1, 0, 0, 0)
	}
	t, ok := <-m.ready
	i1 := clock.Now()
	m.idleNS.Add(i1 - i0)
	if m.rec != nil {
		m.rec.Ring(w).Record(trace.KUnpark, m.rec.At(i1), int32(w), 0, -1, 0, 0, i1-i0)
	}
	return m.vet(t, ok)
}

// TryNext is the non-blocking Next the multi-tenant pool drives. Unlike
// the inline managers it cannot absorb management on the calling worker
// in the common case — management belongs to the background goroutine —
// so ok=false means "nothing buffered right now": the doorbell has been
// rung, and the pool's progress callback (Notifier) fires when the
// management goroutine produces work, waking pool-parked workers.
func (m *async) TryNext(w int) (core.Task, bool) {
	if m.failed.Load() {
		return core.Task{}, false
	}
	select {
	case t, ok := <-m.ready:
		return m.vet(t, ok)
	default:
	}
	m.ring()
	m.helpIfStale()
	select {
	case t, ok := <-m.ready:
		return m.vet(t, ok)
	default:
		return core.Task{}, false
	}
}

// Complete pushes the completion into the MPSC queue and rings the
// management doorbell. It reports false: the completion has only been
// handed to the management goroutine, so no successor work can have been
// released by this call — the pool learns about releases through the
// Notifier callback instead. A completion arriving after the run failed
// is dropped, matching the other managers' post-failure contract.
func (m *async) Complete(w int, t core.Task) bool {
	if m.failed.Load() || m.finished.Load() {
		return false
	}
	for !m.comp.push(t) {
		// Queue full: the management goroutine is far behind. Help drain
		// inline, or yield to whoever currently owns the state machine.
		if m.failed.Load() || m.finished.Load() {
			return false
		}
		m.tryInlineCycle()
		runtime.Gosched()
	}
	m.ring()
	if m.comp.size() >= int64(m.batch) {
		m.helpIfStale()
	}
	return false
}

// Flush has nothing to flush — completions are already queued to the
// management goroutine; it just rings the doorbell so they are applied
// promptly once the worker moves to another job.
func (m *async) Flush(w int) bool {
	m.ring()
	return false
}

// Done reports whether the state machine has completed every phase.
func (m *async) Done() bool {
	m.smMu.Lock()
	defer m.smMu.Unlock()
	return m.sm.Done()
}

// InFlight reports dispatched-but-incomplete tasks. Tasks in the ready
// buffer, held by workers, and completions queued but not yet applied are
// all still in flight from the state machine's point of view, so the
// pool's all-parked stall probe cannot mistake a busy async manager for a
// stalled one.
func (m *async) InFlight() int {
	m.smMu.Lock()
	defer m.smMu.Unlock()
	return m.sm.InFlight()
}

// Abort terminates the run with err — unless the state machine has
// already completed (checked under smMu, the lock that serialized the
// finishing cycle, so there is no window): a late cancellation must not
// poison a fully-executed run's results. Callers observe the refusal
// through Err() == nil.
func (m *async) Abort(err error) {
	m.smMu.Lock()
	if !m.failed.Load() && m.sm.Done() {
		m.smMu.Unlock()
		return
	}
	// fail() under smMu: releasing the lock between the Done check and
	// the error store would let a final management cycle complete the
	// run in the gap and still get poisoned. smMu -> errMu is the
	// established order (management cycles call fail under smMu).
	m.fail(err)
	m.smMu.Unlock()
	m.ring()
}

func (m *async) Err() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.err
}

func (m *async) Mgmt() time.Duration { return time.Duration(m.mgmtNS.Load()) }
func (m *async) Idle() time.Duration { return time.Duration(m.idleNS.Load()) }

// InlineCycles reports how many management cycles ran on worker
// goroutines through the no-spare-core fallback (diagnostics).
func (m *async) InlineCycles() int64 { return m.inlineCycles.Load() }
