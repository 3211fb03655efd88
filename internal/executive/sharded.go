package executive

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// sharded is the parallel Manager: each worker owns a lock-free Chase-Lev
// task deque and a local completion batch, so the global lock that guards
// the state machine is acquired once per batch instead of once per task —
// and the per-task path between acquisitions costs no lock at all.
//
//   - Refill: when a worker's deque drains it acquires the global lock
//     once, submits its accumulated completions (CompleteBatch), and pulls
//     up to cap tasks (NextTasks). The first refilled task is returned
//     directly; the rest are pushed into the worker's own deque in reverse
//     priority order, so the owner's popBottom consumes them in the state
//     machine's priority order while thieves steal the lowest-priority
//     end.
//   - Batched completion: completions accumulate per worker and are
//     applied to the state machine in one lock acquisition when the batch
//     fills or at the next refill, whichever comes first.
//   - Work stealing: a worker whose deque drains during rundown sweeps the
//     other shards and CAS-steals up to half of the first non-empty deque
//     it finds into its own — no lock, no allocation — before falling back
//     to the global refill path.
//   - Adaptive batching (Config.Adaptive): cap and batch are retuned
//     online by a Tuner from the observed management and idle shares each
//     refill epoch; see adaptive.go.
//
// Invariants the stall detector relies on: a worker only parks after its
// deque is empty, a steal sweep failed, and its completion batch was
// flushed under the global lock; nothing refills a parked worker's deque
// or batch. So when every worker is parked, no task is held anywhere
// outside the state machine and InFlight()==0 identifies a true stall.
type sharded struct {
	mu   sync.Mutex // guards sm, cap, waiting, err, mgmt, idle
	cond *sync.Cond

	sm      StateMachine
	workers int
	rec     *trace.Recorder // flight recorder (nil = tracing off)
	met     *telemetry.Set  // steal/retune counters (nil = metrics off)
	cap     int             // deque refill batch size, guarded by mu (the tuner moves it)

	// batch is the completion batch size. It is read lock-free on the
	// per-task Complete path and rewritten under mu by the tuner, hence
	// atomic.
	batch atomic.Int32

	shards []shard
	failed atomic.Bool // fast-path abort flag, mirrors err != nil

	// stealTick rotates the steal-sweep start position across calls so
	// starving workers spread their first probes over different victims
	// instead of all hammering the same neighbor.
	stealTick atomic.Uint64
	// stealNS accumulates time spent inside steal sweeps (CAS loops and
	// deque transfers outside the global lock). It is management work —
	// the sharded analogue of executive dispatch — and is folded into
	// Mgmt() so computation-to-management ratios do not undercount
	// sharded management.
	stealNS atomic.Int64

	// Adaptive controller state, guarded by mu; tuner is nil when
	// adaptivity is disabled. lockNS accumulates time spent *acquiring*
	// the global lock (contention wait, the amortizable per-visit
	// overhead the tuner steers on — distinct from mgmt, the time spent
	// inside it).
	tuner      *Tuner
	lockNS     time.Duration
	hoardIdle  time.Duration // parked time that began with peer deques nonempty
	lockStarve time.Duration // parked time that began with the mgmt path occupied
	epochStart int64         // clock reading at the current epoch's start
	epochLock  time.Duration // lockNS snapshot at epoch start
	epochHI    time.Duration // hoardIdle snapshot at epoch start
	epochLS    time.Duration // lockStarve snapshot at epoch start

	// visitors counts workers currently inside the global management path
	// (refill, batch flush). Maintained only when the tuner is enabled;
	// read at park time to classify the wait: parking while another
	// worker occupies the path is lock starvation — the signal the
	// overhead share cannot see at large P, because cond-parked waiters
	// never touch the mutex.
	visitors atomic.Int32

	// Accumulators, guarded by mu.
	mgmt    time.Duration
	idle    time.Duration
	waiting int
	err     error
}

// shard is one worker's local state. dq is the lock-free task deque: the
// owner pushes refills and pops the bottom; thieves CAS the top. done is
// the owner-only completion batch and refillBuf the owner-only scratch the
// refill path hands to NextTasks, so steady-state refills and steals
// allocate nothing.
type shard struct {
	dq        *deque
	done      []core.Task
	refillBuf []core.Task
}

// adaptiveEpoch is the minimum wall time between tuner observations.
const adaptiveEpoch = time.Millisecond

func newSharded(sm StateMachine, cfg Config) *sharded {
	dequeCap, batch := cfg.DequeCap, cfg.Batch
	if dequeCap <= 0 {
		dequeCap = 16
	}
	if batch <= 0 {
		batch = 8
	}
	m := &sharded{
		sm:      sm,
		workers: cfg.Workers,
		rec:     cfg.Trace,
		met:     cfg.Metrics,
		cap:     dequeCap,
		shards:  make([]shard, cfg.Workers),
	}
	m.batch.Store(int32(batch))
	for i := range m.shards {
		m.shards[i].dq = newDeque(dequeCap)
	}
	if cfg.Adaptive {
		m.tuner = NewTuner(TunerConfig{
			Cap: dequeCap, Batch: batch, MgmtTarget: cfg.MgmtTarget,
		})
		m.cap = m.tuner.Cap()
		m.batch.Store(int32(m.tuner.Batch()))
	}
	if m.met != nil {
		m.met.BatchSize.Set(int64(m.cap))
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *sharded) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m0 := clock.Now()
	m.sm.Start()
	m1 := clock.Now()
	m.mgmt += time.Duration(m1 - m0)
	m.epochStart = m1
}

func (m *sharded) Next(w int) (core.Task, bool) {
	if m.failed.Load() {
		return core.Task{}, false
	}
	if t, ok := m.shards[w].dq.popBottom(); ok {
		return t, true
	}
	if t, ok := m.steal(w); ok {
		return t, true
	}
	return m.refill(w, true)
}

// TryNext is the non-blocking Next the multi-tenant pool drives: local
// deque, then a steal sweep, then one non-parking pass through the global
// refill path (which flushes this worker's completion batch and absorbs
// deferred management before declaring the state machine dry). ok=false
// means nothing is dispatchable right now; the pool decides whether to
// look at another job or park.
func (m *sharded) TryNext(w int) (core.Task, bool) {
	if m.failed.Load() {
		return core.Task{}, false
	}
	if t, ok := m.shards[w].dq.popBottom(); ok {
		return t, true
	}
	if t, ok := m.steal(w); ok {
		return t, true
	}
	return m.refill(w, false)
}

// steal sweeps the other shards and CAS-steals up to half of the first
// non-empty deque it finds, transferring the loot into this worker's own
// deque and popping one task to run. The owner pops the bottom (the state
// machine's priority order), so thieves taking the top trade a small
// priority inversion for a single CAS per task and zero allocation. The
// sweep start rotates per call (stealTick): a fixed w+1 start would make
// every starving worker hammer the same neighbor first under contention.
// Sweep time is charged to stealNS — it is management work done outside
// the global lock.
func (m *sharded) steal(w int) (core.Task, bool) {
	n := len(m.shards)
	if n < 2 {
		return core.Task{}, false
	}
	t0 := clock.Now()
	defer func() { m.stealNS.Add(clock.Now() - t0) }()
	var ring *trace.Ring
	if m.rec != nil {
		ring = m.rec.Ring(w)
		ring.Record(trace.KStealAttempt, m.rec.At(t0), int32(w), 0, -1, 0, 0, 0)
	}
	if m.met != nil {
		m.met.StealAttempts.Inc(w)
	}
	own := m.shards[w].dq
	start := int(m.stealTick.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if idx == w {
			continue
		}
		v := m.shards[idx].dq
		k := v.size()
		if k <= 0 {
			continue
		}
		take := (k + 1) / 2
		var got int64
		for got < take {
			t, ok := v.steal()
			if !ok {
				break
			}
			own.pushBottom(t)
			got++
		}
		if got == 0 {
			continue
		}
		// The last transfer is the highest-priority task stolen; run it.
		if t, ok := own.popBottom(); ok {
			if ring != nil {
				// Arg carries the victim; Lo the number of tasks taken.
				ring.Record(trace.KStealWin, m.rec.Now(), int32(w), 0,
					int32(t.Phase), uint32(got), 0, int64(idx))
			}
			if m.met != nil {
				m.met.StealWins.Inc(w)
			}
			return t, true
		}
		// Everything we moved was re-stolen already; keep sweeping.
	}
	if ring != nil {
		ring.Record(trace.KStealLose, m.rec.Now(), int32(w), 0, -1, 0, 0, 0)
	}
	if m.met != nil {
		m.met.StealLoses.Inc(w)
	}
	return core.Task{}, false
}

// refill is the global-lock path: flush this worker's completion batch,
// pull a deque refill, absorb deferred management, or (when park is set)
// park. Returning ok=false means the program is done, the run was
// aborted, the manager detected a stall, or — non-parking callers only —
// nothing is dispatchable right now.
func (m *sharded) refill(w int, park bool) (core.Task, bool) {
	if m.tuner != nil {
		m.visitors.Add(1)
		defer m.visitors.Add(-1)
	}
	m.lockMeasured()
	defer m.mu.Unlock()
	triedSteal := false
	for {
		if m.err != nil {
			return core.Task{}, false
		}
		m0 := clock.Now()
		m.flushLocked(w)
		if m.err != nil {
			// A recovered completion-processing panic may have left the
			// state machine inconsistent; do not touch it again.
			m.mgmt += clock.Since(m0)
			return core.Task{}, false
		}
		ts, _ := m.sm.NextTasks(m.shards[w].refillBuf[:0], m.cap)
		m.shards[w].refillBuf = ts[:0]
		m1 := clock.Now()
		m.mgmt += time.Duration(m1 - m0)
		m.retuneLocked(m1)
		if len(ts) > 0 {
			sh := &m.shards[w]
			// Reverse push: the owner's popBottom then yields ts[1],
			// ts[2], ... in the state machine's priority order, and
			// thieves steal from ts[len-1], the lowest-priority end.
			for i := len(ts) - 1; i >= 1; i-- {
				sh.dq.pushBottom(ts[i])
			}
			// Wake parked peers — one per task they could acquire: they
			// can pull their own refill from the state machine, or —
			// when this refill drained it — steal from the deque we
			// just filled.
			if m.waiting > 0 {
				if avail := len(ts) - 1 + m.sm.ReadyTasks(); avail > 0 {
					m.wakeLocked(avail)
				} else {
					m.wakeStealerLocked()
				}
			}
			return ts[0], true
		}
		if m.sm.Done() {
			m.cond.Broadcast()
			return core.Task{}, false
		}

		// Idle executive moment: absorb deferred management (successor
		// splitting, incremental composite-map builds) before parking.
		if m.sm.HasDeferred() {
			d0 := clock.Now()
			_, _ = m.sm.DeferredMgmt()
			m.mgmt += clock.Since(d0)
			continue
		}

		if !park {
			return core.Task{}, false
		}

		// The state machine is dry, but a peer's deque may have refilled
		// since our last sweep: try stealing once more before parking.
		if !triedSteal {
			m.mu.Unlock()
			t, ok := m.steal(w)
			m.mu.Lock()
			triedSteal = true
			if ok {
				return t, true
			}
			continue
		}

		// Every other worker parked only after flushing its batch and
		// emptying its deque, so InFlight()==0 here means no task exists
		// anywhere outside the state machine: a true stall.
		if m.waiting+1 == m.workers && m.sm.InFlight() == 0 {
			m.failLocked(fmt.Errorf("executive: stalled at phase %d: all workers idle, nothing in flight",
				m.sm.CurrentPhase()))
			return core.Task{}, false
		}
		// For the adaptive controller: a park that begins while peer
		// deques still hold tasks is starvation a smaller refill batch
		// would have fed (hoarded idle); a park with every deque empty
		// is a genuine rundown tail, which must not shrink the batch. A
		// park that begins while another worker actively occupies the
		// management path is lock starvation — the grow signal that
		// scales with P where the overhead share saturates; see
		// adaptive.go. visitors counts every worker inside the path,
		// including this one and every cond-parked waiter (they park
		// inside refill, so their increment persists through the wait);
		// subtracting m.waiting — stable here, under mu — leaves only
		// the active occupants, so a phase barrier or rundown tail full
		// of parked peers does not read as a saturated lock.
		hoardedAtPark, lockBusyAtPark := false, false
		if m.tuner != nil {
			for i := range m.shards {
				if m.shards[i].dq.size() > 0 {
					hoardedAtPark = true
					break
				}
			}
			lockBusyAtPark = m.visitors.Load()-int32(m.waiting) > 1
		}
		i0 := clock.Now()
		if m.rec != nil {
			m.rec.Ring(w).Record(trace.KPark, m.rec.At(i0), int32(w), 0, -1, 0, 0, 0)
		}
		m.waiting++
		m.cond.Wait()
		m.waiting--
		i1 := clock.Now()
		d := time.Duration(i1 - i0)
		m.idle += d
		if m.rec != nil {
			m.rec.Ring(w).Record(trace.KUnpark, m.rec.At(i1), int32(w), 0, -1, 0, 0, int64(d))
		}
		if hoardedAtPark {
			m.hoardIdle += d
		}
		if lockBusyAtPark {
			m.lockStarve += d
		}
		triedSteal = false
	}
}

// lockMeasured acquires m.mu, charging the acquisition wait to lockNS —
// the per-visit overhead (contention) that batch sizing amortizes, which
// the adaptive controller steers on. Without a controller it is a plain
// Lock: the fixed-parameter manager must not pay clock reads the old code
// did not (m.tuner is set once at construction, so the unsynchronized
// read is safe).
func (m *sharded) lockMeasured() {
	if m.tuner == nil {
		m.mu.Lock()
		return
	}
	l0 := clock.Now()
	m.mu.Lock()
	m.lockNS += clock.Since(l0)
}

// retuneLocked feeds the adaptive controller one epoch when enough wall
// time has passed since the last observation: the lock-acquisition wait
// is the amortizable overhead, and parked time that began with peer
// deques nonempty the hoarded-idle (starvation) share. now is the clock
// reading that ended the caller's management interval. Caller holds m.mu.
func (m *sharded) retuneLocked(now int64) {
	if m.tuner == nil {
		return
	}
	elapsed := time.Duration(now - m.epochStart)
	if elapsed < adaptiveEpoch {
		return
	}
	capacity := int64(elapsed) * int64(m.workers)
	cap, batch, changed := m.tuner.Observe(capacity,
		int64(m.lockNS-m.epochLock), int64(m.hoardIdle-m.epochHI),
		int64(m.lockStarve-m.epochLS))
	if changed {
		m.cap = cap
		m.batch.Store(int32(batch))
		if m.rec != nil {
			m.rec.Emit(trace.KRetune, m.rec.Now(), -1, 0, -1, 0, 0, int64(cap))
		}
		if m.met != nil {
			m.met.Retunes.Inc(0)
			m.met.BatchSize.Set(int64(cap))
		}
	}
	m.epochStart = now
	m.epochLock = m.lockNS
	m.epochHI = m.hoardIdle
	m.epochLS = m.lockStarve
}

// wakeLocked wakes up to n parked workers — targeted Signals instead of a
// Broadcast thundering herd when fewer tasks than sleepers exist. Caller
// holds m.mu.
func (m *sharded) wakeLocked(n int) {
	if n >= m.waiting {
		m.cond.Broadcast()
		return
	}
	for i := 0; i < n; i++ {
		m.cond.Signal()
	}
}

// Complete accumulates t in worker w's local batch, submitting the batch
// to the state machine in one lock acquisition when it fills.
func (m *sharded) Complete(w int, t core.Task) bool {
	sh := &m.shards[w]
	sh.done = append(sh.done, t)
	if len(sh.done) < int(m.batch.Load()) {
		return false
	}
	if m.tuner != nil {
		m.visitors.Add(1)
		defer m.visitors.Add(-1)
	}
	m.lockMeasured()
	m0 := clock.Now()
	m.flushLocked(w)
	m.mgmt += clock.Since(m0)
	m.mu.Unlock()
	return true
}

// flushLocked applies worker w's accumulated completions to the state
// machine. Completions release successor work, so parked peers are woken —
// one Signal per task now ready (or one for pending deferred management)
// rather than an unconditional Broadcast; completion of the program or an
// error still releases everyone. Caller holds m.mu.
func (m *sharded) flushLocked(w int) {
	sh := &m.shards[w]
	if len(sh.done) == 0 {
		return
	}
	if m.err != nil {
		// The run already failed (abort, cancellation, earlier panic): the
		// batch is dropped, not applied — nothing may mutate the state
		// machine after the failure point, because the pool and Job.Wait
		// read its statistics as soon as the job is retired.
		sh.done = sh.done[:0]
		return
	}
	func() {
		defer func() {
			if r := recover(); r != nil && m.err == nil {
				m.failLocked(fmt.Errorf("executive: completion processing panicked: %v", r))
			}
		}()
		m.sm.CompleteBatch(sh.done)
	}()
	sh.done = sh.done[:0]
	switch {
	case m.err != nil || m.sm.Done():
		m.cond.Broadcast()
	case m.waiting > 0:
		if avail := m.sm.ReadyTasks(); avail > 0 {
			m.wakeLocked(avail)
		} else if m.sm.HasDeferred() {
			// No task is ready but deferred management is: one worker
			// can absorb it (and wake the others if it releases work).
			m.cond.Signal()
		} else {
			m.wakeStealerLocked()
		}
	}
}

// wakeStealerLocked wakes one parked worker when the state machine is dry
// but a peer's deque still holds stealable tasks. A worker can park in
// the window between its failed steal sweep and a peer's refill landing;
// without this, a flush or refill that released nothing new would leave
// it asleep while the remaining work drains single-threaded (the old
// unconditional Broadcast covered the window by brute force). The woken
// worker re-sweeps before re-parking, and its own later flushes wake the
// next stealer if deques are still nonempty. Caller holds m.mu.
func (m *sharded) wakeStealerLocked() {
	for i := range m.shards {
		if m.shards[i].dq.size() > 0 {
			m.cond.Signal()
			return
		}
	}
}

// failLocked records err (first wins) and releases everyone. Caller holds
// m.mu.
func (m *sharded) failLocked(err error) {
	if m.err == nil {
		m.err = err
		recordAbort(m.rec)
	}
	m.failed.Store(true)
	m.cond.Broadcast()
}

// Flush submits worker w's accumulated completion batch to the state
// machine. The pool calls it when a worker switches jobs, so a job's last
// completions cannot linger in the batch of a worker now busy elsewhere.
func (m *sharded) Flush(w int) bool {
	if len(m.shards[w].done) == 0 {
		return false
	}
	if m.tuner != nil {
		m.visitors.Add(1)
		defer m.visitors.Add(-1)
	}
	m.lockMeasured()
	defer m.mu.Unlock()
	m0 := clock.Now()
	m.flushLocked(w)
	m.mgmt += clock.Since(m0)
	return true
}

// Done reports whether the state machine has completed every phase.
func (m *sharded) Done() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sm.Done()
}

// InFlight reports dispatched-but-incomplete tasks, including tasks
// parked in worker-local deques and completions awaiting a batch flush.
func (m *sharded) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sm.InFlight()
}

// Abort terminates the run with err — unless the state machine has
// already completed (checked under the global lock, no window): a late
// cancellation must not poison a fully-executed run's results. Callers
// observe the refusal through Err() == nil.
func (m *sharded) Abort(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil && m.sm.Done() {
		return
	}
	m.failLocked(err)
}

func (m *sharded) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

func (m *sharded) Mgmt() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mgmt + time.Duration(m.stealNS.Load())
}

func (m *sharded) Idle() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.idle
}
