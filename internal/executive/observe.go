package executive

import (
	"context"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// This file is the goroutine executive's observability surface: a run
// configured with Config.Observer is sampled by a dedicated goroutine at
// Config.ObservePeriod, so a caller watches utilization and management
// overhead build up while the run is live instead of only reading the
// final Report. Unlike the simulator's virtual-time observer the sampler
// is wall-clock driven, so the snapshot *sequence* is not deterministic —
// but sampling only reads counters the run already maintains (worker
// atomics plus the manager's Mgmt/Idle accessors), so observation does
// not change scheduling decisions.

// Snapshot is one observation of a running executive. All values are
// cumulative since Start.
type Snapshot struct {
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Tasks is the number of tasks executed so far.
	Tasks int64
	// Compute, Mgmt and Idle are the summed worker-execution,
	// manager-serialized, and parked durations so far.
	Compute time.Duration
	Mgmt    time.Duration
	Idle    time.Duration
	// Utilization is Compute / (Workers * Elapsed) so far.
	Utilization float64
	// OverheadShare is Mgmt / (Workers * Elapsed) so far — live work
	// inflation.
	OverheadShare float64
	// Final marks the closing snapshot, emitted once after the run is
	// over — with the Report's finished totals on success, with the
	// counters accumulated so far on failure or cancellation.
	Final bool
	// Done reports whether the program actually completed: true on a
	// successful run's Final snapshot, false on live snapshots and on
	// the Final snapshot of a failed or cancelled run.
	Done bool
}

// DefaultObservePeriod is the sampling period when a config's
// ObservePeriod is unset (shared with the tenant pool's sampler).
const DefaultObservePeriod = 10 * time.Millisecond

// Sampler periodically invokes a sample function on its own goroutine —
// the shared lifecycle behind Config.Observer here and the tenant
// pool's observer. Stop halts the ticker and joins the goroutine
// (leak-free teardown); the owner emits its Final snapshot itself after
// Stop, so a final observation never races a live sample.
type Sampler struct {
	stopCh chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// StartSampler begins calling sample every period (<= 0 selects
// DefaultObservePeriod); sample must be safe to call concurrently with
// the observed run (read atomics and lock-guarded accessors only).
func StartSampler(period time.Duration, sample func()) *Sampler {
	if period <= 0 {
		period = DefaultObservePeriod
	}
	s := &Sampler{stopCh: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return s
}

// Stop halts sampling and joins the sampler goroutine. Safe on a nil
// receiver and idempotent (even across concurrent calls).
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.stopCh) })
	s.wg.Wait()
}

// WatchCancel spawns the cancellation-watcher goroutine shared by
// RunContext and the Runner's pool backend: when ctx fires, abort is
// called once with the raw ctx.Err() (the caller wraps it in its own
// error text). The returned stop function releases and joins the
// watcher; call it exactly once, after the run is over, so teardown is
// goroutine-leak-free. A nil or never-cancellable ctx costs nothing.
func WatchCancel(ctx context.Context, abort func(error)) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	runOver := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-ctx.Done():
			abort(ctx.Err())
		case <-runOver:
		}
	}()
	return func() {
		close(runOver)
		<-watchDone
	}
}

// liveSnapshot builds a mid-run observation from the metric set and the
// manager accessors — the registry is the single source of truth for the
// counters, and telemetry.Shares for the derived ratios, so a sampler
// callback and a Prometheus scrape can never disagree.
func (e *engine) liveSnapshot(workers int) Snapshot {
	e.syncTimes()
	sn := Snapshot{
		Elapsed: clock.Since(e.start),
		Tasks:   e.met.Completions.Value(),
		Compute: time.Duration(e.met.ComputeTime.Value()),
		Mgmt:    e.mgr.Mgmt(),
		Idle:    e.mgr.Idle(),
	}
	sn.Utilization, sn.OverheadShare = telemetry.Shares(
		int64(sn.Compute), int64(sn.Mgmt), workers, int64(sn.Elapsed))
	return sn
}
