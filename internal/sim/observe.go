package sim

// This file is the virtual-time observability surface: a simulation run
// configured with Config.Observer emits periodic Snapshots as its virtual
// frontier advances, so a caller can watch utilization and overhead build
// up *inside* a deterministic run instead of only reading the final
// Result. The emission points are deterministic — snapshots fire when the
// frontier crosses fixed virtual-time marks, never from a wall-clock
// ticker — so an observed run produces the same snapshot sequence every
// time, and observation cannot perturb the schedule.

// Snapshot is one periodic observation of a running simulation. All
// counters are cumulative since t=0. IdleUnits only counts closed park
// intervals (a worker still parked at the snapshot mark contributes
// nothing until it wakes), matching how the run loop accounts idle time.
type Snapshot struct {
	// VirtualTime is the frontier the run had reached when the snapshot
	// fired: the later of the management server's horizon and the last
	// task completion.
	VirtualTime int64
	// Tasks is the number of tasks dispatched so far.
	Tasks int64
	// ComputeUnits, MgmtUnits and IdleUnits are the cumulative totals so
	// far, in virtual units. ComputeUnits counts completed tasks only —
	// in-flight tasks' remaining work is excluded, so Utilization can
	// never read above 1.
	ComputeUnits int64
	MgmtUnits    int64
	IdleUnits    int64
	// Utilization is ComputeUnits / (Procs * VirtualTime) so far.
	Utilization float64
	// OverheadShare is MgmtUnits / (Procs * VirtualTime) so far — the
	// work-inflation share the executive is consuming.
	OverheadShare float64
	// Batch is the Adaptive model's current refill batch size (zero under
	// the other models) — live evidence of the controller moving.
	Batch int
	// Jobs is the number of unfinished jobs, counting down to 0 on the
	// Final snapshot (a job run alone reads 1 while it is live).
	Jobs int
	// Final marks the closing snapshot, emitted once at the makespan with
	// the run's finished totals.
	Final bool
}

// observeStride picks the default snapshot stride for a run whose total
// cost divided over the workers estimates the makespan: about 16
// snapshots per run.
func observeStride(totalCost int64, workers int) int64 {
	est := totalCost/int64(workers) + 1
	stride := est / 16
	if stride < 1 {
		stride = 1
	}
	return stride
}

// observer is the run loop's snapshot emission state.
type observer struct {
	fn     func(Snapshot)
	stride int64
	next   int64
}

func newObserver(fn func(Snapshot), every, totalCost int64, workers int) *observer {
	if fn == nil {
		return nil
	}
	if every <= 0 {
		every = observeStride(totalCost, workers)
	}
	return &observer{fn: fn, stride: every, next: every}
}

// maybe emits one snapshot when the run's frontier has crossed the next
// mark. now must report the frontier and snap must build the snapshot at
// it; both are thunks the caller pre-binds once, so the per-event cost is
// one indirect call against a cached O(1) frontier — never a fresh
// closure allocation or an O(jobs) scan. Advancing next past the
// frontier (not by one stride) keeps long event gaps from flushing a
// burst of identical snapshots. It reports the frontier and whether a
// snapshot fired, so the caller can flight-record the observation mark
// at the same deterministic point (trace KMark).
func (o *observer) maybe(now func() int64, snap func(at int64) Snapshot) (int64, bool) {
	if o == nil {
		return 0, false
	}
	frontier := now()
	if frontier < o.next {
		return frontier, false
	}
	o.fn(snap(frontier))
	o.next = (frontier/o.stride + 1) * o.stride
	return frontier, true
}

// final emits the closing snapshot.
func (o *observer) final(s Snapshot) {
	if o == nil {
		return
	}
	s.Final = true
	o.fn(s)
}
