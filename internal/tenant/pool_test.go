package tenant

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/executive"
	"repro/internal/granule"
	"repro/internal/trace"
)

// buildCopyChain builds the three-phase identity copy chain used across
// the executive tests, with its own backing arrays.
func buildCopyChain(t testing.TB, n int) (*core.Program, []int64, []int64, []int64) {
	t.Helper()
	a := make([]int64, n)
	b := make([]int64, n)
	c := make([]int64, n)
	prog, err := core.NewProgram(
		&core.Phase{
			Name: "fill", Granules: n,
			Work:   func(g granule.ID) { a[g] = int64(g) * 3 },
			Enable: enable.NewIdentity(),
		},
		&core.Phase{
			Name: "copy", Granules: n,
			Work:   func(g granule.ID) { b[g] = a[g] + 1 },
			Enable: enable.NewIdentity(),
		},
		&core.Phase{
			Name: "mix", Granules: n,
			Work: func(g granule.ID) { c[g] = b[g] ^ a[g] },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return prog, a, b, c
}

func checkCopyChain(t testing.TB, a, b, c []int64) {
	t.Helper()
	for g := range a {
		wantA := int64(g) * 3
		wantB := wantA + 1
		if a[g] != wantA || b[g] != wantB || c[g] != wantB^wantA {
			t.Fatalf("granule %d: a=%d b=%d c=%d", g, a[g], b[g], c[g])
		}
	}
}

// runSingleJobPool runs prog as the only job of a fresh pool and returns
// its report plus the pool report.
func runSingleJobPool(t *testing.T, prog *core.Program, opt core.Options, cfg Config) (*executive.Report, *Report) {
	t.Helper()
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := p.Submit(prog, opt, JobConfig{Name: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	poolRep, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	return rep, poolRep
}

// TestPoolConformance proves a single-job pool is report-equivalent to
// executive.Run under every manager. With one worker the scheduling
// decision sequence is deterministic, so the state-machine statistics and
// task counts must match Execute exactly; with several workers the
// decision interleaving is timing-dependent, so equivalence is the
// structural part: identical results, every granule exactly once, and a
// complete report. The async manager skips the exact part even at one
// worker — its management goroutine's refill boundaries race the worker's
// pulls, so the decision sequence is inherently timing-dependent.
func TestPoolConformance(t *testing.T) {
	const n = 2048
	opt := func() core.Options {
		return core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}
	}
	for _, kind := range executive.ManagerKinds() {
		if kind != executive.AsyncManager {
			// One worker: exact equivalence.
			prog, a1, b1, c1 := buildCopyChain(t, n)
			execRep, err := executive.Run(prog, opt(), executive.Config{
				Workers: 1, Manager: kind, DequeCap: 8, Batch: 4,
			})
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			checkCopyChain(t, a1, b1, c1)

			prog2, a2, b2, c2 := buildCopyChain(t, n)
			poolRep, _ := runSingleJobPool(t, prog2, opt(), Config{
				Workers: 1, Manager: kind, DequeCap: 8, Batch: 4,
			})
			checkCopyChain(t, a2, b2, c2)

			if poolRep.Manager != execRep.Manager {
				t.Errorf("%v: manager %v != %v", kind, poolRep.Manager, execRep.Manager)
			}
			if poolRep.Tasks != execRep.Tasks {
				t.Errorf("%v: pool ran %d tasks, Execute ran %d", kind, poolRep.Tasks, execRep.Tasks)
			}
			if poolRep.Sched != execRep.Sched {
				t.Errorf("%v: scheduler stats diverge:\npool:    %+v\nexecute: %+v",
					kind, poolRep.Sched, execRep.Sched)
			}
		}

		// Eight workers: structural equivalence.
		prog3, a3, b3, c3 := buildCopyChain(t, n)
		rep8, pr8 := runSingleJobPool(t, prog3, opt(), Config{
			Workers: 8, Manager: kind, DequeCap: 8, Batch: 4,
		})
		checkCopyChain(t, a3, b3, c3)
		if rep8.Tasks == 0 || rep8.Compute <= 0 || rep8.Wall <= 0 {
			t.Errorf("%v/8 workers: degenerate report %v", kind, rep8)
		}
		if rep8.Sched.Completions == 0 {
			t.Errorf("%v/8 workers: no completions recorded", kind)
		}
		if pr8.BackfillTasks != 0 {
			t.Errorf("%v/8 workers: single-job pool recorded %d backfill tasks", kind, pr8.BackfillTasks)
		}
		if pr8.Jobs != 1 || pr8.Tasks != rep8.Tasks {
			t.Errorf("%v/8 workers: pool report %+v inconsistent with job report", kind, pr8)
		}
	}
}

// TestPoolTwoJobsRace is the -race workout the acceptance criteria call
// for: >= 2 concurrent jobs on a shared pool under the sharded manager
// with small deques and batches (constant stealing, flushing, and
// cross-job dispatch), verifying both jobs' results.
func TestPoolTwoJobsRace(t *testing.T) {
	const n = 2048
	for _, cfg := range []Config{
		{Workers: 8, Manager: executive.ShardedManager, DequeCap: 4, Batch: 2},
		// The async arm runs one management goroutine per job beside the
		// 8 shared workers, with tiny buffers forcing constant refills,
		// MPSC drains, and pool-level notify wakeups.
		{Workers: 8, Manager: executive.AsyncManager, ReadyCap: 4, LowWater: 1, Batch: 2},
	} {
		p, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		progA, aA, bA, cA := buildCopyChain(t, n)
		progB, aB, bB, cB := buildCopyChain(t, n)
		jobA, err := p.Submit(progA, core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()},
			JobConfig{Name: "A"})
		if err != nil {
			t.Fatal(err)
		}
		jobB, err := p.Submit(progB, core.Options{Grain: 4, Overlap: true, Costs: core.DefaultCosts()},
			JobConfig{Name: "B", Priority: 1})
		if err != nil {
			t.Fatal(err)
		}
		repA, errA := jobA.Wait()
		repB, errB := jobB.Wait()
		if errA != nil || errB != nil {
			t.Fatalf("%v: job errors: A=%v B=%v", cfg.Manager, errA, errB)
		}
		checkCopyChain(t, aA, bA, cA)
		checkCopyChain(t, aB, bB, cB)
		if repA.Tasks == 0 || repB.Tasks == 0 {
			t.Fatalf("%v: degenerate reports: A=%v B=%v", cfg.Manager, repA, repB)
		}
		rep, err := p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Jobs != 2 || rep.Tasks != repA.Tasks+repB.Tasks {
			t.Errorf("%v: pool report %+v inconsistent with job reports", cfg.Manager, rep)
		}
	}
}

// TestPoolSerialTwoJobs runs the same two-job workout under the serial
// manager.
func TestPoolSerialTwoJobs(t *testing.T) {
	const n = 1024
	p, err := NewPool(Config{Workers: 4, Manager: executive.SerialManager})
	if err != nil {
		t.Fatal(err)
	}
	progA, aA, bA, cA := buildCopyChain(t, n)
	progB, aB, bB, cB := buildCopyChain(t, n)
	jobA, _ := p.Submit(progA, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}, JobConfig{})
	jobB, _ := p.Submit(progB, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}, JobConfig{})
	if _, err := jobA.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := jobB.Wait(); err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, aA, bA, cA)
	checkCopyChain(t, aB, bB, cB)
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolBackfillDuringRundown pins the tentpole behaviour: a job whose
// tail tasks block its home workers leaves spare capacity, and the pool
// routes that capacity to the other job as backfill. The blocker job's
// work sleeps (releasing the CPU — the host may have a single core), so
// its home workers hit real rundown windows while the filler job still
// has dispatchable tasks.
func TestPoolBackfillDuringRundown(t *testing.T) {
	runBackfillRundown(t, Config{Workers: 4, Manager: executive.ShardedManager, DequeCap: 2, Batch: 1})
}

// TestPoolBackfillAsync runs the same rundown-backfill scenario with
// per-job async managers: the tentpole requirement that tenant backfill
// works unchanged over the PoolDriver surface, with job progress arriving
// through the Notifier callback instead of worker-applied completions.
func TestPoolBackfillAsync(t *testing.T) {
	runBackfillRundown(t, Config{Workers: 4, Manager: executive.AsyncManager, ReadyCap: 2, LowWater: 1, Batch: 1})
}

func runBackfillRundown(t *testing.T, cfg Config) {
	t.Helper()
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// blocker: its first phase holds one granule hostage until the filler
	// job is half done (gate channel), so the blocker's other home worker
	// faces a guaranteed rundown window — its own job has nothing
	// dispatchable while the filler still holds hundreds of tasks. Work
	// blocks instead of spinning: the host may have a single core.
	gate := make(chan struct{})
	var blockerRan atomic.Int64
	blockerProg, err := core.NewProgram(
		&core.Phase{
			Name: "hostage", Granules: 2,
			Work: func(g granule.ID) {
				if g == 0 {
					<-gate
				} else {
					time.Sleep(100 * time.Microsecond)
				}
				blockerRan.Add(1)
			},
		},
		&core.Phase{
			Name: "tail", Granules: 2,
			Work: func(granule.ID) {
				time.Sleep(100 * time.Microsecond)
				blockerRan.Add(1)
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	const fillerN = 512
	fillerDone := make([]atomic.Bool, 2*fillerN)
	fillerPhase := func(name string, base int, en *enable.Spec) *core.Phase {
		return &core.Phase{
			Name: name, Granules: fillerN,
			Work: func(g granule.ID) {
				time.Sleep(20 * time.Microsecond)
				fillerDone[base+int(g)].Store(true)
				if base == 0 && g == fillerN/2 {
					close(gate)
				}
			},
			Enable: en,
		}
	}
	fillerProg, err := core.NewProgram(
		fillerPhase("f1", 0, enable.NewIdentity()), fillerPhase("f2", fillerN, nil),
	)
	if err != nil {
		t.Fatal(err)
	}

	blocker, err := p.Submit(blockerProg, core.Options{Grain: 1, Costs: core.DefaultCosts()},
		JobConfig{Name: "blocker"})
	if err != nil {
		t.Fatal(err)
	}
	filler, err := p.Submit(fillerProg, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()},
		JobConfig{Name: "filler"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := filler.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range fillerDone {
		if !fillerDone[i].Load() {
			t.Fatalf("filler granule %d never ran", i)
		}
	}
	if blockerRan.Load() != 4 {
		t.Fatalf("blocker ran %d granules, want 4", blockerRan.Load())
	}
	rep, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if filler.BackfillTasks() == 0 {
		t.Errorf("filler received no backfill despite blocker's sleeping home workers: %v", rep)
	}
	if rep.BackfillTasks != filler.BackfillTasks()+blocker.BackfillTasks() {
		t.Errorf("pool backfill %d != job backfill %d+%d",
			rep.BackfillTasks, filler.BackfillTasks(), blocker.BackfillTasks())
	}
}

// TestPoolPanicIsolation: a work panic fails its own job and leaves the
// other job (and the pool) intact.
func TestPoolPanicIsolation(t *testing.T) {
	const n = 1024
	p, err := NewPool(Config{Workers: 8, Manager: executive.ShardedManager, DequeCap: 4, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	poison, err := core.NewProgram(
		&core.Phase{
			Name: "poison", Granules: n,
			Work: func(g granule.ID) {
				if g == n/2 {
					panic("tenant poison")
				}
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	good, a, b, c := buildCopyChain(t, n)

	bad, _ := p.Submit(poison, core.Options{Grain: 8, Costs: core.DefaultCosts()}, JobConfig{Name: "bad"})
	okJob, _ := p.Submit(good, core.Options{Grain: 8, Overlap: true, Costs: core.DefaultCosts()}, JobConfig{Name: "good"})

	if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("poisoned job error = %v, want work panic", err)
	}
	if _, err := okJob.Wait(); err != nil {
		t.Fatalf("good job failed alongside the poisoned one: %v", err)
	}
	checkCopyChain(t, a, b, c)
	if _, err := p.Close(); err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("Close error = %v, want the poisoned job's failure", err)
	}
}

// TestPoolDynamicSubmit submits a second job while the first is already
// running and expects both to complete.
func TestPoolDynamicSubmit(t *testing.T) {
	const n = 4096
	p, err := NewPool(Config{Workers: 4, Manager: executive.ShardedManager, DequeCap: 4, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	progA, aA, bA, cA := buildCopyChain(t, n)
	jobA, err := p.Submit(progA, core.Options{Grain: 2, Overlap: true, Costs: core.DefaultCosts()}, JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progB, aB, bB, cB := buildCopyChain(t, n)
	jobB, err := p.Submit(progB, core.Options{Grain: 2, Overlap: true, Costs: core.DefaultCosts()}, JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jobA.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := jobB.Wait(); err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, aA, bA, cA)
	checkCopyChain(t, aB, bB, cB)
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolTraceTakeDuringSubmit snapshots a live pool's trace while jobs
// are being submitted, as the daemon's trace endpoint does: Submit grows
// the recorder's job list and Take copies it, so under -race this pins
// that both go through the recorder's lock.
func TestPoolTraceTakeDuringSubmit(t *testing.T) {
	const jobs = 64
	rec := trace.NewRecorder(trace.Meta{}, 2)
	p, err := NewPool(Config{Workers: 2, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	taken := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				taken <- n
				return
			default:
				n += len(rec.Take().Meta.Jobs)
			}
		}
	}()
	var handles []*Job
	for i := 0; i < jobs; i++ {
		prog, _, _, _ := buildCopyChain(t, 64)
		h, err := p.Submit(prog, core.Options{Grain: 4, Costs: core.DefaultCosts()}, JobConfig{})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-taken
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
	names := rec.Take().Meta.Jobs
	if len(names) != jobs {
		t.Fatalf("trace names %d jobs, want %d: %v", len(names), jobs, names)
	}
	for i, name := range names {
		if want := fmt.Sprintf("job%d", i); name != want {
			t.Errorf("job %d named %q, want %q", i, name, want)
		}
	}
}

// TestPoolSubmitAfterClose: Submit on a closed pool must fail.
func TestPoolSubmitAfterClose(t *testing.T) {
	p, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
	prog, _, _, _ := buildCopyChain(t, 16)
	if _, err := p.Submit(prog, core.Options{}, JobConfig{}); err == nil {
		t.Fatal("Submit on a closed pool succeeded")
	}
}

func TestPoolRejectsBadConfig(t *testing.T) {
	if _, err := NewPool(Config{Workers: 0}); err == nil {
		t.Error("zero-worker pool accepted")
	}
	if _, err := NewPool(Config{Workers: 2, Manager: executive.ManagerKind(250)}); err == nil {
		t.Error("unknown manager kind accepted")
	}
}

// stallDriver is a PoolDriver that never yields work and never finishes:
// the shape of a wedged job, unreachable through the real state machine's
// liveness guarantees. The pool must fail the job, not deadlock.
type stallDriver struct{ err error }

func (d *stallDriver) Start()                        {}
func (d *stallDriver) Next(int) (core.Task, bool)    { return core.Task{}, false }
func (d *stallDriver) TryNext(int) (core.Task, bool) { return core.Task{}, false }
func (d *stallDriver) Complete(int, core.Task) bool  { return true }
func (d *stallDriver) Flush(int) bool                { return false }
func (d *stallDriver) Abort(err error)               { d.err = err }
func (d *stallDriver) Err() error                    { return d.err }
func (d *stallDriver) Mgmt() time.Duration           { return 0 }
func (d *stallDriver) Idle() time.Duration           { return 0 }
func (d *stallDriver) Done() bool                    { return false }
func (d *stallDriver) InFlight() int                 { return 0 }

// TestPoolStallDetector injects a wedged job directly (the public Submit
// path cannot build one) and expects the pool's termination detector to
// fail it once every worker parks.
func TestPoolStallDetector(t *testing.T) {
	p, err := NewPool(Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	prog, _, _, _ := buildCopyChain(t, 16)
	sched, err := core.New(prog, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{
		pool: p, cfg: JobConfig{Name: "wedged", Weight: 1},
		prog: prog, sched: sched,
		done: make(chan struct{}), submitted: time.Now(),
	}
	j.mgrv.Store(executive.PoolDriver(&stallDriver{}))
	j.attempts.Store(1)
	p.mu.Lock()
	p.jobs = append(p.jobs, j)
	p.active = append(p.active, j)
	p.rebalanceLocked()
	p.mu.Unlock()
	p.progress()

	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("stalled job not detected within 10s")
	}
	if _, err := j.Wait(); err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("wedged job error = %v, want stall", err)
	}
	rep, err := p.Close()
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("Close error = %v, want stall", err)
	}
	if rep.Stalled != 1 {
		t.Errorf("report counts %d stalled jobs, want 1", rep.Stalled)
	}
}
