package executive

import (
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
)

// TestAsyncDefaults: the ready-buffer and low-water defaults follow the
// paper's two-tasks-per-processor outset condition.
func TestAsyncDefaults(t *testing.T) {
	m := newAsync(&stubSM{}, Config{Workers: 8, Manager: AsyncManager})
	if m.readyCap != 16 {
		t.Errorf("readyCap = %d, want 2*workers = 16", m.readyCap)
	}
	if m.lowWater != 4 {
		t.Errorf("lowWater = %d, want readyCap/4 = 4", m.lowWater)
	}
	m = newAsync(&stubSM{}, Config{Workers: 2, Manager: AsyncManager})
	if m.readyCap != 8 {
		t.Errorf("small-pool readyCap = %d, want minimum 8", m.readyCap)
	}
	m = newAsync(&stubSM{}, Config{Workers: 4, Manager: AsyncManager, ReadyCap: 4, LowWater: 9})
	if m.readyCap != 4 || m.lowWater != 3 {
		t.Errorf("explicit knobs: readyCap=%d lowWater=%d, want 4 and 3 (clamped below cap)",
			m.readyCap, m.lowWater)
	}
}

// TestAsyncCorrectness runs the copy chain across ready-buffer extremes,
// including a buffer smaller than the worker count (workers contend for
// every slot) and a huge one (the whole program fits).
func TestAsyncCorrectness(t *testing.T) {
	cases := []struct{ workers, ready, low, batch, grain int }{
		{1, 1, 1, 1, 4},
		{4, 2, 1, 1, 4},
		{8, 16, 4, 8, 8},
		{12, 512, 128, 32, 2},
	}
	for _, tc := range cases {
		prog, a, b, c := buildCopyChain(t, 2048)
		rep, err := Run(prog, core.Options{
			Grain: tc.grain, Overlap: true, Costs: core.DefaultCosts(),
		}, Config{
			Workers: tc.workers, Manager: AsyncManager,
			ReadyCap: tc.ready, LowWater: tc.low, Batch: tc.batch,
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		checkCopyChain(t, a, b, c)
		if rep.Manager != AsyncManager {
			t.Errorf("%+v: report manager = %v", tc, rep.Manager)
		}
		if rep.Sched.Completions == 0 {
			t.Errorf("%+v: no completions recorded", tc)
		}
	}
}

// TestAsyncDeferredOverlap: indirect mappings queue deferred management
// (composite-map builds, successor splitting); the async management
// goroutine must absorb all of it while keeping the gather correct.
func TestAsyncDeferredOverlap(t *testing.T) {
	n := 512
	a := make([]int64, 2*n)
	d := make([]int64, n)
	prog, err := core.NewProgram(
		&core.Phase{
			Name: "produce", Granules: 2 * n,
			Work: func(g granule.ID) { a[g] = int64(g) * 7 },
			Enable: enable.NewReverse(func(r granule.ID) []granule.ID {
				return []granule.ID{2 * r, 2*r + 1}
			}),
		},
		&core.Phase{
			Name: "gather", Granules: n,
			Work: func(g granule.ID) { d[g] = a[2*g] + a[2*g+1] },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(prog, core.Options{
		Grain: 8, Overlap: true, Elevate: true, SubsetSize: 32,
		Costs: core.DefaultCosts(),
	}, Config{Workers: 8, Manager: AsyncManager, ReadyCap: 8, LowWater: 2})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		want := int64(2*r)*7 + int64(2*r+1)*7
		if d[r] != want {
			t.Fatalf("d[%d] = %d, want %d", r, d[r], want)
		}
	}
	if rep.Sched.DeferredItems == 0 {
		t.Error("no deferred management was queued — the overlap path went unexercised")
	}
}

// TestAsyncInlineFallback drives the worker protocol by hand with the
// drain-latency watermark forced stale before every completion, so the
// worker-side fallback must run management cycles inline — the
// no-spare-core degradation path.
func TestAsyncInlineFallback(t *testing.T) {
	prog, a, b, c := buildCopyChain(t, 1024)
	sched, err := core.New(prog, core.Options{
		Workers: 1, Grain: 4, Overlap: true, Costs: core.DefaultCosts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newAsync(sched, Config{Workers: 1, Manager: AsyncManager, ReadyCap: 4, Batch: 1})
	m.Start()
	for {
		task, ok := m.Next(0)
		if !ok {
			break
		}
		work := prog.Phases[task.Phase].Work
		task.Run.Each(func(g granule.ID) { work(g) })
		// Pretend the management goroutine has been descheduled for a
		// whole watermark: the completion's check must drain inline.
		m.lastDrain.Store(clock.Now() - int64(asyncDrainStale))
		m.Complete(0, task)
	}
	m.Join()
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, a, b, c)
	if m.InlineCycles() == 0 {
		t.Error("stale watermark never triggered an inline management cycle")
	}
}

// TestAsyncNoSpareCore: with GOMAXPROCS(1) the management goroutine has
// no core of its own; the run must still complete correctly through the
// scheduler's preemption and the inline fallback.
func TestAsyncNoSpareCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prog, a, b, c := buildCopyChain(t, 2048)
	if _, err := Run(prog, core.Options{
		Grain: 2, Overlap: true, Costs: core.DefaultCosts(),
	}, Config{Workers: 4, Manager: AsyncManager, ReadyCap: 4, LowWater: 1, Batch: 2}); err != nil {
		t.Fatal(err)
	}
	checkCopyChain(t, a, b, c)
}

// TestAsyncAbortReleasesWorkers: Abort from one worker must release
// workers parked in the ready-buffer receive and surface through Err.
func TestAsyncAbortReleasesWorkers(t *testing.T) {
	prog, _, _, _ := buildCopyChain(t, 64)
	sched, err := core.New(prog, core.Options{
		Workers: 2, Grain: 1, Overlap: true, Costs: core.DefaultCosts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newAsync(sched, Config{Workers: 2, Manager: AsyncManager})
	m.Start()
	if _, ok := m.Next(0); !ok {
		t.Fatal("no first task")
	}
	done := make(chan bool)
	go func() {
		// Parks once the buffer drains (worker 0 never completes, so the
		// program cannot finish), released only by the abort.
		for {
			if _, ok := m.Next(1); !ok {
				done <- true
				return
			}
		}
	}()
	m.Abort(errAbortTest)
	if !<-done {
		t.Fatal("parked worker not released")
	}
	m.Join()
	if m.Err() != errAbortTest {
		t.Fatalf("Err = %v, want the abort error", m.Err())
	}
}

var errAbortTest = &abortErr{}

type abortErr struct{}

func (*abortErr) Error() string { return "test abort" }
