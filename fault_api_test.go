package rundown_test

// Public-surface tests for the fault-injection and tenancy layer: the
// error-wrapping audit (every abort path wraps ctx.Err() AND names the
// failing job), deadlines and retries through the Runner options, and the
// capability bits that advertise them.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestRunnerAbortNamesJob is the error-wrapping audit: cancel a running
// job on every manager and on the pool, and require the returned error to
// both wrap context.Canceled (errors.Is) and name the failing job, so a
// caller of a multi-job run can tell which tenant died without parsing
// backend internals.
func TestRunnerAbortNamesJob(t *testing.T) {
	cases := []struct {
		name string
		opts []rundown.Option
	}{
		{"goroutines-serial", []rundown.Option{rundown.WithWorkers(4)}},
		{"goroutines-sharded", []rundown.Option{rundown.WithWorkers(4), rundown.WithManager(rundown.ShardedManager)}},
		{"goroutines-async", []rundown.Option{rundown.WithWorkers(4), rundown.WithManager(rundown.AsyncManager)}},
		{"pool", []rundown.Option{rundown.WithWorkers(4), rundown.WithPool()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r, err := rundown.New(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			job := buildSleepJob(t, 3, 256, time.Millisecond)
			job.Name = "victim"
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := r.Run(ctx, job)
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want wrapped context.Canceled", err)
				}
				if !strings.Contains(err.Error(), `"victim"`) {
					t.Fatalf("error does not name the failing job: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled run did not return promptly")
			}
			waitGoroutineBaseline(t, before)
		})
	}
}

// TestRunnerDeadlineNamesJob drives a per-job deadline through each
// backend's own enforcement point — the run context on the plain
// executive, the pool's deadline timer on the tenant pool, the virtual
// clock on the simulator — and requires the same contract from all:
// errors.Is(err, context.DeadlineExceeded) and the job's name in the
// message.
func TestRunnerDeadlineNamesJob(t *testing.T) {
	cases := []struct {
		name string
		opts []rundown.Option
	}{
		{"goroutines", []rundown.Option{rundown.WithWorkers(4), rundown.WithDeadline(15 * time.Millisecond)}},
		{"pool", []rundown.Option{rundown.WithWorkers(4), rundown.WithPool(), rundown.WithDeadline(15 * time.Millisecond)}},
		// One virtual unit per nanosecond: 10 units is far below the
		// program's makespan.
		{"virtual", []rundown.Option{rundown.WithVirtualTime(rundown.SimConfig{Procs: 4}), rundown.WithDeadline(10 * time.Nanosecond)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r, err := rundown.New(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			job := buildSleepJob(t, 2, 256, time.Millisecond)
			job.Name = "doomed"
			_, err = r.Run(context.Background(), job)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
			}
			if !strings.Contains(err.Error(), `"doomed"`) {
				t.Fatalf("error does not name the failing job: %v", err)
			}
			waitGoroutineBaseline(t, before)
		})
	}
}

// TestRunnerVirtualFaultRetry drives WithFaults plus Job.Retry through
// the virtual backend's public surface, RunAll and Run: a one-shot
// injected grain error costs job 0 one attempt, the retry recovers it,
// and the unified Report carries the fault and retry accounting.
func TestRunnerVirtualFaultRetry(t *testing.T) {
	r, err := rundown.New(
		rundown.WithVirtualTime(rundown.SimConfig{Procs: 4}),
		rundown.WithFaults(rundown.FaultSpec{Seed: 1, Rules: []rundown.FaultRule{
			{Kind: rundown.FaultGrainError, Job: 0, Phase: -1, Worker: -1, Count: 1},
		}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	j0, _ := buildRunnerJob(t, 1024)
	j0.Name = "wobbly"
	j0.Retry = 2
	j0.Backoff = 64
	j1, _ := buildRunnerJob(t, 1024)
	j1.Name = "steady"
	rep, err := r.RunAll(context.Background(), []rundown.Job{j0, j1})
	if err != nil {
		t.Fatalf("retry should have recovered the injected error: %v", err)
	}
	if rep.Faults == 0 {
		t.Error("Report.Faults = 0, want the injected firing counted")
	}
	if rep.Retries == 0 {
		t.Error("Report.Retries = 0, want the restart counted")
	}
	if got := rep.Jobs[0].Attempts; got != 2 {
		t.Errorf("job 0 attempts = %d, want 2", got)
	}
	if rep.Jobs[1].Err != nil || rep.Jobs[1].Attempts != 1 {
		t.Errorf("co-tenant was disturbed: err=%v attempts=%d",
			rep.Jobs[1].Err, rep.Jobs[1].Attempts)
	}

	// Run alone through Run, the same job is job 0 again: the firing
	// costs it one attempt and the retry recovers it.
	rep, err = r.Run(context.Background(), j0)
	if err != nil {
		t.Fatalf("Run: retry should have recovered the injected error: %v", err)
	}
	if rep.Faults == 0 || rep.Retries != 1 {
		t.Errorf("Run: faults=%d retries=%d, want the firing and one restart counted",
			rep.Faults, rep.Retries)
	}
	// Without a retry budget the same firing fails the run.
	j0.Retry = 0
	if _, err := r.Run(context.Background(), j0); err == nil ||
		!strings.Contains(err.Error(), "injected") || !strings.Contains(err.Error(), `"wobbly"`) {
		t.Errorf("Run without retries: err = %v, want the injected failure naming the job", err)
	}
}

// TestRunnerVirtualDeadlineNamesJob pins the virtual half of the deadline
// contract through RunAll: the deadlined job alone fails, the run error
// wraps context.DeadlineExceeded and names it, and the co-tenant's result
// is untouched.
func TestRunnerVirtualDeadlineNamesJob(t *testing.T) {
	r, err := rundown.New(rundown.WithVirtualTime(rundown.SimConfig{Procs: 4}))
	if err != nil {
		t.Fatal(err)
	}
	j0, _ := buildRunnerJob(t, 1024)
	j0.Name = "doomed"
	j0.Deadline = time.Nanosecond // one virtual unit: certain to fire
	j1, _ := buildRunnerJob(t, 1024)
	j1.Name = "steady"
	rep, err := r.RunAll(context.Background(), []rundown.Job{j0, j1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), `"doomed"`) {
		t.Fatalf("error does not name the failing job: %v", err)
	}
	if rep == nil {
		t.Fatal("failed RunAll should still report per-job outcomes")
	}
	if !errors.Is(rep.Jobs[0].Err, context.DeadlineExceeded) {
		t.Errorf("job 0 err = %v, want wrapped context.DeadlineExceeded", rep.Jobs[0].Err)
	}
	if rep.Jobs[1].Err != nil {
		t.Errorf("co-tenant failed too: %v", rep.Jobs[1].Err)
	}
}

// TestRunnerPoolSentinels exercises the re-exported tenancy sentinels
// through the public pool lifecycle: Submit after Close wraps
// ErrPoolClosed, and a second Close returns the first Close's outcome.
func TestRunnerPoolSentinels(t *testing.T) {
	pool, err := rundown.NewPool(rundown.PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	job := buildSleepJob(t, 1, 8, 0)
	if _, err := pool.Submit(job.Prog, job.Opt, rundown.PoolJobConfig{Name: "early"}); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = pool.Submit(job.Prog, job.Opt, rundown.PoolJobConfig{Name: "tardy"})
	if !errors.Is(err, rundown.ErrPoolClosed) {
		t.Fatalf("Submit after Close = %v, want wrapped ErrPoolClosed", err)
	}
	if !strings.Contains(err.Error(), `"tardy"`) {
		t.Fatalf("sentinel wrap does not name the job: %v", err)
	}
	if _, err := pool.Close(); err != nil {
		t.Fatalf("second Close = %v, want the first outcome (nil)", err)
	}
}

// TestCapabilitiesRobustnessBits pins the new capability bits against the
// predicates the backends enforce.
func TestCapabilitiesRobustnessBits(t *testing.T) {
	for _, mk := range []rundown.ExecManager{rundown.SerialManager, rundown.ShardedManager, rundown.AsyncManager} {
		caps := rundown.Capabilities(mk, rundown.StealsWorker)
		if !caps.FaultInjection || !caps.Deadlines {
			t.Errorf("%v: FaultInjection/Deadlines should hold everywhere: %+v", mk, caps)
		}
		if caps.Retries != (caps.RealMulti || caps.VirtualMulti) {
			t.Errorf("%v: Retries bit disagrees with the multi-job predicates: %+v", mk, caps)
		}
		if caps.Admission != caps.RealMulti {
			t.Errorf("%v: Admission bit disagrees with RealMulti: %+v", mk, caps)
		}
	}
}
