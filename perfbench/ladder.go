package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"time"

	rundown "repro"
	"repro/internal/core"
	"repro/internal/executive"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// allocCount reads the process's cumulative heap allocation count.
func allocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rowSample is one measurement of a ladder row: wall time, tasks run and
// heap objects allocated, plus row-specific extras.
type rowSample struct {
	wall   time.Duration
	tasks  int64
	allocs uint64
	extra  map[string]float64
}

func (s rowSample) nsPerTask() float64     { return float64(s.wall.Nanoseconds()) / float64(s.tasks) }
func (s rowSample) allocsPerTask() float64 { return float64(s.allocs) / float64(s.tasks) }

// row is one rung of the performance ladder: the same programs driven
// through one more layer than the rung below it. run returns the tasks it
// ran and any extras to report; measure times it.
type row struct {
	name    string
	run     func(parent int32, op int64) (tasks int64, extra map[string]float64, err error)
	samples []rowSample
}

func (r *row) measure(b *bench) {
	op := b.tr.op()
	sp := b.tr.start("bench.ladder."+r.name, 0, op)
	a0 := allocCount()
	t0 := time.Now()
	tasks, extra, err := r.run(sp, op)
	wall := time.Since(t0)
	allocs := allocCount() - a0
	b.tr.finish(sp)
	if err == nil && tasks < 1 {
		err = fmt.Errorf("ran no tasks")
	}
	// A failed run or a wrong output is counted and its sample dropped;
	// a row left with no samples makes its metrics NaN, which fails the
	// whole run.
	b.check(err == nil, "ladder row %s: %v", r.name, err)
	if err == nil {
		r.samples = append(r.samples, rowSample{wall: wall, tasks: tasks, allocs: allocs, extra: extra})
	}
	b.noteHeap()
}

// med returns the median of f over the row's samples.
func (r *row) med(f func(rowSample) float64) float64 {
	xs := make([]float64, len(r.samples))
	for i, s := range r.samples {
		xs[i] = f(s)
	}
	return median(xs)
}

func (r *row) nsPerTask() float64     { return r.med(rowSample.nsPerTask) }
func (r *row) allocsPerTask() float64 { return r.med(rowSample.allocsPerTask) }
func (r *row) extra(k string) float64 {
	return r.med(func(s rowSample) float64 { return s.extra[k] })
}

// measureRows measures every row round-robin, starting at a different
// row each round so no row always follows the same neighbour, until
// budget is spent (each row gets at least three samples).
func measureRows(b *bench, rows []*row, budget time.Duration) {
	deadline := time.Now().Add(budget)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for i := range rows {
			rows[(round+i)%len(rows)].measure(b)
		}
	}
}

// driveCore runs prog to completion on a bare core.Scheduler from one
// goroutine — Start, then NextTask / work / Complete until the queue
// drains — and returns the tasks run and the management units charged.
// This is the ladder's bottom rung: the state machine with no manager,
// locks or goroutines around it.
func driveCore(b *bench, parent int32, op int64, prog *core.Program, opt core.Options) (tasks, units int64, err error) {
	sp := b.tr.start("core.Scheduler", parent, op)
	defer b.tr.finish(sp)
	s, err := core.New(prog, opt)
	if err != nil {
		return 0, 0, err
	}
	cost := s.Start()
	for {
		t, c, ok := s.NextTask()
		cost += c
		if !ok {
			break
		}
		if work := prog.Phases[t.Phase].Work; work != nil {
			for g := t.Run.Lo; g < t.Run.Hi; g++ {
				work(g)
			}
		}
		cost += s.Complete(t)
		tasks++
	}
	b.tr.calls(sp, 2*tasks+1)
	if !s.Done() {
		return tasks, int64(cost), fmt.Errorf("core: scheduler stopped with work left (phase %d)", s.CurrentPhase())
	}
	return tasks, int64(cost), nil
}

// subject is what a workload's traced run prices at every layer: the
// workload's own programs with the scheduler options it runs them with,
// and daemon job specs of the same shapes for the service rung.
type subject struct {
	// progs run one after another on the single-program rungs and in
	// co-tenant pairs (0,1), (2,3), ... on the two-job pool and
	// multi-program simulator rungs, so their count is even.
	progs []*core.Program
	opt   core.Options
	// reset clears the programs' outputs before a rung runs them, and
	// check compares the outputs with a serial reference afterwards; both
	// nil for programs without outputs.
	reset func()
	check func() error
	// specs are daemon jobs at grain 1, so each must report as many
	// tasks as its program has granules.
	specs []service.JobSpec
}

func (s *subject) clear() {
	if s.reset != nil {
		s.reset()
	}
}

func (s *subject) verify() error {
	if s.check != nil {
		return s.check()
	}
	return nil
}

// ladderTotals accumulates executive reports over a rung's programs.
type ladderTotals struct {
	wall, compute, mgmt, idle time.Duration
	tasks                     int64
}

func (t *ladderTotals) add(wall, compute, mgmt, idle time.Duration, tasks int64) {
	t.wall += wall
	t.compute += compute
	t.mgmt += mgmt
	t.idle += idle
	t.tasks += tasks
}

// runLadder prices the subject's programs at every layer: the bare
// scheduler; each manager through executive.RunContext, plus the sharded
// manager on one worker, behind barriers and with a metric set counting
// steals; the tenant pool with one and with two jobs; the Runner, and the
// Runner with the flight recorder and with metrics on; the simulator's
// single- and multi-program engines; and the daemon over loopback HTTP.
// Every real-time row runs the same programs with the same options on
// the same two workers, so adjacent rows differ by one layer; the pool,
// Runner, trace and telemetry rows use the sharded manager.
func runLadder(b *bench, s *subject, budget time.Duration) error {
	ctx := context.Background()
	sharded := executive.Config{Workers: workers, Manager: executive.ShardedManager}

	rows := []*row{{name: "core", run: func(parent int32, op int64) (int64, map[string]float64, error) {
		s.clear()
		var tasks, units int64
		for _, p := range s.progs {
			t, u, err := driveCore(b, parent, op, p, s.opt)
			if err != nil {
				return 0, nil, err
			}
			tasks += t
			units += u
		}
		return tasks, map[string]float64{"units": float64(units) / float64(tasks)}, s.verify()
	}}}

	execRow := func(name string, opt core.Options, cfg func() executive.Config) *row {
		return &row{name: name, run: func(parent int32, op int64) (int64, map[string]float64, error) {
			s.clear()
			c := cfg()
			var t ladderTotals
			for _, p := range s.progs {
				sp := b.tr.start("executive.RunContext", parent, op)
				rep, err := executive.RunContext(ctx, p, opt, c)
				b.tr.finish(sp)
				if err != nil {
					return 0, nil, err
				}
				t.add(rep.Wall, rep.Compute, rep.Mgmt, rep.Idle, rep.Tasks)
			}
			n := float64(t.tasks)
			x := map[string]float64{
				"mgmt": float64(t.mgmt) / n, "idle": float64(t.idle) / n,
				"wall": float64(t.wall), "compute": float64(t.compute),
				"idle_share": float64(t.idle) / (float64(c.Workers) * float64(t.wall)),
			}
			// Compute/Mgmt, as executive.Report.MgmtRatio defines it.
			if t.mgmt > 0 {
				x["ratio"] = float64(t.compute) / float64(t.mgmt)
			}
			if c.Metrics != nil {
				sp := b.tr.start("telemetry.Counter.Value", parent, op)
				x["steals"] = float64(c.Metrics.StealWins.Value())
				b.tr.finish(sp)
			}
			return t.tasks, x, s.verify()
		}}
	}
	var mgrRows []*row
	for _, m := range managers {
		m := m
		mgrRows = append(mgrRows, execRow("executive."+m.String(), s.opt,
			func() executive.Config { return executive.Config{Workers: workers, Manager: m} }))
	}
	rows = append(rows, mgrRows...)
	barrier := s.opt
	barrier.Overlap = false
	oneWorker := execRow("executive.one_worker", s.opt, func() executive.Config {
		c := sharded
		c.Workers = 1
		return c
	})
	barrierRow := execRow("executive.barrier", barrier, func() executive.Config { return sharded })
	stealRow := execRow("executive.steals", s.opt, func() executive.Config {
		c := sharded
		c.Metrics = telemetry.NewSet(telemetry.NewRegistry(workers, "ns"))
		return c
	})
	rows = append(rows, oneWorker, barrierRow, stealRow)

	// poolRow runs the programs group at a time, each group as co-tenant
	// jobs of one fresh tenant pool.
	poolRow := func(name string, group int) *row {
		return &row{name: name, run: func(parent int32, op int64) (int64, map[string]float64, error) {
			s.clear()
			var tasks, backfill int64
			var queue []float64
			for i := 0; i < len(s.progs); i += group {
				sp := b.tr.start("tenant.NewPool", parent, op)
				p, err := tenant.NewPool(tenant.Config{Workers: workers, Manager: executive.ShardedManager})
				b.tr.finish(sp)
				if err != nil {
					return 0, nil, err
				}
				var jobs []*tenant.Job
				for k, prog := range s.progs[i : i+group] {
					sp := b.tr.start("tenant.Submit", parent, op)
					j, err := p.Submit(prog, s.opt, tenant.JobConfig{Name: fmt.Sprintf("job%d", i+k)})
					b.tr.finish(sp)
					if err != nil {
						p.Close()
						return 0, nil, err
					}
					jobs = append(jobs, j)
				}
				for _, j := range jobs {
					sp := b.tr.start("tenant.Wait", parent, op)
					rep, err := j.Wait()
					b.tr.finish(sp)
					if err != nil {
						p.Close()
						return 0, nil, err
					}
					tasks += rep.Tasks
					backfill += j.BackfillTasks()
					queue = append(queue, float64(j.QueueWait().Nanoseconds())/1e6)
				}
				sp = b.tr.start("tenant.Close", parent, op)
				_, err = p.Close()
				b.tr.finish(sp)
				if err != nil {
					return 0, nil, err
				}
			}
			return tasks, map[string]float64{
				"backfill": float64(backfill), "backfill_share": float64(backfill) / float64(tasks),
				"queue_ms": median(queue),
			}, s.verify()
		}}
	}
	one, two := poolRow("tenant.one_job", 1), poolRow("tenant.two_job", 2)
	rows = append(rows, one, two)

	// runnerRow builds a Runner row; a non-nil w turns the flight
	// recorder on and counts the trace bytes it writes.
	runnerRow := func(name, span string, w *countWriter, opts ...rundown.Option) (*row, error) {
		opts = append([]rundown.Option{rundown.WithWorkers(workers), rundown.WithManager(executive.ShardedManager)}, opts...)
		if w != nil {
			opts = append(opts, rundown.WithTrace(w))
		}
		r, err := rundown.New(opts...)
		if err != nil {
			return nil, err
		}
		return &row{name: name, run: func(parent int32, op int64) (int64, map[string]float64, error) {
			s.clear()
			if w != nil {
				w.n = 0
			}
			var tasks int64
			for _, p := range s.progs {
				sp := b.tr.start(span, parent, op)
				rep, err := r.Run(ctx, rundown.Job{Prog: p, Opt: s.opt})
				b.tr.finish(sp)
				if err != nil {
					return 0, nil, err
				}
				tasks += rep.Tasks
			}
			var bytes float64
			if w != nil {
				bytes = float64(w.n) / float64(tasks)
			}
			return tasks, map[string]float64{"bytes": bytes}, s.verify()
		}}, nil
	}
	runner, err := runnerRow("runner", "runner.Run", nil)
	if err != nil {
		return err
	}
	traced, err := runnerRow("trace", "trace.Run", &countWriter{})
	if err != nil {
		return err
	}
	metered, err := runnerRow("telemetry", "telemetry.Run", nil, rundown.WithMetrics())
	if err != nil {
		return err
	}
	rows = append(rows, runner, traced, metered)

	single, multi, err := simRows(b, s)
	if err != nil {
		return err
	}
	rows = append(rows, single, multi)

	sp := b.tr.start("service.New", 0, 0)
	d, err := startDaemon()
	b.tr.finish(sp)
	if err != nil {
		return err
	}
	svc := &serviceRung{b: b, d: d, specs: s.specs, samples: map[string][]float64{}}
	rows = append(rows, &row{name: "service", run: svc.run})

	measureRows(b, rows, budget)
	if err := d.stop(); err != nil {
		return fmt.Errorf("daemon stop: %w", err)
	}

	core := rows[0]
	b.setLayer("core.ns_per_task", "ns", core.nsPerTask())
	b.setLayer("core.allocs_per_task", "allocs", core.allocsPerTask())
	b.setLayer("core.mgmt_units_per_task", "units", core.extra("units"))
	var shardedRow *row
	for i, m := range managers {
		r := mgrRows[i]
		p := "executive." + m.String() + "."
		b.setLayer(p+"ns_per_task", "ns", r.nsPerTask())
		b.setLayer(p+"mgmt_ns_per_task", "ns", r.extra("mgmt"))
		b.setLayer(p+"idle_ns_per_task", "ns", r.extra("idle"))
		b.setLayer(p+"allocs_per_task", "allocs", r.allocsPerTask())
		b.setLayer(p+"compute_mgmt_ratio", "ratio", r.extra("ratio"))
		if m == executive.ShardedManager {
			shardedRow = r
		}
	}
	b.setLayer("executive.idle_share", "ratio", shardedRow.extra("idle_share"))
	b.setLayer("executive.work_inflation", "ratio", shardedRow.extra("compute")/oneWorker.extra("compute"))
	b.setLayer("executive.overlap_gain", "ratio", barrierRow.extra("wall")/shardedRow.extra("wall"))
	b.setLayer("executive.steals", "count", stealRow.extra("steals"))

	b.setLayer("tenant.one_job_ns_per_task", "ns", one.nsPerTask())
	b.setLayer("tenant.two_job_ns_per_task", "ns", two.nsPerTask())
	// A single-job pool has no other job to backfill from, so every task
	// it counts as backfill is misclassified; reported as measured
	// (summed over the row's runs).
	var misclassified float64
	for _, x := range one.samples {
		misclassified += x.extra["backfill"]
	}
	b.setLayer("tenant.one_job_backfill_tasks", "count", misclassified)
	b.setLayer("tenant.backfill_share", "ratio", two.extra("backfill_share"))
	b.setLayer("tenant.queue_wait_ms.p50", "ms", two.extra("queue_ms"))

	b.setLayer("runner.ns_per_task", "ns", runner.nsPerTask()-shardedRow.nsPerTask())
	b.setLayer("trace.ns_per_task", "ns", traced.nsPerTask()-runner.nsPerTask())
	b.setLayer("trace.bytes_per_task", "bytes", traced.extra("bytes"))
	b.setLayer("telemetry.ns_per_task", "ns", metered.nsPerTask()-runner.nsPerTask())

	b.setLayer("sim.single_ns_per_dispatch", "ns", single.nsPerTask())
	b.setLayer("sim.multi_ns_per_dispatch", "ns", multi.nsPerTask())
	b.setLayer("sim.allocs_per_dispatch", "allocs", (single.allocsPerTask()+multi.allocsPerTask())/2)
	b.setLayer("sim.dispatches", "count", single.extra("dispatches")+multi.extra("dispatches"))

	for _, k := range []string{"submit", "job", "status", "metrics_scrape", "trace_fetch"} {
		b.setLayer("service."+k+"_ms.p50", "ms", median(svc.samples[k]))
	}
	b.setLayer("service.trace_fetch_bytes", "bytes", median(svc.samples["trace_fetch_bytes"]))
	return nil
}

// simRows builds the simulator rungs: the programs one at a time through
// Runner.Run (the single-program engine) and in co-tenant pairs through
// Runner.RunAll (the multi-program engine), on 32 virtual processors
// under the sharded model. Each run must conserve its programs' compute
// units; a row's tasks are the simulator's dispatches.
func simRows(b *bench, s *subject) (single, multi *row, err error) {
	r, err := rundown.New(rundown.WithVirtualTime(sim.Config{Procs: simProcs, Mgmt: sim.Sharded}))
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	single = &row{name: "sim.single", run: func(parent int32, op int64) (int64, map[string]float64, error) {
		var tasks int64
		for _, p := range s.progs {
			sp := b.tr.start("sim.Run", parent, op)
			rep, err := r.Run(ctx, rundown.Job{Prog: p, Opt: s.opt})
			b.tr.finish(sp)
			if err != nil {
				return 0, nil, err
			}
			if rep.Sim.ComputeUnits != int64(p.TotalCost()) {
				return 0, nil, fmt.Errorf("sim.Run computed %d units, program costs %d", rep.Sim.ComputeUnits, p.TotalCost())
			}
			tasks += rep.Tasks
		}
		return tasks, map[string]float64{"dispatches": float64(tasks)}, nil
	}}
	multi = &row{name: "sim.multi", run: func(parent int32, op int64) (int64, map[string]float64, error) {
		var tasks int64
		for i := 0; i < len(s.progs); i += 2 {
			jobs := []rundown.Job{
				{Name: "a", Prog: s.progs[i], Opt: s.opt},
				{Name: "b", Prog: s.progs[i+1], Opt: s.opt},
			}
			sp := b.tr.start("sim.RunAll", parent, op)
			rep, err := r.RunAll(ctx, jobs)
			b.tr.finish(sp)
			if err != nil {
				return 0, nil, err
			}
			for k, j := range rep.SimMulti.Jobs {
				if want := int64(jobs[k].Prog.TotalCost()); j.ComputeUnits != want {
					return 0, nil, fmt.Errorf("sim.RunAll job %d computed %d units, program costs %d", k, j.ComputeUnits, want)
				}
			}
			tasks += rep.Tasks
		}
		return tasks, map[string]float64{"dispatches": float64(tasks)}, nil
	}}
	return single, multi, nil
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// serviceRung is the ladder's top rung: the subject's specs submitted to
// an in-process daemon over loopback HTTP, one after another. Each job is
// followed to its final SSE event, its status read and the metrics
// scraped. The first job of each pass also has its trace downloaded and
// parsed (each download copies the daemon's whole history, so one per
// pass keeps the rung from crowding out the others), and the run's first
// download is replayed against the spec's program.
type serviceRung struct {
	b        *bench
	d        *daemon
	specs    []service.JobSpec
	samples  map[string][]float64 // milliseconds, except trace_fetch_bytes
	replayed bool
}

func (r *serviceRung) run(parent int32, op int64) (int64, map[string]float64, error) {
	var tasks int64
	for i, spec := range r.specs {
		n, err := r.job(spec, i == 0, parent, op)
		if err != nil {
			return 0, nil, err
		}
		tasks += n
	}
	return tasks, nil, nil
}

func (r *serviceRung) add(name string, d time.Duration) {
	r.samples[name] = append(r.samples[name], float64(d.Nanoseconds())/1e6)
}

func (r *serviceRung) job(spec service.JobSpec, fetch bool, parent int32, op int64) (int64, error) {
	b, d := r.b, r.d
	prog, err := specProgram(spec)
	if err != nil {
		return 0, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	sp := b.tr.start("service.POST /v1/jobs", parent, op)
	t0 := time.Now()
	resp, err := d.load.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		b.tr.finish(sp)
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	b.tr.finish(sp)
	r.add("submit", time.Since(t0))
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	var st service.JobStatus
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	if err != nil {
		return 0, err
	}

	sp = b.tr.start("service.GET /v1/jobs/{id}/events", parent, op)
	final, err := d.final(st.ID)
	b.tr.finish(sp)
	r.add("job", time.Since(t0))
	want := int64(prog.TotalGranules())
	switch {
	case err != nil:
		return 0, err
	case final.State != "done":
		return 0, fmt.Errorf("job %s: state %q: %s", st.ID, final.State, final.Error)
	case final.Tasks != want:
		return 0, fmt.Errorf("job %s: ran %d tasks, want %d", st.ID, final.Tasks, want)
	}

	sp = b.tr.start("service.GET /v1/jobs/{id}", parent, op)
	raw, dur, err := d.get(context.Background(), "/v1/jobs/"+st.ID)
	b.tr.finish(sp)
	r.add("status", dur)
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	if err == nil && st.State != "done" {
		err = fmt.Errorf("job %s: status reads %q after its final event", st.ID, st.State)
	}
	if err != nil {
		return 0, err
	}

	sp = b.tr.start("service.GET /metrics", parent, op)
	raw, dur, err = d.get(context.Background(), "/metrics")
	b.tr.finish(sp)
	r.add("metrics_scrape", dur)
	if err == nil && !bytes.Contains(raw, []byte("rundown_dispatch_total")) {
		err = fmt.Errorf("metrics scrape has no rundown_dispatch_total")
	}
	if err != nil || !fetch {
		return final.Tasks, err
	}

	sp = b.tr.start("service.GET /v1/jobs/{id}/trace", parent, op)
	raw, dur, err = d.get(context.Background(), "/v1/jobs/"+st.ID+"/trace")
	b.tr.finish(sp)
	r.add("trace_fetch", dur)
	r.samples["trace_fetch_bytes"] = append(r.samples["trace_fetch_bytes"], float64(len(raw)))
	var t *trace.Trace
	if err == nil {
		sp := b.tr.start("trace.Read", parent, op)
		t, err = trace.Read(bytes.NewReader(raw))
		b.tr.finish(sp)
	}
	if err == nil && t.Len() == 0 {
		err = fmt.Errorf("job %s: empty trace", st.ID)
	}
	if err == nil && !r.replayed {
		r.replayed = true
		sp := b.tr.start("sim.Replay", parent, op)
		err = replaySpec(spec, t)
		b.tr.finish(sp)
	}
	return final.Tasks, err
}
