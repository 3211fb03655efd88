package rundown_test

// One benchmark per experiment E1..E8 (see DESIGN.md's experiment index):
// each runs
// the experiment at Quick scale and reports its headline metric so `go test
// -bench=. -benchmem` regenerates the shape of every quantitative claim in
// the paper. cmd/experiments prints the full tables; EXPERIMENTS.md records
// the Full-scale numbers.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	rundown "repro"
	"repro/internal/experiments"
	"repro/internal/stats"
)

func benchExperiment(b *testing.B, id string, metric func(t *experiments.Table) (string, float64)) {
	var spec experiments.Spec
	for _, s := range experiments.All() {
		if s.ID == id {
			spec = s
		}
	}
	if spec.Run == nil {
		b.Fatalf("experiment %s not registered", id)
	}
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = spec.Run(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	if metric != nil && tbl != nil {
		name, v := metric(tbl)
		b.ReportMetric(v, name)
	}
}

func cellF(tbl *experiments.Table, row, col int) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(tbl.Rows[row][col], "%"), 64)
	if err != nil {
		return 0
	}
	return v
}

// BenchmarkE1MappingCensus regenerates the PAX/CASPER enablement-mapping
// census (6/9/4/2/1 phases; 266/551/262/78/31 lines; 68% simply
// overlappable) and the footprint-based pipeline classification.
func BenchmarkE1MappingCensus(b *testing.B) {
	benchExperiment(b, "E1", func(t *experiments.Table) (string, float64) {
		return "universal-phases", cellF(t, 0, 1)
	})
}

// BenchmarkE2CheckerboardRundown regenerates the paper's worked rundown
// example (524 computations/processor, 288 left over, 712 idle) and the
// seam-mapping recovery.
func BenchmarkE2CheckerboardRundown(b *testing.B) {
	benchExperiment(b, "E2", func(t *experiments.Table) (string, float64) {
		return "barrier-utilization", cellF(t, 0, 7)
	})
}

// BenchmarkE3MappingSweep regenerates the rundown-recovery-by-mapping-kind
// sweep (universal/identity best, indirect at executive cost, null zero).
func BenchmarkE3MappingSweep(b *testing.B) {
	benchExperiment(b, "E3", func(t *experiments.Table) (string, float64) {
		return "universal-gain-%", cellF(t, 1, 3)
	})
}

// BenchmarkE4TaskRatio regenerates the paper's two-tasks-per-processor
// outset condition.
func BenchmarkE4TaskRatio(b *testing.B) {
	benchExperiment(b, "E4", func(t *experiments.Table) (string, float64) {
		return "util-at-2-tasks", cellF(t, 1, 3)
	})
}

// BenchmarkE5MgmtRatio regenerates the computation-to-management ratio
// sweep (the paper's "neighborhood of 200").
func BenchmarkE5MgmtRatio(b *testing.B) {
	benchExperiment(b, "E5", func(t *experiments.Table) (string, float64) {
		return "coarse-grain-ratio", cellF(t, len(t.Rows)-1, 4)
	})
}

// BenchmarkE6SplitPolicies regenerates the executive control-strategy
// comparison (demand/inline vs deferred vs presplit vs released-ahead).
func BenchmarkE6SplitPolicies(b *testing.B) {
	benchExperiment(b, "E6", func(t *experiments.Table) (string, float64) {
		return "presplit-utilization", cellF(t, 3, 2)
	})
}

// BenchmarkE7CompositeMapCost regenerates the composite-map-cost study
// (inline self-defeat vs deferred+cancel bounded loss).
func BenchmarkE7CompositeMapCost(b *testing.B) {
	benchExperiment(b, "E7", func(t *experiments.Table) (string, float64) {
		return "deferred-best-gain-%", cellF(t, 4, 5)
	})
}

// BenchmarkE8EndToEnd regenerates the end-to-end CASPER-profile
// barrier-vs-overlap comparison.
func BenchmarkE8EndToEnd(b *testing.B) {
	benchExperiment(b, "E8", func(t *experiments.Table) (string, float64) {
		return "gain-%-at-8-procs", cellF(t, 0, 3)
	})
}

// BenchmarkExecutiveSORSweep measures the real goroutine executive on the
// red/black SOR workload with seam overlap (wall-clock, not virtual time).
func BenchmarkExecutiveSORSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := rundown.NewGrid(96, 1.3, rundown.HotEdgeBoundary(96))
		if err != nil {
			b.Fatal(err)
		}
		prog, err := g.SORProgram(4, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rundown.Execute(prog, rundown.Options{
			Grain: 256, Overlap: true, Costs: rundown.DefaultCosts(),
		}, rundown.ExecConfig{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures discrete-event simulator speed on a
// large identity chain (events per second drive all experiment runtimes).
func BenchmarkSimulatorThroughput(b *testing.B) {
	prog, err := rundown.Chain(rundown.KindIdentity, 4, 16384, rundown.UnitCost(), 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rundown.Simulate(prog, rundown.Options{
			Grain: 64, Overlap: true, Costs: rundown.DefaultCosts(),
		}, rundown.SimConfig{Procs: 64, Mgmt: rundown.StealsWorker})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Sched.Dispatches), "tasks")
		}
	}
}

// BenchmarkSimulatorThroughputMulti measures the multi-program
// discrete-event engine: 8 co-tenant identity-chain jobs (mixed sizes,
// priorities and weights, so the backfill order and deficit machinery are
// on the hot path) sharing a 64-processor machine. Reports granules/sec
// of simulated work and allocs/op — the PR 6 rewrite gates both: ≥ 5x
// the seed engine's throughput, zero steady-state allocs per dispatch.
func BenchmarkSimulatorThroughputMulti(b *testing.B) {
	const jobs = 8
	specs := make([]rundown.SimJob, jobs)
	var granules int64
	for i := range specs {
		n := 8192 + 2048*i
		prog, err := rundown.Chain(rundown.KindIdentity, 3, n, rundown.UnitCost(), uint64(5+i))
		if err != nil {
			b.Fatal(err)
		}
		granules += int64(prog.TotalGranules())
		specs[i] = rundown.SimJob{
			Name: "job" + strconv.Itoa(i), Prog: prog,
			Opt:      rundown.Options{Grain: 8, Overlap: true, Costs: rundown.DefaultCosts()},
			Priority: i % 2, Weight: 1 + i%3,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rundown.SimulateMulti(specs, rundown.SimConfig{Procs: 64, Mgmt: rundown.ShardedMgmt}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(granules)*float64(b.N)/b.Elapsed().Seconds(), "granules/sec")
}

// BenchmarkSimulatorScaleMillion is the scale lab's acceptance workload:
// one million granules spread over 32 co-tenant jobs on a 1024-worker
// machine — the co-tenancy scale no CI host can run on real goroutines.
// The engine must complete each run in single-digit seconds.
func BenchmarkSimulatorScaleMillion(b *testing.B) {
	const jobs = 32
	specs := make([]rundown.SimJob, jobs)
	var granules int64
	for i := range specs {
		prog, err := rundown.Chain(rundown.KindIdentity, 4, 1_000_000/(4*jobs), rundown.UnitCost(), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		granules += int64(prog.TotalGranules())
		specs[i] = rundown.SimJob{
			Name: "job" + strconv.Itoa(i), Prog: prog,
			Opt:      rundown.Options{Grain: 4, Overlap: true, Costs: rundown.DefaultCosts()},
			Priority: i % 3, Weight: 1 + i%2,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rundown.SimulateMulti(specs, rundown.SimConfig{Procs: 1024, Mgmt: rundown.ShardedMgmt}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(granules)*float64(b.N)/b.Elapsed().Seconds(), "granules/sec")
}

// BenchmarkE9JobStreams regenerates the introduction's batching-vs-overlap
// trade-off (batch raises utilization but lengthens each job).
func BenchmarkE9JobStreams(b *testing.B) {
	benchExperiment(b, "E9", func(t *experiments.Table) (string, float64) {
		return "overlap-utilization", cellF(t, 2, 4)
	})
}

// Manager head-to-head benchmarks: the serial manager (the paper's one
// global executive lock) against the sharded manager (per-worker deques,
// batched completion submission, work stealing) on real goroutine workers
// across the three workload families. Each benchmark reports utilization
// and the computation-to-management ratio; the structural claim is the
// utilization gap at fine grain, where per-task serialization dominates
// the serial manager.

// managerBenchConfig is the common 8-worker setup of the comparison.
func managerBenchConfig(kind rundown.ExecManager) rundown.ExecConfig {
	return rundown.ExecConfig{Workers: 8, Manager: kind, DequeCap: 32, Batch: 16}
}

func benchManager(b *testing.B, kind rundown.ExecManager,
	build func(b *testing.B) (*rundown.Program, rundown.Options)) {
	var utils, ratios []float64
	for i := 0; i < b.N; i++ {
		prog, opt := build(b)
		rep, err := rundown.Execute(prog, opt, managerBenchConfig(kind))
		if err != nil {
			b.Fatal(err)
		}
		utils = append(utils, rep.Utilization)
		ratios = append(ratios, rep.MgmtRatio)
	}
	// Medians, not means: on an oversubscribed host an OS preemption that
	// lands inside a tiny work window inflates that iteration's measured
	// compute by the whole descheduled period, so means are dominated by
	// rare outliers.
	b.ReportMetric(stats.Percentile(utils, 50), "utilization")
	b.ReportMetric(stats.Percentile(ratios, 50), "compute:mgmt")
}

// buildChainFine is the acceptance workload: a fine-grain identity chain
// whose tiny tasks make management the bottleneck. The sharded manager
// must show at least 1.5x the serial manager's utilization here.
func buildChainFine(b *testing.B) (*rundown.Program, rundown.Options) {
	n := 1 << 15
	a := make([]int64, n)
	c := make([]int64, n)
	prog, err := rundown.NewProgram(
		&rundown.Phase{
			Name: "fill", Granules: n,
			Work:   func(g rundown.GranuleID) { a[g] = int64(g) * 3 },
			Enable: rundown.Identity(),
		},
		&rundown.Phase{
			Name: "scale", Granules: n,
			Work:   func(g rundown.GranuleID) { c[g] = a[g] + 1 },
			Enable: rundown.Identity(),
		},
		&rundown.Phase{
			Name: "sum", Granules: n,
			Work: func(g rundown.GranuleID) { a[g] = c[g] ^ a[g] },
		},
	)
	if err != nil {
		b.Fatal(err)
	}
	// Grain 1 is the finest possible tasking: per-task management is at
	// its maximum relative to compute. Identity enablement runs through
	// the counter table (scheduling results are identical to the
	// conflict-queue mechanism; see core.IdentityMode), which lets the
	// batch paths coalesce completions and releases.
	return prog, rundown.Options{
		Grain: 1, Overlap: true, IdentityVia: rundown.IdentityTable,
		Costs: rundown.DefaultCosts(),
	}
}

func buildCasperPipeline(b *testing.B) (*rundown.Program, rundown.Options) {
	p, err := rundown.NewPipeline(1 << 14)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := p.Program()
	if err != nil {
		b.Fatal(err)
	}
	return prog, rundown.Options{Grain: 64, Overlap: true, Elevate: true, Costs: rundown.DefaultCosts()}
}

func buildCheckerboard(b *testing.B) (*rundown.Program, rundown.Options) {
	g, err := rundown.NewGrid(96, 1.3, rundown.HotEdgeBoundary(96))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := g.SORProgram(4, true)
	if err != nil {
		b.Fatal(err)
	}
	return prog, rundown.Options{Grain: 64, Overlap: true, Costs: rundown.DefaultCosts()}
}

// Pool benchmarks: the multi-tenant worker pool (internal/tenant) layered
// above the managers. The single-job pool against Execute is the
// tenancy-layer overhead; the two-job pool reports how much of the
// machine cross-job backfill recovers; the virtual-time pool prices the
// dispatch policy deterministically (no wall-clock noise).

// BenchmarkPoolSingleJobSharded runs the fine-grain chain through a
// single-job pool — compare against BenchmarkManagerChainFineSharded to
// see what the tenancy layer costs when tenancy is not used.
func BenchmarkPoolSingleJobSharded(b *testing.B) {
	var utils []float64
	for i := 0; i < b.N; i++ {
		prog, opt := buildChainFine(b)
		p, err := rundown.NewPool(rundown.PoolConfig{
			Workers: 8, Manager: rundown.ShardedManager, DequeCap: 32, Batch: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		job, err := p.Submit(prog, opt, rundown.PoolJobConfig{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := job.Wait()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Close(); err != nil {
			b.Fatal(err)
		}
		utils = append(utils, rep.Utilization)
	}
	b.ReportMetric(stats.Percentile(utils, 50), "utilization")
}

// BenchmarkPoolTwoJobsSharded runs two jobs concurrently on one pool:
// the fine-grain chain beside the CASPER pipeline, mixed sizes on
// purpose. Reports pool utilization and the backfill share of compute.
func BenchmarkPoolTwoJobsSharded(b *testing.B) {
	var utils, backfill []float64
	for i := 0; i < b.N; i++ {
		p, err := rundown.NewPool(rundown.PoolConfig{
			Workers: 8, Manager: rundown.ShardedManager, DequeCap: 32, Batch: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		chainProg, chainOpt := buildChainFine(b)
		casperProg, casperOpt := buildCasperPipeline(b)
		chainJob, err := p.Submit(chainProg, chainOpt, rundown.PoolJobConfig{Name: "chain"})
		if err != nil {
			b.Fatal(err)
		}
		casperJob, err := p.Submit(casperProg, casperOpt, rundown.PoolJobConfig{Name: "casper"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := chainJob.Wait(); err != nil {
			b.Fatal(err)
		}
		if _, err := casperJob.Wait(); err != nil {
			b.Fatal(err)
		}
		rep, err := p.Close()
		if err != nil {
			b.Fatal(err)
		}
		utils = append(utils, rep.Utilization)
		backfill = append(backfill, rep.BackfillShare)
	}
	b.ReportMetric(stats.Percentile(utils, 50), "utilization")
	b.ReportMetric(stats.Percentile(backfill, 50)*100, "backfill-%")
}

// BenchmarkPoolMultiSim prices the tenancy dispatch policy in virtual
// time (the E11 configuration at quick scale): deterministic, so the
// reported utilization is exact rather than host-dependent.
func BenchmarkPoolMultiSim(b *testing.B) {
	benchExperiment(b, "E11", func(t *experiments.Table) (string, float64) {
		return "pool-utilization", cellF(t, 3, 4)
	})
}

// adaptiveOpts turns on the online batch controller for a workload
// builder: DequeCap/Batch become starting values the manager retunes from
// its measured lock-wait and hoarded-idle shares each epoch.
func adaptiveOpts(build func(b *testing.B) (*rundown.Program, rundown.Options)) func(b *testing.B) (*rundown.Program, rundown.Options) {
	return func(b *testing.B) (*rundown.Program, rundown.Options) {
		prog, opt := build(b)
		opt.AdaptiveBatch = true
		return prog, opt
	}
}

func BenchmarkManagerChainFineSerial(b *testing.B) {
	benchManager(b, rundown.SerialManager, buildChainFine)
}

func BenchmarkManagerChainFineSharded(b *testing.B) {
	benchManager(b, rundown.ShardedManager, buildChainFine)
}

// BenchmarkManagerChainFineShardedFaultsOff is the injection-off control:
// the same workload and manager as BenchmarkManagerChainFineSharded, run
// through the fault-aware configuration with an empty campaign (zero
// rules compile to no plan at all). It pins the claim that fault
// injection off costs one nil check per task — this series must sit
// within noise of the plain sharded series above.
func BenchmarkManagerChainFineShardedFaultsOff(b *testing.B) {
	var utils, ratios []float64
	for i := 0; i < b.N; i++ {
		prog, opt := buildChainFine(b)
		cfg := managerBenchConfig(rundown.ShardedManager)
		cfg.Faults = &rundown.FaultSpec{}
		rep, err := rundown.Execute(prog, opt, cfg)
		if err != nil {
			b.Fatal(err)
		}
		utils = append(utils, rep.Utilization)
		ratios = append(ratios, rep.MgmtRatio)
	}
	b.ReportMetric(stats.Percentile(utils, 50), "utilization")
	b.ReportMetric(stats.Percentile(ratios, 50), "compute:mgmt")
}

// BenchmarkManagerChainFineAdaptive / BenchmarkManagerCasperAdaptive are
// the adaptive pair of the manager comparison: the same workloads as the
// fixed-parameter sharded benchmarks with the batch controller turned on,
// so the utilization delta prices what online tuning buys (or costs) on
// this host.
func BenchmarkManagerChainFineAdaptive(b *testing.B) {
	benchManager(b, rundown.ShardedManager, adaptiveOpts(buildChainFine))
}

func BenchmarkManagerCasperAdaptive(b *testing.B) {
	benchManager(b, rundown.ShardedManager, adaptiveOpts(buildCasperPipeline))
}

// BenchmarkManagerChainFineAsync / BenchmarkManagerCasperAsync are the
// async pair of the manager comparison: the dedicated-management-
// goroutine executive on the same workloads as the serial/sharded/
// adaptive series, so BENCH_pr4.json carries all four architectures
// side by side.
func BenchmarkManagerChainFineAsync(b *testing.B) {
	benchManager(b, rundown.AsyncManager, buildChainFine)
}

func BenchmarkManagerCasperAsync(b *testing.B) {
	benchManager(b, rundown.AsyncManager, buildCasperPipeline)
}

func BenchmarkManagerCheckerboardAsync(b *testing.B) {
	benchManager(b, rundown.AsyncManager, buildCheckerboard)
}

// BenchmarkRunnerChainFineSharded runs the fine-grain chain through the
// Runner front door (New + Run with a context) instead of the legacy
// Execute wrapper — compare against BenchmarkManagerChainFineSharded to
// see what the unified entry point costs, which must be nothing
// measurable: the Runner resolves options once and delegates to the same
// executive.RunContext.
func BenchmarkRunnerChainFineSharded(b *testing.B) {
	runner, err := rundown.New(
		rundown.WithWorkers(8), rundown.WithManager(rundown.ShardedManager),
		rundown.WithDequeCap(32), rundown.WithBatch(16),
	)
	if err != nil {
		b.Fatal(err)
	}
	var utils []float64
	for i := 0; i < b.N; i++ {
		prog, opt := buildChainFine(b)
		rep, err := runner.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
		if err != nil {
			b.Fatal(err)
		}
		utils = append(utils, rep.Utilization)
	}
	b.ReportMetric(stats.Percentile(utils, 50), "utilization")
}

// BenchmarkTraceRecordChainFine measures what the flight recorder costs
// on the hottest dispatch path: the fine-grain chain under the sharded
// manager (8 workers, one trace record per dispatch and per completion),
// traced ("on") versus untraced ("off"), through the same Runner code
// with the recorder set or nil. The difference of the two series, in
// ns/op and B/op, is the recorder's cost on this workload.
func BenchmarkTraceRecordChainFine(b *testing.B) {
	run := func(b *testing.B, opts ...rundown.Option) {
		runner, err := rundown.New(append([]rundown.Option{
			rundown.WithWorkers(8), rundown.WithManager(rundown.ShardedManager),
			rundown.WithDequeCap(32), rundown.WithBatch(16),
		}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		var events []float64
		for i := 0; i < b.N; i++ {
			prog, opt := buildChainFine(b)
			rep, err := runner.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Trace != nil {
				events = append(events, float64(rep.Trace.Len()))
			}
		}
		if len(events) > 0 {
			b.ReportMetric(stats.Percentile(events, 50), "events")
		}
	}
	b.Run("off", func(b *testing.B) { run(b) })
	b.Run("on", func(b *testing.B) { run(b, rundown.WithTrace(nil)) })
}

// BenchmarkMetricsChainFine measures what unified telemetry costs on the
// hottest dispatch path: the fine-grain chain under the sharded manager,
// metered ("on") versus unmetered ("off"). Metering adds per-worker
// sharded counters and one dispatch-wait histogram observation per
// dispatch, which needs two monotonic clock readings around every Next
// call. The difference of the two series is telemetry's cost on this
// workload — the telemetry analogue of BenchmarkTraceRecordChainFine.
func BenchmarkMetricsChainFine(b *testing.B) {
	run := func(b *testing.B, opts ...rundown.Option) {
		runner, err := rundown.New(append([]rundown.Option{
			rundown.WithWorkers(8), rundown.WithManager(rundown.ShardedManager),
			rundown.WithDequeCap(32), rundown.WithBatch(16),
		}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		var utils []float64
		for i := 0; i < b.N; i++ {
			prog, opt := buildChainFine(b)
			rep, err := runner.Run(context.Background(), rundown.Job{Prog: prog, Opt: opt})
			if err != nil {
				b.Fatal(err)
			}
			utils = append(utils, rep.Utilization)
			if rep.Metrics != nil && i == 0 {
				if d := rep.Metrics.Get("rundown_dispatch_total"); d != nil {
					b.ReportMetric(float64(d.Value), "dispatches")
				}
			}
		}
		b.ReportMetric(stats.Percentile(utils, 50), "utilization")
	}
	b.Run("off", func(b *testing.B) { run(b) })
	b.Run("on", func(b *testing.B) { run(b, rundown.WithMetrics()) })
}

func BenchmarkManagerCasperSerial(b *testing.B) {
	benchManager(b, rundown.SerialManager, buildCasperPipeline)
}

func BenchmarkManagerCasperSharded(b *testing.B) {
	benchManager(b, rundown.ShardedManager, buildCasperPipeline)
}

func BenchmarkManagerCheckerboardSerial(b *testing.B) {
	benchManager(b, rundown.SerialManager, buildCheckerboard)
}

func BenchmarkManagerCheckerboardSharded(b *testing.B) {
	benchManager(b, rundown.ShardedManager, buildCheckerboard)
}
