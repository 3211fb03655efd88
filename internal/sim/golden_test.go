package sim

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/casper"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// The golden determinism suite pins the engine's complete observable
// output — Result / MultiResult fields, per-job and per-phase rundown
// ledgers, scheduler statistics, timeline totals, and the full Observer
// snapshot stream — to fingerprints. Any divergence, down to a single
// snapshot firing one event earlier, changes the fingerprint and fails
// the suite: a performance change must leave every schedule untouched.
//
// Regenerate with `go test ./internal/sim -run TestGolden -update` ONLY
// when an intentional semantic change is being made, and say so in the
// commit.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current engine")

const goldenFile = "testdata/golden.txt"

// goldenHasher accumulates a canonical serialization of run output.
type goldenHasher struct {
	h interface {
		Write(p []byte) (int, error)
		Sum64() uint64
	}
}

func newGoldenHasher() *goldenHasher { return &goldenHasher{h: fnv.New64a()} }

func (g *goldenHasher) ints(vs ...int64) {
	for _, v := range vs {
		fmt.Fprintf(g.h, "%d,", v)
	}
}

// floats hashes exact bit patterns, not formatted decimals: two runs are
// bit-identical only if every derived ratio is too.
func (g *goldenHasher) floats(vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(g.h, "%x,", math.Float64bits(v))
	}
}

func (g *goldenHasher) str(s string) { fmt.Fprintf(g.h, "%s;", s) }

func (g *goldenHasher) stats(st core.Stats) {
	g.ints(st.Dispatches, st.Splits, st.Merges, st.Completions,
		st.EnableTouches, st.TableBuilds, st.TableEntries, st.Releases,
		st.Elevations, st.DeferredItems, st.CatchUps,
		int64(st.DispatchCost), int64(st.SplitCost), int64(st.CompleteCost),
		int64(st.TableCost), int64(st.ElevateCost), int64(st.DeferredCost),
		int64(st.SerialCost))
}

func (g *goldenHasher) snapshots(sns []Snapshot) {
	g.ints(int64(len(sns)))
	for _, sn := range sns {
		g.ints(sn.VirtualTime, sn.Tasks, sn.ComputeUnits, sn.MgmtUnits,
			sn.IdleUnits, int64(sn.Batch), int64(sn.Jobs))
		g.floats(sn.Utilization, sn.OverheadShare)
		if sn.Final {
			g.str("final")
		}
	}
}

func (g *goldenHasher) phases(pts []PhaseTrace) {
	for _, pt := range pts {
		g.str(pt.Name)
		g.ints(pt.Start, pt.End, pt.RundownStart, pt.IdleUnits,
			pt.Dispatched, pt.OverlapUnits)
	}
}

func (g *goldenHasher) timeline(tl *metrics.Timeline) {
	g.ints(tl.BusyTotal(), tl.MgmtTotal(), tl.End(), tl.BucketWidth())
	for _, b := range tl.ByProc() {
		g.ints(b)
	}
}

func (g *goldenHasher) result(res *Result) {
	g.ints(res.Makespan, res.ComputeUnits, res.MgmtUnits, res.SerialUnits,
		res.IdleUnits, int64(res.Workers), int64(res.Procs),
		int64(res.Batch), int64(res.BatchChanges))
	g.floats(res.Utilization, res.WorkerUtilization, res.MgmtRatio)
	g.stats(res.Sched)
	g.phases(res.Phases)
	g.timeline(res.Timeline)
}

func (g *goldenHasher) multiResult(res *MultiResult) {
	g.ints(res.Makespan, res.ComputeUnits, res.MgmtUnits, res.IdleUnits,
		res.BackfillUnits, int64(res.Workers), int64(res.Procs))
	g.floats(res.Utilization)
	for _, j := range res.Jobs {
		g.str(j.Name)
		g.ints(j.Makespan, j.ComputeUnits, j.BackfillUnits, int64(j.HomeWorkers),
			j.SerialUnits)
		g.stats(j.Sched)
		g.phases(j.Phases)
	}
	g.timeline(res.Timeline)
}

// goldenFixture is one pinned configuration. run executes it and returns
// (headline scalars for the readable part of the line, fingerprint).
type goldenFixture struct {
	name string
	run  func(t *testing.T) (headline string, hash uint64)
}

func goldenChain(t *testing.T, phases, granules int, seed uint64) *core.Program {
	t.Helper()
	prog, err := workload.Chain(enable.Identity, phases, granules,
		workload.UniformCost(100, 400, seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func goldenCasper(t *testing.T, seed uint64) *core.Program {
	t.Helper()
	prog, err := workload.CasperProgram(workload.CasperConfig{
		GranulesPerLine: 3, Cycles: 1,
		Cost:       workload.UniformCost(100, 400, seed),
		SerialCost: 100, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func goldenCheckerboard(t *testing.T) *core.Program {
	t.Helper()
	g, err := casper.NewGrid(48, 1.3, casper.HotEdgeBoundary(48))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := g.SORProgram(2, true)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func goldenOpt(grain int) core.Options {
	return core.Options{Grain: grain, Overlap: true, Costs: core.DefaultCosts()}
}

// singleFixture runs one single-program configuration with an observer
// attached and fingerprints everything.
func singleFixture(name string, build func(t *testing.T) *core.Program,
	opt core.Options, cfg Config) goldenFixture {
	return goldenFixture{name: name, run: func(t *testing.T) (string, uint64) {
		var sns []Snapshot
		cfg.Observer = func(sn Snapshot) { sns = append(sns, sn) }
		res, err := Run(build(t), opt, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := newGoldenHasher()
		g.result(res)
		g.snapshots(sns)
		head := fmt.Sprintf("makespan=%d compute=%d mgmt=%d idle=%d snaps=%d",
			res.Makespan, res.ComputeUnits, res.MgmtUnits, res.IdleUnits, len(sns))
		return head, g.h.Sum64()
	}}
}

// multiFixture runs one multi-program configuration with an observer
// attached and fingerprints everything.
func multiFixture(name string, build func(t *testing.T) []JobSpec, cfg Config) goldenFixture {
	return goldenFixture{name: name, run: func(t *testing.T) (string, uint64) {
		var sns []Snapshot
		cfg.Observer = func(sn Snapshot) { sns = append(sns, sn) }
		res, err := RunMulti(build(t), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := newGoldenHasher()
		g.multiResult(res)
		g.snapshots(sns)
		head := fmt.Sprintf("makespan=%d compute=%d mgmt=%d idle=%d snaps=%d",
			res.Makespan, res.ComputeUnits, res.MgmtUnits, res.IdleUnits, len(sns))
		return head, g.h.Sum64()
	}}
}

func goldenFixtures() []goldenFixture {
	var fx []goldenFixture

	// Single-program: every management model on the fine identity chain
	// at two machine sizes, covering the typed event heap, the request
	// ring, the adaptive shard path (fixed and tuned batch), and the
	// async ready-buffer protocol.
	models := []MgmtModel{StealsWorker, Dedicated, Sharded, Adaptive, Async}
	for _, m := range models {
		for _, procs := range []int{8, 48} {
			cfg := Config{Procs: procs, Mgmt: m}
			fx = append(fx, singleFixture(
				fmt.Sprintf("chain/%v/p%d", m, procs),
				func(t *testing.T) *core.Program { return goldenChain(t, 4, 1024, 1986) },
				goldenOpt(4), cfg))
		}
	}
	// Adaptive with the online batch controller (tuner path).
	adaptOpt := goldenOpt(2)
	adaptOpt.AdaptiveBatch = true
	fx = append(fx, singleFixture("chain/adaptive-tuned/p16",
		func(t *testing.T) *core.Program { return goldenChain(t, 4, 2048, 7) },
		adaptOpt, Config{Procs: 16, Mgmt: Adaptive, Batch: 8}))
	// Async with explicit buffer knobs.
	fx = append(fx, singleFixture("chain/async-knobs/p16",
		func(t *testing.T) *core.Program { return goldenChain(t, 4, 2048, 7) },
		goldenOpt(2), Config{Procs: 16, Mgmt: Async, ReadyCap: 24, LowWater: 3}))

	// CASPER census profile (serial actions, every mapping kind) and the
	// checkerboard SOR grid (seam mapping) under the paper's two models.
	for _, m := range []MgmtModel{StealsWorker, Sharded} {
		cfg := Config{Procs: 32, Mgmt: m}
		fx = append(fx, singleFixture(fmt.Sprintf("casper/%v/p32", m),
			func(t *testing.T) *core.Program { return goldenCasper(t, 11) },
			goldenOpt(2), cfg))
	}
	fx = append(fx, singleFixture("checkerboard/steals-worker/p16",
		goldenCheckerboard, goldenOpt(16), Config{Procs: 16, Mgmt: StealsWorker}))

	// Wide machines on fine grains, where the order the management
	// resource serves requests in moves the schedule most: a 3x512
	// grain-1 chain at P=64, and the same program as a barrier (no
	// overlap) under sharded management.
	fineChain := func(t *testing.T) *core.Program { return goldenChain(t, 3, 512, 64) }
	for _, m := range []MgmtModel{StealsWorker, Dedicated, Adaptive} {
		fx = append(fx, singleFixture(fmt.Sprintf("fine-chain/%v/p64", m),
			fineChain, goldenOpt(1), Config{Procs: 64, Mgmt: m}))
	}
	barrierOpt := goldenOpt(1)
	barrierOpt.Overlap = false
	fx = append(fx, singleFixture("barrier/sharded/p64",
		fineChain, barrierOpt, Config{Procs: 64, Mgmt: Sharded}))

	// Multi-program: the three models the seed engine supported, at two
	// job counts, with mixed priorities and weights so the backfill
	// order, deficit replenishment, and rebalance paths are all pinned.
	twoJobs := func(t *testing.T) []JobSpec {
		return []JobSpec{
			{Name: "a", Prog: goldenChain(t, 4, 768, 1), Opt: goldenOpt(4), Weight: 2},
			{Name: "b", Prog: goldenChain(t, 3, 384, 2), Opt: goldenOpt(2), Priority: 1},
		}
	}
	fiveJobs := func(t *testing.T) []JobSpec {
		specs := make([]JobSpec, 5)
		for i := range specs {
			specs[i] = JobSpec{
				Name: fmt.Sprintf("j%d", i),
				Prog: goldenChain(t, 3, 256+64*i, uint64(10+i)),
				Opt:  goldenOpt(2 + i%3),
				// Mixed priorities and weights: exercise the sorted
				// backfill order and largest-remainder home shares.
				Priority: i % 2,
				Weight:   1 + i%3,
			}
		}
		return specs
	}
	for _, m := range []MgmtModel{StealsWorker, Dedicated, Sharded} {
		fx = append(fx, multiFixture(fmt.Sprintf("multi2/%v/p8", m), twoJobs, Config{Procs: 8, Mgmt: m}))
		fx = append(fx, multiFixture(fmt.Sprintf("multi5/%v/p32", m), fiveJobs, Config{Procs: 32, Mgmt: m}))
	}
	// Mixed casper+chain tenancy: serial actions inside a shared pool
	// (the openAt gate) pinned too.
	fx = append(fx, multiFixture("multi-casper/steals-worker/p16",
		func(t *testing.T) []JobSpec {
			return []JobSpec{
				{Name: "casper", Prog: goldenCasper(t, 3), Opt: goldenOpt(2)},
				{Name: "chain", Prog: goldenChain(t, 3, 512, 4), Opt: goldenOpt(4), Priority: 1},
			}
		}, Config{Procs: 16, Mgmt: StealsWorker}))

	return fx
}

// TestGoldenDeterminism compares every fixture's fingerprint against
// testdata/golden.txt (or rewrites the file under -update).
func TestGoldenDeterminism(t *testing.T) {
	fixtures := goldenFixtures()
	got := make(map[string]string, len(fixtures))
	var order []string
	for _, fx := range fixtures {
		head, hash := fx.run(t)
		got[fx.name] = fmt.Sprintf("%s %016x %s", fx.name, hash, head)
		order = append(order, fx.name)
	}
	if *updateGolden {
		sort.Strings(order)
		var b strings.Builder
		b.WriteString("# Golden engine fingerprints: <fixture> <fnv64a> <headline scalars>\n")
		b.WriteString("# Regenerate with: go test ./internal/sim -run TestGolden -update\n")
		for _, name := range order {
			b.WriteString(got[name])
			b.WriteString("\n")
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fixtures to %s", len(order), goldenFile)
		return
	}

	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		w, ok := want[fx.name]
		if !ok {
			t.Errorf("fixture %q not in golden file (run -update?)", fx.name)
			continue
		}
		if got[fx.name] != w {
			t.Errorf("fixture %q diverged from the pinned engine:\n  got  %s\n  want %s",
				fx.name, got[fx.name], w)
		}
		delete(want, fx.name)
	}
	for name := range want {
		t.Errorf("golden file has stale fixture %q (run -update?)", name)
	}
}
