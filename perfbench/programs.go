package main

import (
	"fmt"
	"math/rand"

	"repro/internal/casper"
	"repro/internal/core"
	"repro/internal/enable"
	"repro/internal/granule"
	"repro/internal/workload"
)

// verifyOrder is the problem size at which hand-built programs have
// their declared mappings checked. enable.Verify is exhaustive in
// nPred × nSucc, so each builder is verified at this size and then run
// at full size: the mapping declarations and footprints are the same
// code at both sizes.
const verifyOrder = 64

// verifyProgram checks every adjacent phase pair's declared mapping
// against the footprints fps (aligned with prog's phases).
func verifyProgram(name string, prog *core.Program, fps []enable.AccessFn) error {
	if len(fps) != len(prog.Phases) {
		return fmt.Errorf("%s: %d footprints for %d phases", name, len(fps), len(prog.Phases))
	}
	for k := 0; k+1 < len(prog.Phases); k++ {
		p, q := prog.Phases[k], prog.Phases[k+1]
		if err := enable.Verify(p.Enable, fps[k], p.Granules, fps[k+1], q.Granules); err != nil {
			return fmt.Errorf("%s: phases %q -> %q: %w", name, p.Name, q.Name, err)
		}
	}
	return nil
}

// fineChain is the reference program of the performance ladder: a
// three-phase grain-1 identity chain whose work is one integer operation
// per granule, so per-task management is almost the whole cost.
type fineChain struct {
	init, a, c []int64
	wantA      []int64
	wantC      []int64
	prog       *core.Program
}

// fineOptions are the chain's scheduler options: grain 1, overlap on,
// identity through the enablement-counter table (the configuration the
// repository's fine-chain benchmarks use).
func fineOptions() core.Options {
	return core.Options{Grain: 1, Overlap: true, IdentityVia: core.IdentityTable, Costs: core.DefaultCosts()}
}

// newFineChain builds the chain over n granules with seeded initial
// values and its serial reference output.
func newFineChain(n int, seed uint64) (*fineChain, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	f := &fineChain{init: make([]int64, n), a: make([]int64, n), c: make([]int64, n)}
	for i := range f.init {
		f.init[i] = rng.Int63n(1 << 40)
	}
	prog, err := core.NewProgram(
		&core.Phase{Name: "fill", Granules: n, Enable: enable.NewIdentity(),
			Work: func(g granule.ID) { f.a[g] = f.init[g] * 3 }},
		&core.Phase{Name: "scale", Granules: n, Enable: enable.NewIdentity(),
			Work: func(g granule.ID) { f.c[g] = f.a[g] + 1 }},
		&core.Phase{Name: "sum", Granules: n,
			Work: func(g granule.ID) { f.a[g] = f.c[g] ^ f.a[g] }},
	)
	if err != nil {
		return nil, err
	}
	f.prog = prog
	f.wantA, f.wantC = make([]int64, n), make([]int64, n)
	for g := range f.init {
		a := f.init[g] * 3
		f.wantC[g] = a + 1
		f.wantA[g] = f.wantC[g] ^ a
	}
	return f, nil
}

// footprints declares each phase's shared-array accesses.
func (f *fineChain) footprints() []enable.AccessFn {
	return []enable.AccessFn{
		func(g granule.ID) enable.Footprint {
			return enable.Footprint{Writes: []enable.Effect{{Var: "a", Idx: int(g)}}}
		},
		func(g granule.ID) enable.Footprint {
			return enable.Footprint{
				Reads:  []enable.Effect{{Var: "a", Idx: int(g)}},
				Writes: []enable.Effect{{Var: "c", Idx: int(g)}},
			}
		},
		func(g granule.ID) enable.Footprint {
			return enable.Footprint{
				Reads:  []enable.Effect{{Var: "c", Idx: int(g)}, {Var: "a", Idx: int(g)}},
				Writes: []enable.Effect{{Var: "a", Idx: int(g)}},
			}
		},
	}
}

// verifyFineChain checks the chain builder's mappings at verifyOrder.
func verifyFineChain(seed uint64) error {
	f, err := newFineChain(verifyOrder, seed)
	if err != nil {
		return err
	}
	return verifyProgram("fine chain", f.prog, f.footprints())
}

// reset clears the outputs so a run's check sees only its own writes.
func (f *fineChain) reset() {
	clear(f.a)
	clear(f.c)
}

// check compares the outputs with the serial reference.
func (f *fineChain) check() error {
	for g := range f.a {
		if f.a[g] != f.wantA[g] || f.c[g] != f.wantC[g] {
			return fmt.Errorf("fine chain granule %d: a=%d c=%d, want a=%d c=%d",
				g, f.a[g], f.c[g], f.wantA[g], f.wantC[g])
		}
	}
	return nil
}

// census is the paper's 22-phase CASPER program with an arithmetic
// kernel attached to every phase: granule g of phase k iterates a mixing
// function cost(g) × itersPerUnit times and stores the result in its own
// slot, so compute per granule follows the program's irregular seeded
// cost model.
type census struct {
	prog *core.Program
	cost core.CostFn
	out  [][]uint64
	want uint64 // checksum of a serial evaluation
}

// censusConfig sizes the census program: two unrolled cycles of the
// 22-phase profile (9504 granules) with costs drawn uniformly from
// [1, 48] per granule.
func censusConfig(seed uint64, granulesPerLine int) workload.CasperConfig {
	return workload.CasperConfig{
		GranulesPerLine: granulesPerLine, Cycles: 2,
		Cost: workload.UniformCost(1, 48, seed), SerialCost: 64, Seed: seed,
	}
}

const itersPerUnit = 160

func mix(x uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	return x
}

func censusSeed(k int, g granule.ID) uint64 { return uint64(k)<<32 | uint64(g) }

func newCensus(seed uint64, granulesPerLine int) (*census, error) {
	cfg := censusConfig(seed, granulesPerLine)
	prog, err := workload.CasperProgram(cfg)
	if err != nil {
		return nil, err
	}
	c := &census{prog: prog, cost: cfg.Cost, out: make([][]uint64, len(prog.Phases))}
	for k, ph := range prog.Phases {
		k := k
		c.out[k] = make([]uint64, ph.Granules)
		ph.Work = func(g granule.ID) {
			c.out[k][g] = mix(censusSeed(k, g), int(c.cost(g))*itersPerUnit)
		}
		for g := 0; g < ph.Granules; g++ {
			c.want += mix(censusSeed(k, granule.ID(g)), int(c.cost(granule.ID(g)))*itersPerUnit)
		}
	}
	return c, nil
}

// footprints declares the kernel's accesses: each granule writes its own
// output slot and reads no shared data.
func (c *census) footprints() []enable.AccessFn {
	fps := make([]enable.AccessFn, len(c.prog.Phases))
	for k := range fps {
		k := k
		fps[k] = func(g granule.ID) enable.Footprint {
			return enable.Footprint{Writes: []enable.Effect{{Var: fmt.Sprintf("out%d", k), Idx: int(g)}}}
		}
	}
	return fps
}

func (c *census) reset() {
	for _, o := range c.out {
		clear(o)
	}
}

func (c *census) checksum() uint64 {
	var sum uint64
	for _, o := range c.out {
		for _, v := range o {
			sum += v
		}
	}
	return sum
}

// verifyCensus checks the census mappings against the kernel footprints
// at one granule per source line.
func verifyCensus(seed uint64) error {
	c, err := newCensus(seed, 1)
	if err != nil {
		return err
	}
	return verifyProgram("census", c.prog, c.footprints())
}

// verifyPipeline checks the mini-CFD pipeline's declared mappings
// against its footprints at verifyOrder points.
func verifyPipeline() error {
	p, err := casper.NewPipeline(verifyOrder)
	if err != nil {
		return err
	}
	prog, err := p.Program()
	if err != nil {
		return err
	}
	return verifyProgram("pipeline", prog, p.Footprints())
}
