// Command perfbench is the repository's benchmark: one program that runs
// a named workload from a seed, checks every output it produces, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer ladder)
// as the last line of its standard output.
//
//	bash perfbench/run.sh --workload exec-fine --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package from the checkout it sits in and runs it
// from the repository root, whose BENCHMARK.json declares the workloads,
// metric names, units and bounds; the result must report exactly the
// metrics declared there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(b *bench) error{
	"sim-lab":     runSimLab,
	"exec-fine":   runExecFine,
	"exec-casper": runExecCasper,
	"service-mix": runServiceMix,
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's shared state: the inputs every workload reads and
// the tallies it reports into.
type bench struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	// tr records spans around calls into each layer; nil when untraced,
	// and every tracer method is a no-op on nil.
	tr *tracer

	// mu guards the tallies: the service workload checks outcomes from
	// several goroutines.
	mu                sync.Mutex
	attempted, failed int64
	heapPeak          uint64
	// e2e and layer hold the manifest's end-to-end and per-layer metrics;
	// detail holds workload-specific figures printed beside them but not
	// part of the result line.
	e2e, layer, detail map[string]metric
}

func newBench(seed uint64, seconds time.Duration, traced bool) *bench {
	b := &bench{
		seed: seed, seconds: seconds, traced: traced,
		e2e: map[string]metric{}, layer: map[string]metric{}, detail: map[string]metric{},
	}
	if traced {
		b.tr = newTracer()
	}
	return b
}

// check counts one attempted operation; a false ok counts it as failed
// and logs why.
func (b *bench) check(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
}

// fail counts an operation that returned an error.
func (b *bench) fail(err error) { b.check(false, "%v", err) }

func (b *bench) setE2E(name, unit string, v float64)    { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name, unit string, v float64)  { b.layer[name] = metric{v, unit} }
func (b *bench) setDetail(name, unit string, v float64) { b.detail[name] = metric{v, unit} }

// noteHeap samples the live heap — the bytes the last garbage collection
// found reachable — and keeps the run's maximum. Workloads call it at
// operation boundaries.
func (b *bench) noteHeap() {
	v := readLive()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.heapPeak = max(b.heapPeak, v)
}

// settleHeap collects garbage first, so the sample is the heap the run
// holds at that moment rather than at whatever point the last collection
// happened to land. It returns the sample.
func (b *bench) settleHeap() uint64 {
	runtime.GC()
	b.noteHeap()
	return readLive()
}

func readLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// stealTicks reads the host's cumulative steal time — clock ticks the
// hypervisor ran something else while this machine's CPUs wanted to run
// (the eighth field of /proc/stat's cpu line) — or -1 where unavailable.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// setupRuns is how many times each workload builds its state before
// timing; setup_s is the median, so one slow build does not move it.
const setupRuns = 9

// timeSetup runs build setupRuns times and records the median as
// setup_s. build receives its span for the spans it opens. teardown,
// when non-nil, releases one build's resources before the next
// (untimed); the last build's state is what the workload uses.
func (b *bench) timeSetup(build func(parent int32) error, teardown func()) error {
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		sp := b.tr.start("bench.setup", 0, 0)
		t0 := time.Now()
		if err := build(sp); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
		b.tr.finish(sp)
	}
	b.setE2E("setup_s", "s", median(secs))
	return nil
}

// host is the reproducibility fingerprint printed with every result.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func fingerprint() host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: "unknown", Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "input seed; the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 10, "measurement time in seconds")
		traced   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
		spans    = flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (valid: %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	man, err := readManifest()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b := newBench(*seed, time.Duration(*seconds)*time.Second, *traced == 1)
	start, steal0 := time.Now(), stealTicks()
	if err := fn(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	b.settleHeap()
	fmt.Printf("run took %.2fs; host steal time %d ticks\n", time.Since(start).Seconds(), stealTicks()-steal0)

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	if b.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	okShare := float64(b.attempted-b.failed) / float64(b.attempted)
	fmt.Printf("operations: %d attempted, %d failed (error_share %.6f)\n",
		b.attempted, b.failed, 1-okShare)
	if b.traced {
		res.Metrics = b.layer
		b.tr.report(os.Stdout)
		if err := b.tr.write(*spans, fmt.Sprintf("%s-seed%d.json", *workload, *seed)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	} else {
		b.setE2E("ok_share", "ratio", okShare)
		b.setE2E("peak_live_heap_mb", "MB", float64(b.heapPeak)/(1<<20))
		res.Metrics = b.e2e
	}
	want := man.EndToEnd
	if b.traced {
		want = man.PerLayer
	}
	if err := conform(res.Metrics, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if len(b.detail) > 0 {
		fmt.Println("details (workload-specific, not in the result line):")
		printTable(b.detail)
	}
	fmt.Println("metrics:")
	printTable(res.Metrics)
	meta, _ := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Seconds  int    `json:"seconds"`
		Trace    int    `json:"trace"`
		Host     host   `json:"host"`
	}{*workload, *seed, *seconds, *traced, fingerprint()})
	fmt.Println(string(meta))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// manifest is the part of BENCHMARK.json (at the root of the checkout the
// benchmark runs in) that the result line must match.
type manifest struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []manifestMetric             `json:"end_to_end"`
	PerLayer  []manifestMetric             `json:"per_layer"`
}

type manifestMetric struct{ Name, Unit string }

func readManifest() (*manifest, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// conform checks that got holds exactly the metrics of want, each in its
// declared unit and with a finite value: every workload reports every
// metric of the manifest.
func conform(got map[string]metric, want []manifestMetric) error {
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", w.Name)
		case m.Unit != w.Unit:
			return fmt.Errorf("metric %s is in %q, BENCHMARK.json declares %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s has no finite value", w.Name)
		}
	}
	if len(got) != len(want) {
		for name := range got {
			if !slices.ContainsFunc(want, func(w manifestMetric) bool { return w.Name == name }) {
				return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
			}
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable prints the metrics one per line, sorted by name, ahead of
// the machine-read result line.
func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-44s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
