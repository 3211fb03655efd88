package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	rundown "repro"
	"repro/internal/service"
	"repro/internal/trace"
)

// The service-mix workload drives rundownd — the daemon's server with two
// pool workers, the shipped serial manager, and its always-on flight
// recorder and metrics — over loopback HTTP from this process.
//
// Phase one is an open loop: a seeded arrival schedule at a fixed
// nominal 25% pool load, sent on at most two connections by two sender
// goroutines, each job timed from the moment it was due. The load is
// well below the 60% first planned because this process shares the two
// CPUs with the daemon (HTTP, SSE and JSON on both sides come on top of
// the pool's own time) and the host steals CPU time in bursts: at 60%,
// and still at 40%, a burst of steal pushed the queue toward overload and
// the latencies measured the host rather than the daemon. Saturation is
// what phase two measures. Each accepted job's completion is read from
// its own SSE stream. A pool SSE subscriber, periodic /metrics scrapes
// and status reads run alongside. Phase two submits a saturating burst
// of batch jobs and times its drain; trace downloads of finished jobs
// follow it.

// Job kinds of the mix.
const (
	kindFine    = "fine"    // grain-1 chain, bound by management and the recorder
	kindCoarse  = "coarse"  // busy-spin chain of irregular size, bound by rundown and backfill
	kindLatency = "latency" // small latency-class job, exercises admission
)

// mixDeck is the mix in arrival order before the seeded shuffle: every
// seed offers the same jobs per deck, so the load does not depend on the
// seed. Fine jobs are the majority so the pooled median falls inside one
// class's distribution; with the classes nearer even, it fell in the gap
// between the short and the long jobs and moved with every rejection.
var mixDeck = []string{
	kindFine, kindFine, kindFine, kindFine, kindFine, kindFine,
	kindFine, kindFine, kindFine, kindFine, kindFine, kindFine,
	kindCoarse, kindCoarse, kindCoarse, kindCoarse,
	kindLatency, kindLatency, kindLatency, kindLatency,
}

// Coarse chains take every pairing of these mappings and phase widths
// once per round of coarseShapes jobs, in seeded order: every seed offers
// the same shapes, so the rare slow shape (wide and behind barriers)
// appears as often under every seed and the latency tail does not hinge
// on how many of them a seed happened to draw.
var (
	coarseMaps   = []string{"identity", "universal", "reverse-indirect", "forward-indirect", "seam", "null"}
	coarseSizes  = []int{24, 28, 32, 36, 40}
	coarseShapes = len(coarseMaps) * len(coarseSizes)
)

const (
	fineSpecGranules = 128
	coarseWorkMicros = 200
	latencyGranules  = 16
	latencyWork      = 50
	latencyTolerance = 50 // percent projected slowdown a latency job accepts

	// fineTaskCost is the nominal daemon cost of one grain-1 task with
	// the recorder and metrics on (about what the exec-fine ladder's
	// serial, trace and telemetry rows add up to on a two-CPU host),
	// used only to size the arrival rate; spin jobs are sized by their
	// spin.
	fineTaskCost = 4 * time.Microsecond
	targetLoad   = 0.25
	openShare    = 0.65 // share of the run spent in the open loop
	burstJobs    = 300

	scrapeEvery = 250 * time.Millisecond
	statusEvery = 100 * time.Millisecond
	minFetches  = 16
	drainLimit  = 60 * time.Second
)

// mixJob is one offered job and what became of it.
type mixJob struct {
	kind  string
	spec  service.JobSpec
	tasks int64         // tasks the job must report when done
	cost  time.Duration // nominal pool time
	due   time.Duration // offset from the phase start

	id      string
	code    int
	sent    time.Time
	doneAt  time.Time
	ok      bool // done with the expected task count
	queueNS int64
	traceOp int64
	// steal is the host steal ticks from the job's due time to its
	// completion.
	steal    int64
	rootSpan int32
}

// newMixJob builds the spec of one job of the given kind; shape picks a
// coarse job's mapping and width (below coarseShapes).
func newMixJob(kind string, rng *rand.Rand, shape int) *mixJob {
	j := &mixJob{kind: kind}
	seed := rng.Uint64()
	switch kind {
	case kindFine:
		j.spec = service.JobSpec{Grain: 1, Class: service.ClassBatch, Workload: service.WorkloadSpec{
			Mapping: "identity", Phases: 3, Granules: fineSpecGranules, Seed: seed}}
		j.tasks = 3 * fineSpecGranules
		j.cost = time.Duration(j.tasks) * fineTaskCost
	case kindCoarse:
		n := coarseSizes[shape%len(coarseSizes)]
		j.spec = service.JobSpec{Grain: 1, Class: service.ClassBatch, Workload: service.WorkloadSpec{
			Mapping: coarseMaps[shape/len(coarseSizes)], Phases: 4, Granules: n,
			CostLo: 1, CostHi: 16, Seed: seed, WorkMicros: coarseWorkMicros}}
		j.tasks = int64(4 * n)
		j.cost = time.Duration(4*n*coarseWorkMicros) * time.Microsecond
	case kindLatency:
		j.spec = service.JobSpec{Grain: 1, Class: service.ClassLatency, TolerancePct: latencyTolerance,
			Workload: service.WorkloadSpec{Mapping: "identity", Phases: 2, Granules: latencyGranules,
				Seed: seed, WorkMicros: latencyWork}}
		j.tasks = 2 * latencyGranules
		j.cost = time.Duration(2*latencyGranules*latencyWork) * time.Microsecond
	}
	return j
}

// schedule deals jobs from seeded shuffles of the deck until they fill
// the open-loop window at the target load. Arrivals are evenly spaced
// with seeded jitter, so the offered load is the same for every seed.
// With n > 0 it deals exactly n jobs, all due at once: a burst.
func schedule(seed uint64, window time.Duration, batchOnly bool, n int) []*mixJob {
	rng := rand.New(rand.NewSource(int64(seed)))
	var jobs []*mixJob
	var busy time.Duration
	var shapes []int
	for {
		deck := append([]string(nil), mixDeck...)
		rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		for _, k := range deck {
			if batchOnly && k == kindLatency {
				continue
			}
			shape := 0
			if k == kindCoarse {
				if len(shapes) == 0 {
					shapes = rng.Perm(coarseShapes)
				}
				shape, shapes = shapes[0], shapes[1:]
			}
			j := newMixJob(k, rng, shape)
			jobs = append(jobs, j)
			busy += j.cost
			if n > 0 && len(jobs) == n {
				return jobs
			}
		}
		if n == 0 && float64(busy) >= targetLoad*workers*float64(window) {
			break
		}
	}
	gap := float64(window) / float64(len(jobs))
	for i, j := range jobs {
		j.due = time.Duration(gap * (float64(i) + 0.5 + 0.8*(rng.Float64()-0.5)))
	}
	return jobs
}

// limitsPattern finds the per-class latency limits in BENCHMARK.json's
// service-mix entry, e.g. "limits_ms fine=250 coarse=400 latency=60".
var limitsPattern = regexp.MustCompile(`limits_ms((?: [a-z]+=[0-9]+)+)`)

// readLimits loads the fixed per-class goodput limits from BENCHMARK.json
// in the working directory (the checkout root).
func readLimits() (map[string]time.Duration, error) {
	man, err := readManifest()
	if err != nil {
		return nil, fmt.Errorf("reading per-class limits: %w", err)
	}
	for _, w := range man.Workloads {
		if w.Name != "service-mix" {
			continue
		}
		m := limitsPattern.FindStringSubmatch(w.Why)
		if m == nil {
			break
		}
		limits := map[string]time.Duration{}
		for _, kv := range strings.Fields(m[1]) {
			k, v, _ := strings.Cut(kv, "=")
			ms, err := strconv.Atoi(v)
			if err != nil {
				return nil, err
			}
			limits[k] = time.Duration(ms) * time.Millisecond
		}
		for _, k := range []string{kindFine, kindCoarse, kindLatency} {
			if limits[k] <= 0 {
				return nil, fmt.Errorf("BENCHMARK.json: service-mix limits_ms has no %q limit", k)
			}
		}
		return limits, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json: service-mix why line has no limits_ms")
}

// daemon is one in-process rundownd on a loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	// load carries submissions: at most two connections. watch carries
	// the SSE streams, scrapes, status reads and trace downloads.
	load, watch *http.Client
}

func startDaemon() (*daemon, error) {
	srv, err := service.New(service.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		base:  "http://" + ln.Addr().String(),
		load:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		watch: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, closes the listener and waits for the server
// goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainLimit)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	// Close the client side first: a connection the transport dialed but
	// never used stays "new" on the server, and Shutdown waits seconds
	// before counting such a connection idle.
	d.load.CloseIdleConnections()
	d.watch.CloseIdleConnections()
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// get issues a GET and returns the body, timing the call.
func (d *daemon) get(ctx context.Context, path string) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := d.watch.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	dur := time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, dur, err
}

// poolSample reads the daemon's live pool snapshot.
func (d *daemon) poolSample() (service.PoolStatus, error) {
	var st service.PoolStatus
	body, _, err := d.get(context.Background(), "/v1/status")
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st, err
}

// mixRun is one run's shared measurements.
type mixRun struct {
	b *bench
	d *daemon

	mu       sync.Mutex
	samples  map[string][]float64 // by name; milliseconds except fetch_bytes
	finished []*mixJob            // done jobs, completion order
	latest   string               // most recently accepted job ID
	replayed bool
	jobs     int64 // jobs this run got accepted
	wg       sync.WaitGroup
}

func (m *mixRun) add(name string, v float64) {
	m.mu.Lock()
	m.samples[name] = append(m.samples[name], v)
	m.mu.Unlock()
}

// submit posts j and, when accepted, follows its SSE stream to the final
// event on its own goroutine.
func (m *mixRun) submit(j *mixJob) {
	b := m.b
	body, err := json.Marshal(j.spec)
	if err != nil {
		b.fail(err)
		return
	}
	sp := b.tr.start("service.POST /v1/jobs", j.rootSpan, j.traceOp)
	j.sent = time.Now()
	resp, err := m.d.load.Post(m.d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		b.tr.finish(sp)
		b.fail(fmt.Errorf("submit %s: %w", j.kind, err))
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	b.tr.finish(sp)
	m.add("submit", float64(time.Since(j.sent).Nanoseconds())/1e6)
	j.code = resp.StatusCode
	switch {
	case err != nil:
		b.fail(fmt.Errorf("submit %s: %w", j.kind, err))
		return
	case resp.StatusCode == http.StatusTooManyRequests && j.kind == kindLatency:
		// A latency-class refusal is the admission contract working: not
		// a failure, but a miss for goodput.
		b.check(true, "")
		b.tr.finish(j.rootSpan)
		return
	case resp.StatusCode != http.StatusAccepted:
		b.check(false, "submit %s: HTTP %d: %s", j.kind, resp.StatusCode, raw)
		return
	}
	var st service.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		b.fail(fmt.Errorf("submit %s: response: %w", j.kind, err))
		return
	}
	j.id = st.ID
	m.mu.Lock()
	m.latest = st.ID
	m.jobs++
	m.mu.Unlock()
	m.wg.Add(1)
	go m.follow(j)
}

// follow reads job j's SSE stream until its final event and checks it.
func (m *mixRun) follow(j *mixJob) {
	defer m.wg.Done()
	b := m.b
	defer b.tr.finish(j.rootSpan)
	sp := b.tr.start("service.GET /v1/jobs/{id}/events", j.rootSpan, j.traceOp)
	st, err := m.d.final(j.id)
	j.doneAt = time.Now()
	j.steal += stealTicks()
	b.tr.finish(sp)
	if err == nil && st.State != "done" {
		err = fmt.Errorf("state %q: %s", st.State, st.Error)
	}
	if err == nil && st.Tasks != j.tasks {
		err = fmt.Errorf("ran %d tasks, want %d", st.Tasks, j.tasks)
	}
	if err == nil && st.Report != nil {
		j.queueNS = st.Report.QueueWait.Nanoseconds()
	}
	j.ok = err == nil
	b.check(j.ok, "service job %s (%s): %v", j.id, j.kind, err)
	if j.ok {
		m.mu.Lock()
		m.finished = append(m.finished, j)
		m.mu.Unlock()
	}
}

// final returns the job's terminal status from its SSE stream.
func (d *daemon) final(id string) (service.JobStatus, error) {
	var st service.JobStatus
	resp, err := d.watch.Get(d.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && event == "final" {
			return st, json.Unmarshal([]byte(data), &st)
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("job %s: stream ended without a final event", id)
}

// every calls fn each period until ctx ends.
func every(ctx context.Context, wg *sync.WaitGroup, period time.Duration, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// observe runs the side traffic until ctx ends: the pool SSE subscriber,
// /metrics scrapes and status reads.
func (m *mixRun) observe(ctx context.Context, wg *sync.WaitGroup, events *int64) {
	b := m.b
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.d.base+"/v1/events", nil)
		if err != nil {
			b.fail(err)
			return
		}
		resp, err := m.d.watch.Do(req)
		if err != nil {
			b.fail(fmt.Errorf("pool SSE: %w", err))
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "event: ") {
				m.mu.Lock()
				*events++
				m.mu.Unlock()
			}
		}
	}()
	every(ctx, wg, scrapeEvery, func() {
		op := b.tr.op()
		sp := b.tr.start("service.GET /metrics", 0, op)
		body, dur, err := m.d.get(ctx, "/metrics")
		b.tr.finish(sp)
		if ctx.Err() != nil {
			return
		}
		b.check(err == nil && bytes.Contains(body, []byte("rundown_dispatch_total")), "metrics scrape: %v", err)
		m.add("scrape", float64(dur.Nanoseconds())/1e6)
	})
	every(ctx, wg, statusEvery, func() {
		m.mu.Lock()
		id := m.latest
		m.mu.Unlock()
		if id == "" {
			return
		}
		op := b.tr.op()
		sp := b.tr.start("service.GET /v1/jobs/{id}", 0, op)
		body, dur, err := m.d.get(ctx, "/v1/jobs/"+id)
		b.tr.finish(sp)
		if ctx.Err() != nil {
			return
		}
		var st service.JobStatus
		if err == nil {
			err = json.Unmarshal(body, &st)
		}
		b.check(err == nil && st.ID == id, "status %s: %v", id, err)
		m.add("status", float64(dur.Nanoseconds())/1e6)
	})
}

// fetchLatest downloads the trace of the most recently finished job.
func (m *mixRun) fetchLatest(ctx context.Context) {
	m.mu.Lock()
	var j *mixJob
	if n := len(m.finished); n > 0 {
		j = m.finished[n-1]
	}
	m.mu.Unlock()
	if j != nil {
		m.fetchTrace(ctx, j)
	}
}

// fetchTrace downloads a finished job's trace, checks that it parses,
// and replays the first one through ReplayTrace.
func (m *mixRun) fetchTrace(ctx context.Context, j *mixJob) {
	b := m.b
	op := b.tr.op()
	sp := b.tr.start("service.GET /v1/jobs/{id}/trace", 0, op)
	body, dur, err := m.d.get(ctx, "/v1/jobs/"+j.id+"/trace")
	b.tr.finish(sp)
	if ctx.Err() != nil {
		return
	}
	var t *trace.Trace
	if err == nil {
		sp := b.tr.start("trace.Read", 0, op)
		t, err = trace.Read(bytes.NewReader(body))
		b.tr.finish(sp)
	}
	if err == nil && t.Len() == 0 {
		err = fmt.Errorf("empty trace")
	}
	b.check(err == nil, "trace of %s: %v", j.id, err)
	if err != nil {
		return
	}
	m.add("fetch", float64(dur.Nanoseconds())/1e6)
	m.add("fetch_bytes", float64(len(body)))
	m.mu.Lock()
	first := !m.replayed
	m.replayed = true
	m.mu.Unlock()
	if first {
		sp := b.tr.start("sim.Replay", 0, op)
		err := replaySpec(j.spec, t)
		b.tr.finish(sp)
		b.check(err == nil, "replay of %s: %v", j.id, err)
	}
}

// specProgram builds the program the daemon materializes for spec: the
// same generators, seeded cost model and parameters (the spin work it
// attaches does not change the schedule).
func specProgram(spec service.JobSpec) (*rundown.Program, error) {
	w := spec.Workload
	lo := max(w.CostLo, 1)
	cost := rundown.UniformCost(rundown.Cost(lo), rundown.Cost(max(w.CostHi, lo)), w.Seed)
	if w.Kind == "casper" {
		return rundown.CasperProgram(rundown.CasperConfig{Cycles: max(w.Cycles, 1), Cost: cost, Seed: w.Seed})
	}
	kind, err := rundown.ParseMappingKind(w.Mapping)
	if err != nil {
		return nil, err
	}
	return rundown.Chain(kind, w.Phases, w.Granules, cost, w.Seed)
}

// replaySpec replays a downloaded schedule against the program the
// daemon ran for spec.
func replaySpec(spec service.JobSpec, t *trace.Trace) error {
	prog, err := specProgram(spec)
	if err != nil {
		return err
	}
	res, err := rundown.ReplayTrace(prog, rundown.Options{Grain: spec.Grain, Overlap: true}, t)
	if err != nil {
		return err
	}
	if res.Granules != int64(prog.TotalGranules()) {
		return fmt.Errorf("replayed %d granules, program has %d", res.Granules, prog.TotalGranules())
	}
	return nil
}

// send feeds jobs to two sender goroutines on their due times and
// returns when every job has been submitted. A traced run gives every
// other job a root span, so traced and untraced jobs can be compared.
func (m *mixRun) send(jobs []*mixJob, start time.Time) {
	ch := make(chan *mixJob)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				m.submit(j)
			}
		}()
	}
	for i, j := range jobs {
		if d := time.Until(start.Add(j.due)); d > 0 {
			time.Sleep(d)
		}
		if m.b.traced && i%2 == 1 {
			j.traceOp = m.b.tr.op()
			j.rootSpan = m.b.tr.start("bench.job", 0, j.traceOp)
		}
		j.steal = -stealTicks()
		ch <- j
	}
	close(ch)
	wg.Wait()
}

func runServiceMix(b *bench) error {
	limits, err := readLimits()
	if err != nil {
		return err
	}
	// A traced run gives half its time to the open loop and the burst and
	// half to the ladder.
	span := b.seconds
	if b.traced {
		span = b.seconds / 2
	}
	openWindow := time.Duration(float64(span) * openShare)
	var (
		d      *daemon
		jobs   []*mixJob
		burst  []*mixJob
		builds []float64
	)
	build := func(parent int32) error {
		sp := b.tr.start("workload.schedule", parent, 0)
		t0 := time.Now()
		jobs = schedule(b.seed, openWindow, false, 0)
		burst = schedule(b.seed+1, 0, true, burstJobs)
		builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e6)
		b.tr.finish(sp)
		sp = b.tr.start("service.New", parent, 0)
		d, err = startDaemon()
		b.tr.finish(sp)
		if err != nil {
			return err
		}
		// Warm-up: one deck of jobs through the fresh daemon.
		m := &mixRun{b: b, d: d, samples: map[string][]float64{}}
		m.send(schedule(b.seed+2, 0, false, len(mixDeck)), time.Now())
		m.wg.Wait()
		return nil
	}
	teardown := func() {
		if err := d.stop(); err != nil {
			b.fail(fmt.Errorf("daemon stop: %w", err))
		}
	}
	if err := b.timeSetup(build, teardown); err != nil {
		return err
	}
	b.setLayer("workload.build_ms", "ms", median(builds))
	fmt.Printf("service-mix: %d open-loop jobs over %v (nominal load %.0f%%), burst of %d\n",
		len(jobs), openWindow, 100*targetLoad, len(burst))

	// The daemon's live heap is sampled after forced collections at phase
	// boundaries. Its retention only grows, so the last sample is the
	// run's peak; a collection landing inside a trace download would add
	// a timing-dependent transient.
	m := &mixRun{b: b, d: d, samples: map[string][]float64{}}
	heap0 := b.settleHeap()
	s0, err0 := d.poolSample()
	ctx, stopObs := context.WithCancel(context.Background())
	var sseEvents int64
	var obs sync.WaitGroup
	m.observe(ctx, &obs, &sseEvents)

	start := time.Now()
	m.send(jobs, start)
	m.wg.Wait()
	s1, err1 := d.poolSample()
	b.check(err0 == nil && err1 == nil, "pool status: %v %v", err0, err1)
	b.settleHeap()
	busy := func(s service.PoolStatus) float64 { return float64(s.Pool.Compute + s.Pool.Mgmt) }
	fmt.Printf("service-mix: open-loop pool busy share %.3f (compute+management over %d workers x wall)\n",
		(busy(s1)-busy(s0))/(float64(workers)*float64(s1.Pool.Elapsed-s0.Pool.Elapsed)), workers)

	s2, err2 := d.poolSample()
	burstStart := time.Now()
	m.send(burst, burstStart)
	m.wg.Wait()
	s3, err3 := d.poolSample()
	b.check(err2 == nil && err3 == nil, "pool status: %v %v", err2, err3)
	// Trace downloads run after the burst has drained, one after another.
	// Each one copies the recorder's whole history, so it takes a CPU for
	// tens to hundreds of milliseconds: beside the open loop or the burst
	// a few such stalls moved the latencies and the drain rate by where
	// they happened to land. Their cost shows in the download times and
	// in peak_live_heap_mb.
	for len(m.samples["fetch"]) < minFetches {
		m.fetchLatest(ctx)
	}
	var drained time.Time
	var burstTasks int64
	for _, j := range burst {
		if j.doneAt.After(drained) {
			drained = j.doneAt
		}
		burstTasks += j.tasks
	}
	stopObs()
	obs.Wait()
	metricsText, _, merr := d.get(context.Background(), "/metrics")
	heap1 := b.settleHeap()
	if err := d.stop(); err != nil {
		b.fail(fmt.Errorf("daemon stop: %w", err))
	}
	if merr != nil {
		return merr
	}

	// Open-loop latency, goodput and lateness.
	var lat, late, latTraced, latPlain, queue []float64
	byKind := map[string][]float64{}
	var fine opSamples
	good, rejected := 0, 0
	for i, j := range jobs {
		late = append(late, float64(j.sent.Sub(start.Add(j.due)).Nanoseconds())/1e6)
		if j.code == http.StatusTooManyRequests {
			rejected++
		}
		if !j.ok {
			continue
		}
		d := j.doneAt.Sub(start.Add(j.due))
		ms := float64(d.Nanoseconds()) / 1e6
		lat = append(lat, ms)
		byKind[j.kind] = append(byKind[j.kind], ms)
		if j.kind == kindFine {
			fine.add(ms, j.steal)
		}
		if b.traced && i%2 == 1 {
			latTraced = append(latTraced, ms)
		} else {
			latPlain = append(latPlain, ms)
		}
		queue = append(queue, float64(j.queueNS)/1e6)
		if d <= limits[j.kind] {
			good++
		}
	}
	for _, j := range burst {
		if j.ok {
			queue = append(queue, float64(j.queueNS)/1e6)
		}
	}
	for _, k := range []string{kindFine, kindCoarse, kindLatency} {
		p, used := tail(byKind[k], 99)
		fmt.Printf("service-mix: %-7s n=%-4d p50=%.2fms p%.1f=%.2fms limit=%v\n", k, len(byKind[k]), median(byKind[k]), used, p, limits[k])
	}
	p99, used := tail(lat, 99)
	fmt.Printf("service-mix: %d latency samples (p99 reported at p%.2f), %d rejected, %d good of %d offered\n",
		len(lat), used, rejected, good, len(jobs))
	drain := drained.Sub(burstStart).Seconds()
	// The operation is a fine job, the majority class. The median over
	// the whole mix falls in the fine jobs' upper tail, where the other
	// classes' shares decide it, and moved twice as much between seeds.
	b.setE2E("op_p50_ms", "ms", fine.median())
	b.setDetail("fine_jobs_without_steal", "ratio", fine.cleanShare())
	b.setDetail("job_p50_ms", "ms", median(lat))
	b.setE2E("granules_per_s", "granules/s", float64(burstTasks)/drain)
	// Utilization of the burst: compute over workers x wall between the
	// pool snapshots around it.
	b.setE2E("utilization", "ratio",
		float64(s3.Pool.Compute-s2.Pool.Compute)/(float64(workers)*float64(s3.Pool.Elapsed-s2.Pool.Elapsed)))

	p99of := func(name string, xs []float64) float64 {
		v, used := tail(xs, 99)
		fmt.Printf("service-mix: %s.p99 from %d samples, reported at p%.1f\n", name, len(xs), used)
		return v
	}
	compute, backfill := promValue(metricsText, "rundown_compute_time_total"), promValue(metricsText, "rundown_backfill_time_total")
	b.setDetail("job_p99_ms", "ms", p99)
	b.setDetail("goodput_share", "ratio", float64(good)/float64(len(jobs)))
	b.setDetail("service_capacity_jobs_per_s", "jobs/s", float64(len(burst))/drain)
	b.setDetail("tenant.backfill_time_share", "ratio", backfill/compute)
	b.setDetail("tenant.queue_wait_ms.p50", "ms", median(queue))
	b.setDetail("tenant.queue_wait_ms.p99", "ms", p99of("tenant.queue_wait_ms", queue))
	b.setDetail("service.submit_ms.p50", "ms", median(m.samples["submit"]))
	b.setDetail("service.submit_ms.p99", "ms", p99of("service.submit_ms", m.samples["submit"]))
	b.setDetail("service.status_ms.p50", "ms", median(m.samples["status"]))
	b.setDetail("service.metrics_scrape_ms.p50", "ms", median(m.samples["scrape"]))
	b.setDetail("service.reject_share", "ratio", float64(rejected)/float64(len(jobs)))
	b.setDetail("service.trace_fetch_ms.p50", "ms", median(m.samples["fetch"]))
	b.setDetail("service.trace_fetch_ms.p99", "ms", p99of("service.trace_fetch_ms", m.samples["fetch"]))
	b.setDetail("service.trace_fetch_bytes", "bytes", median(m.samples["fetch_bytes"]))
	b.setDetail("service.heap_growth_mb_per_kjob", "MB", (float64(heap1)-float64(heap0))/(1<<20)/(float64(m.jobs)/1000))
	b.setDetail("service.sse_events", "count", float64(sseEvents))
	b.setDetail("service.gen_late_ms.p99", "ms", p99of("service.gen_late_ms", late))
	if !b.traced {
		return nil
	}
	b.setLayer("bench.trace_overhead_ms", "ms", median(latTraced)-median(latPlain))
	s, err := mixSubject(jobs)
	if err != nil {
		return err
	}
	return runLadder(b, s, b.seconds-span)
}

// mixSubject prices the mix's first fine and first coarse job at every
// layer: the programs the daemon builds from their specs, with the same
// spin work and scheduler options.
func mixSubject(jobs []*mixJob) (*subject, error) {
	s := &subject{opt: rundown.Options{Grain: 1, Overlap: true}}
	for _, kind := range []string{kindFine, kindCoarse} {
		for _, j := range jobs {
			if j.kind != kind {
				continue
			}
			prog, err := specProgram(j.spec)
			if err != nil {
				return nil, err
			}
			if us := j.spec.Workload.WorkMicros; us > 0 {
				work := spin(time.Duration(us) * time.Microsecond)
				for _, ph := range prog.Phases {
					ph.Work = work
				}
			}
			s.progs = append(s.progs, prog)
			s.specs = append(s.specs, j.spec)
			break
		}
	}
	if len(s.progs) != 2 {
		return nil, fmt.Errorf("the open loop offered no fine or no coarse job")
	}
	return s, nil
}

// spin returns a work function that busy-spins for d per granule, as the
// daemon's work_us does.
func spin(d time.Duration) rundown.WorkFn {
	return func(rundown.GranuleID) {
		for end := time.Now().Add(d); time.Now().Before(end); {
		}
	}
}

// promValue reads one unlabeled sample from Prometheus text exposition.
func promValue(text []byte, name string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
