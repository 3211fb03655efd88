package sim

// TestTraceOrderGolden pins the trace's equal-virtual-timestamp ordering
// contract (documented in trace.go): at one tick, (1) the KMark fires at
// the top of the loop iteration before the event it serves, (2) each
// KComplete precedes the scheduler absorption that enables further
// dispatches (so any enabled KDispatch carries a larger Seq), and (3)
// otherwise events follow the engine's queue tie-break order. The
// full merged event stream of fixed small configurations — every field
// of every event — is fingerprinted against testdata/trace_golden.txt.
// A change that reorders even two same-tick events changes the hash.
//
// Regenerate with `go test ./internal/sim -run TestTraceOrder -update`
// ONLY when the ordering contract is being changed intentionally, and
// update the contract documentation in trace.go in the same commit.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"
)

const traceGoldenFile = "testdata/trace_golden.txt"

func traceFingerprint(t *testing.T, name string, tr *trace.Trace) (string, uint64) {
	t.Helper()
	if tr == nil || tr.Len() == 0 {
		t.Fatalf("%s: empty trace", name)
	}
	g := newGoldenHasher()
	g.str(tr.Meta.Model)
	g.ints(int64(tr.Meta.Workers), int64(tr.Len()))
	for i := range tr.Events {
		ev := &tr.Events[i]
		// Seq is deliberately not hashed: it is the merge key, and the
		// merged order already reflects it. Hashing the payload in merged
		// order pins exactly the ordering contract.
		g.ints(ev.Time, int64(ev.Kind), int64(ev.Proc), int64(ev.Job),
			int64(ev.Phase), int64(ev.Lo), int64(ev.Hi), ev.Arg)
	}
	head := fmt.Sprintf("events=%d dispatches=%d completes=%d",
		tr.Len(), tr.Count(trace.KDispatch), tr.Count(trace.KComplete))
	return head, g.h.Sum64()
}

func TestTraceOrderGolden(t *testing.T) {
	type fixture struct {
		name string
		run  func(t *testing.T) *trace.Trace
	}
	single := func(name string, model MgmtModel, procs, phases, granules int, opt func(*Config)) fixture {
		return fixture{name: name, run: func(t *testing.T) *trace.Trace {
			cfg := Config{Procs: procs, Mgmt: model,
				Trace: trace.NewRecorder(trace.Meta{}, procs)}
			if opt != nil {
				opt(&cfg)
			}
			if _, err := Run(goldenChain(t, phases, granules, 1986), goldenOpt(4), cfg); err != nil {
				t.Fatal(err)
			}
			return cfg.Trace.Take()
		}}
	}
	fixtures := []fixture{
		// The tie-break-heavy configuration: a small machine with plenty of
		// same-tick completions and refills under each management model.
		single("trace/steals-worker/p8", StealsWorker, 8, 3, 256, nil),
		single("trace/sharded/p8", Sharded, 8, 3, 256, nil),
		single("trace/async/p8", Async, 8, 3, 256, nil),
		{name: "trace/adaptive-tuned/p8", run: func(t *testing.T) *trace.Trace {
			opt := goldenOpt(2)
			opt.AdaptiveBatch = true
			cfg := Config{Procs: 8, Mgmt: Adaptive, Batch: 4,
				Trace: trace.NewRecorder(trace.Meta{}, 8)}
			if _, err := Run(goldenChain(t, 3, 512, 7), opt, cfg); err != nil {
				t.Fatal(err)
			}
			return cfg.Trace.Take()
		}},
		{name: "trace/multi2/p8", run: func(t *testing.T) *trace.Trace {
			rec := trace.NewRecorder(trace.Meta{}, 8)
			specs := []JobSpec{
				{Name: "a", Prog: goldenChain(t, 3, 256, 1), Opt: goldenOpt(4), Weight: 2},
				{Name: "b", Prog: goldenChain(t, 3, 128, 2), Opt: goldenOpt(2), Priority: 1},
			}
			if _, err := RunMulti(specs, Config{Procs: 8, Mgmt: StealsWorker, Trace: rec}); err != nil {
				t.Fatal(err)
			}
			return rec.Take()
		}},
	}

	got := make(map[string]string, len(fixtures))
	var order []string
	for _, fx := range fixtures {
		head, hash := traceFingerprint(t, fx.name, fx.run(t))
		got[fx.name] = fmt.Sprintf("%s %016x %s", fx.name, hash, head)
		order = append(order, fx.name)
	}
	if *updateGolden {
		sort.Strings(order)
		var b strings.Builder
		b.WriteString("# Trace ordering fingerprints: <fixture> <fnv64a> <headline>\n")
		b.WriteString("# Pins the equal-virtual-timestamp event order documented in trace.go.\n")
		b.WriteString("# Regenerate with: go test ./internal/sim -run TestTraceOrder -update\n")
		for _, name := range order {
			b.WriteString(got[name])
			b.WriteString("\n")
		}
		if err := os.MkdirAll(filepath.Dir(traceGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fixtures to %s", len(order), traceGoldenFile)
		return
	}

	f, err := os.Open(traceGoldenFile)
	if err != nil {
		t.Fatalf("trace golden file missing (run with -update to create): %v", err)
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
			t.Errorf("fixture %q not in trace golden file (run -update?)", fx.name)
			continue
		}
		if got[fx.name] != w {
			t.Errorf("fixture %q: same-tick trace order diverged from the documented contract:\n  got  %s\n  want %s",
				fx.name, got[fx.name], w)
		}
		delete(want, fx.name)
	}
	for name := range want {
		t.Errorf("trace golden file has stale fixture %q (run -update?)", name)
	}
}
