package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/experiments"
	"github.com/ubc-cirrus-lab/femux-go/internal/store"
)

// tiny shrinks a workload so that a whole run takes a fraction of a second.
func tiny(t *testing.T, name string) config {
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.apps, w.warmupOps, w.traceOps = 128, 64, 200
	if w.batch {
		w.warmupOps, w.traceOps = 2, 20
	}
	if w.sparse {
		w.apps, w.maxHot, w.maxWS, w.inline = 400, 8, 8, 40
	}
	return config{w: w, seed: 7, seconds: 0.3, reps: 1,
		train: experiments.Scale{Seed: 1, Apps: 8, Days: 1}, outDir: t.TempDir()}
}

func opBytes(w workload, seed uint64) []byte {
	g := newGenerator(w, seed)
	var b bytes.Buffer
	for i := 0; i < 2000; i++ {
		for c := 0; c < clients; c++ {
			o := g.next(c, i)
			fmt.Fprintf(&b, "%d %d %v\n", o.kind, o.app, o.value)
			if o.kind == opObserve {
				g.count[o.app]++
			}
		}
	}
	return b.Bytes()
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		if !bytes.Equal(opBytes(w, 3), opBytes(w, 3)) {
			t.Errorf("%s: same seed, different requests", w.name)
		}
		if !w.batch && bytes.Equal(opBytes(w, 3), opBytes(w, 4)) {
			t.Errorf("%s: different seeds, same requests", w.name)
		}
		// A batch names apps round-robin whatever the seed; its values differ.
		g3, g4 := newGenerator(w, 3), newGenerator(w, 4)
		same := true
		for m := 0; m < 50; m++ {
			same = same && g3.value(1, m) == g4.value(1, m)
		}
		if same {
			t.Errorf("%s: different seeds, same values", w.name)
		}
	}
}

type metricSpec struct{ Name, Unit string }

// benchmarkJSON reads the contract this program is run under.
func benchmarkJSON(t *testing.T) (workloads []string, metrics map[string][]metricSpec) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, map[string][]metricSpec{"untraced": spec.EndToEnd, "traced": spec.PerLayer}
}

// Every workload, traced and untraced: the answers are right, the metrics
// are the ones BENCHMARK.json names, and — the PR 12 failure — nothing
// outlives the run: no listener, goroutine, child process or file.
func TestRunsAreCorrectAndLeaveNothingBehind(t *testing.T) {
	names, specs := benchmarkJSON(t)
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(have) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, have)
	}
	baseline := runtime.NumGoroutine()
	for _, w := range workloads {
		for _, mode := range []string{"untraced", "traced"} {
			cfg := tiny(t, w.name)
			s, err := newSession(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			run := s.runUntraced
			if mode == "traced" {
				run = s.runTraced
			}
			res, info, err := run(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, mode, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d info=%v", w.name, mode, res.Correct, res.Attempted, res.Failed, info)
			}
			var want, got []string
			for _, m := range specs[mode] {
				want = append(want, m.Name+" "+m.Unit)
			}
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			sort.Strings(want)
			sort.Strings(got)
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Errorf("%s %s metrics:\nBENCHMARK.json %v\nthe program    %v", w.name, mode, want, got)
			}
			if err := s.closeAll(); err != nil {
				t.Errorf("%s %s: teardown: %v", w.name, mode, err)
			}
			if _, err := os.Stat(s.root); !os.IsNotExist(err) {
				t.Errorf("%s %s: data root %s survives the run (%v)", w.name, mode, s.root, err)
			}
			if len(s.addrs) == 0 {
				t.Errorf("%s %s: no listener address recorded", w.name, mode)
			}
			for _, addr := range s.addrs {
				if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
					c.Close()
					t.Errorf("%s %s: %s still accepts connections", w.name, mode, addr)
				}
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, %d before the runs:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
	kids, _ := filepath.Glob("/proc/self/task/*/children")
	for _, f := range kids {
		if b, _ := os.ReadFile(f); len(bytes.TrimSpace(b)) > 0 {
			t.Errorf("child processes left: %s", b)
		}
	}
}

// The run must fail when an answer is wrong. Each case corrupts one value
// the harness expects and shows the matching check noticing.
func TestChecksCatchWrongAnswers(t *testing.T) {
	cfg := tiny(t, "hot_observe")
	r, err := setUp(cfg, filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.drive(100, time.Time{}, nil); st.failed != 0 {
		t.Fatalf("clean run: %d failed: %v", st.failed, st.firstErr)
	}
	if errs := r.verify(); len(errs) != 0 {
		t.Fatalf("clean run: %v", errs)
	}
	mentions := func(errs []error, what string) bool {
		for _, err := range errs {
			if strings.Contains(err.Error(), what) {
				return true
			}
		}
		return false
	}

	sampled := map[int]bool{}
	for j := 0; j < oracleApps; j++ {
		sampled[r.gen.oracleApp(j)] = true
	}
	unsampled := 0
	for sampled[unsampled] {
		unsampled++
	}

	// A durable total: the harness believes one more observation was acknowledged.
	r.gen.count[unsampled]++
	if errs := r.verify(); !mentions(errs, "store holds") || mentions(errs, "oracle") {
		t.Errorf("wrong durable total: got %v", errs)
	}
	r.gen.count[unsampled]--

	// A sampled forecast: the oracle is fed a different series.
	r.gen.seed++
	if errs := r.verify(); !mentions(errs, "oracle") {
		t.Errorf("wrong oracle series: got %v", errs)
	}
	r.gen.seed--

	// A response: the harness expects a history one shorter than the service reports.
	app := r.gen.next(0, r.next[0]).app
	r.gen.count[app]--
	if st := r.drive(1, time.Time{}, nil); st.failed == 0 {
		t.Errorf("wrong history length in a reply went unnoticed")
	}
}

// Seeding must be app-major: each app is paged out about once. (Sized
// minute-major, the issue's sparse fleet took 175 s and 4.8 GB of page
// writes to seed.)
func TestAppMajorSeedingPagesEachAppOutOnce(t *testing.T) {
	cfg := tiny(t, "sparse_churn")
	g := newGenerator(cfg.w, cfg.seed)
	st, err := store.Open(t.TempDir(), storeOptions(cfg.w))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	apps := make([]int, cfg.w.apps)
	for a := range apps {
		apps[a] = a
	}
	if err := seedAppMajor(st, g, apps, seedMinutes); err != nil {
		t.Fatal(err)
	}
	if got, want := int(st.Stats().PageOuts), cfg.w.apps-cfg.w.inline; got < want || got > cfg.w.apps {
		t.Errorf("%d page-outs seeding %d apps under an inline budget of %d, want about %d", got, cfg.w.apps, cfg.w.inline, want)
	}
}
