// Command femux-bench is the repository's serving benchmark: four
// workloads against the real knative.Service behind femuxd's middleware
// stack on a loopback socket, all in one process, with every answer
// checked. See ../README.md for the metrics and how they interact.
//
//	femux-bench --workload hot_observe --seed 1 --seconds 10 --trace 0
//
// Without --workload it runs all four. The last line of standard output
// of each run is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/experiments"
)

// config is one run.
type config struct {
	w       workload
	seed    uint64
	seconds float64
	reps    int               // complete set-ups per run; setup_s is the median over them
	train   experiments.Scale // training fleet
	outDir  string            // where the traced run writes trace-<workload>.json
}

func (cfg config) tracePath() string {
	return filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".json")
}

// session owns everything a process leaves behind if it is not cleaned
// up: the rigs (servers, connections, stores) and the data root.
type session struct {
	root  string
	mu    sync.Mutex
	rigs  []*rig
	addrs []string // every address a rig of this session listened on
}

func newSession(dataRoot string) (*session, error) {
	root, err := os.MkdirTemp(dataRoot, "run-")
	if err != nil {
		return nil, err
	}
	return &session{root: root}, nil
}

func (s *session) track(r *rig) {
	s.mu.Lock()
	s.rigs = append(s.rigs, r)
	for _, sh := range r.shards {
		s.addrs = append(s.addrs, sh.addr)
	}
	if r.router != nil {
		s.addrs = append(s.addrs, r.router.addr)
	}
	s.mu.Unlock()
}

func (s *session) close(r *rig) error {
	s.mu.Lock()
	for i, x := range s.rigs {
		if x == r {
			s.rigs = append(s.rigs[:i], s.rigs[i+1:]...)
		}
	}
	s.mu.Unlock()
	return r.Close()
}

// closeAll is the one teardown path, taken on normal exit, on a signal
// and on a panic: close every rig still open, remove the data root.
func (s *session) closeAll() error {
	s.mu.Lock()
	rigs := s.rigs
	s.rigs = nil
	s.mu.Unlock()
	var errs []error
	for _, r := range rigs {
		errs = append(errs, r.Close())
	}
	return errors.Join(append(errs, os.RemoveAll(s.root))...)
}

// box describes the machine, emitted with every run.
func box(dataRoot string) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	fs := "unknown"
	var sf syscall.Statfs_t
	if syscall.Statfs(dataRoot, &sf) == nil {
		switch sf.Type {
		case 0xEF53:
			fs = "ext4"
		case 0x01021994:
			fs = "tmpfs"
		case 0x794c7630:
			fs = "overlayfs"
		case 0x58465342:
			fs = "xfs"
		case 0x9123683E:
			fs = "btrfs"
		default:
			fs = fmt.Sprintf("0x%x", sf.Type)
		}
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "data_root_fs": fs,
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(realMain()) }

func realMain() (code int) {
	exeDir := "."
	if exe, err := os.Executable(); err == nil {
		exeDir = filepath.Dir(exe)
	}
	var (
		name     = flag.String("workload", "", "workload to run (default: all four in turn)")
		seed     = flag.Uint64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 10, "measured time per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: the layer ladder and per-layer metrics")
		dataRoot = flag.String("data-root", exeDir, "directory the run creates (and removes) its data root in")
		deadline = flag.Duration("deadline", 170*time.Second, "exit with code 2 if a run is still going after this long")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: femux-bench [--workload name] [--seed n] [--seconds s] [--trace 0|1]")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "femux-bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}

	s, err := newSession(*dataRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "femux-bench:", err)
		return 1
	}
	defer func() {
		if p := recover(); p != nil {
			s.closeAll()
			panic(p)
		}
		if err := s.closeAll(); err != nil {
			fmt.Fprintln(os.Stderr, "femux-bench: teardown:", err)
			code = 1
		}
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		s.closeAll()
		os.Exit(130)
	}()

	boxLine, _ := json.Marshal(map[string]any{"box": box(*dataRoot)})
	for _, w := range todo {
		// A wedged run cannot be closed gracefully; take the data with it.
		watchdog := time.AfterFunc(*deadline, func() {
			fmt.Fprintf(os.Stderr, "femux-bench: %s still running after %s\n", w.name, *deadline)
			os.RemoveAll(s.root)
			os.Exit(2)
		})
		cfg := config{w: w, seed: *seed, seconds: *seconds, reps: 3, train: trainScale, outDir: exeDir}
		run := s.runUntraced
		if *trace == 1 {
			run = s.runTraced
		}
		res, info, err := run(cfg)
		watchdog.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "femux-bench: %s: %v\n", w.name, err)
			return 1
		}
		infoLine, _ := json.Marshal(map[string]any{"workload": w.name, "seed": *seed, "info": info})
		resLine, _ := json.Marshal(res)
		fmt.Printf("%s\n%s\n%s\n", boxLine, infoLine, resLine)
		if !res.Correct {
			code = 1
		}
	}
	return code
}
