// Command perfbench is the repository's end-to-end benchmark. It generates
// graphs from a seed, boots the real ssspd daemon with default flags apart
// from its listen address and graph sources, drives it from one
// load-generating process with at most as many connections as the host has
// cores, checks a deterministic sample of answers against Dijkstra on its
// own copy of each graph, and prints one JSON result line.
//
//	perfbench -bin .bench_build/bin -work .bench_build \
//	    --workload hot-zipf --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics: the benchmark times its own calls into
// each layer's Go package on the same generated inputs, keeps the spans in
// memory and writes them to work/spans/ when the run ends. perfbench/run.sh
// builds the binaries and passes -bin and -work.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runLimit bounds one run end to end; the watchdog kills the daemons and
// exits non-zero when it expires.
const runLimit = 170 * time.Second

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // directory holding ssspd and ssspr
	work     string // scratch directory for run files and spans
	conns    int    // client connection cap: the host's core count, at most 2
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: batch-multi, hot-zipf, mutate-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: graphs, request schedules and mutations derive from it")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds of the main traffic phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the ssspd and ssspr binaries")
	flag.StringVar(&cfg.work, "work", ".bench_build", "scratch directory for run files and spans")
	flag.Parse()
	cfg.trace = trace == 1
	os.Exit(run(cfg))
}

// runStart is when the run began; phase logs are stamped relative to it.
var runStart = time.Now()

// phase logs the end of a run phase to standard error with the elapsed
// run time, so a slow run shows where its time went.
func phase(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: [%5.1fs] %s\n", time.Since(runStart).Seconds(), fmt.Sprintf(format, args...))
}

func run(cfg config) int {
	// The watchdog is the mandatory run timeout: whatever hangs, the
	// daemons die and the run exits without a result.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s, killing daemons\n", runLimit)
		killAll()
		os.Exit(3)
	})
	defer watchdog.Stop()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit-10*time.Second)
	defer cancel()
	defer killAll()

	runDir, err := preflight(&cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: pre-flight: %v\n", err)
		return 2
	}
	defer os.RemoveAll(runDir)

	out, err := runWorkload(ctx, cfg, runDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// preflight checks the host before anything starts: a known workload, a
// positive run length, the daemon binaries, cores to cap connections at,
// free loopback ports, and a writable run directory inside the work dir.
func preflight(cfg *config) (string, error) {
	if _, ok := workloads[cfg.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return "", fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	if cfg.seconds < 1 || cfg.seconds > 60 {
		return "", fmt.Errorf("--seconds %d out of [1,60]", cfg.seconds)
	}
	for _, b := range []string{"ssspd", "ssspr"} {
		if st, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil || st.IsDir() {
			return "", fmt.Errorf("missing daemon binary %s in %s", b, cfg.bin)
		}
	}
	cfg.conns = runtime.NumCPU()
	if cfg.conns < 1 {
		return "", fmt.Errorf("no usable CPUs")
	}
	if cfg.conns > 2 {
		cfg.conns = 2
	}
	if _, err := freePorts(2); err != nil {
		return "", err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(cfg.work, fmt.Sprintf("run-%s-%d-", cfg.workload, cfg.seed))
	if err != nil {
		return "", fmt.Errorf("run directory: %w", err)
	}
	probe := filepath.Join(dir, ".probe")
	if err := os.WriteFile(probe, []byte("ok"), 0o644); err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("run directory not writable: %w", err)
	}
	os.Remove(probe)
	return dir, nil
}
