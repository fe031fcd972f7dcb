// Command perfbench is the repository's benchmark: one command that runs a
// named workload through the public functions of the program's layers,
// checks the program's outputs, and prints its metrics as one JSON line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench steady [-out dir]
//
// Each workload repeats a fixed, seeded unit of work until --seconds have
// passed and reports the median over those repetitions. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it also runs a traced
// phase that records a span around each call into a layer and prints the
// per-layer metrics and the tracing overhead instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one named value as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// traceDir receives the span files of a traced run.
	traceDir string
}

// report is what a workload hands back: its operation counts, its checks,
// and its metrics.
type report struct {
	ops *opCounts
	// defects counts, by kind, how often a known fault of the program was
	// looked for and how often it showed. It is printed on standard error
	// and counts toward neither attempted nor failed: the faults show on
	// some runs and not others.
	defects *opCounts
	chk     *checker
	metrics map[string]metric
}

func newReport() *report {
	return &report{ops: newOpCounts(), defects: newOpCounts(), chk: &checker{}, metrics: make(map[string]metric)}
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// opCounts counts attempted and failed operations by kind: episodes,
// rounds, grid cells, sessions, and HTTP requests by endpoint. Safe for
// concurrent use.
type opCounts struct {
	mu        sync.Mutex
	attempted map[string]int64
	failed    map[string]int64
}

func newOpCounts() *opCounts {
	return &opCounts{attempted: make(map[string]int64), failed: make(map[string]int64)}
}

// add records n attempted operations of kind, failed of which failed.
func (o *opCounts) add(kind string, n, failed int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted[kind] += n
	o.failed[kind] += failed
}

func (o *opCounts) totals() (attempted, failed int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for k, n := range o.attempted {
		attempted += n
		failed += o.failed[k]
	}
	return attempted, failed
}

// String lists the counts by kind, for standard error.
func (o *opCounts) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	kinds := make([]string, 0, len(o.attempted))
	for k := range o.attempted {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d/%d", k, o.attempted[k], o.failed[k])
	}
	return strings.TrimSpace(b.String())
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"train-surrogate": runTrainSurrogate,
	"train-real":      runTrainReal,
	"fleet-churn":     runFleetChurn,
	"serve":           runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: train-surrogate, train-real, fleet-churn or serve")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	secs := fs.Float64("seconds", 10, "how long to repeat the workload's unit of work")
	traced := fs.Int("trace", 0, "1 runs the traced phase and prints per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", *name)
	case *secs <= 0:
		return fmt.Errorf("seconds %v, want > 0", *secs)
	case *traced != 0 && *traced != 1:
		return fmt.Errorf("trace %d, want 0 or 1", *traced)
	}
	cfg := runConfig{
		seed:     *seed,
		seconds:  time.Duration(*secs * float64(time.Second)),
		trace:    *traced == 1,
		traceDir: *traceDir,
	}
	cat, err := loadCatalog()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "workload %s seed %d, GOMAXPROCS=%d\n", *name, *seed, runtime.GOMAXPROCS(0))
	rep, err := w(cfg)
	if err != nil {
		return err
	}
	if err := cat.finish(rep, cfg.trace); err != nil {
		return err
	}
	attempted, failed := rep.ops.totals()
	fmt.Fprintf(os.Stderr, "operations (attempted/failed): %s\n", rep.ops)
	if d := rep.defects.String(); d != "" {
		fmt.Fprintf(os.Stderr, "known defects (checked/seen): %s\n", d)
	}
	for _, p := range rep.chk.problems {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	if attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	out, err := json.Marshal(result{
		Correct:   rep.chk.ok(),
		Attempted: attempted,
		Failed:    failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// repeat calls rep with 0, 1, 2, … until budget has elapsed and at least
// minReps calls were made, and returns the number of calls. Every call is
// the same whole unit of work.
func repeat(budget time.Duration, minReps int, rep func(i int) error) (int, error) {
	start := time.Now()
	i := 0
	for ; i < minReps || time.Since(start) < budget; i++ {
		if err := rep(i); err != nil {
			return i + 1, err
		}
	}
	return i, nil
}

// peakRSSMiB returns the peak resident set of process pid (0 = this
// process) in MiB, from its VmHWM line.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// procSample is a reading of this process's CPU time, GC cycles and heap
// allocation, for the process.* layer metrics.
type procSample struct {
	wall       time.Time
	cpu        time.Duration
	gc         uint64
	allocBytes uint64
}

func sampleProcess() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return procSample{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gc:         s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
	}
}

// setProcess reports the process.* metrics between two samples, per
// repetition of the workload's unit of work.
func (r *report) setProcess(a, b procSample, reps int) {
	wall := b.wall.Sub(a.wall)
	r.set("process.cpu_per_wall", "cpu/wall", float64(b.cpu-a.cpu)/float64(wall))
	r.set("process.gc_cycles", "count", float64(b.gc-a.gc)/float64(reps))
	r.set("process.alloc_mb", "MiB", float64(b.allocBytes-a.allocBytes)/float64(reps)/(1<<20))
}
