package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// steadyRuns is how many runs each set makes per workload, one seed each.
const steadyRuns = 10

// steady runs two sets of runs of the same code — for each workload of
// BENCHMARK.json in turn, steadyRuns runs of run_seconds, one seed each,
// the second set right after the first — and reports each end-to-end
// metric's median and quartiles per set. It says whether each set's spread
// (the quartile distance over the median) stays within the metric's bound
// in BENCHMARK.json, whether the second set's median is no worse than the
// first's by more than the bound, and whether both sets failed the same
// share of operations. It is the evidence for the bounds and can be run
// again on another host.
func steady(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	out := fs.String("out", ".bench_build/steady", "directory for every run's result line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cat, err := loadCatalog()
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 1
	}
	var names []string
	for _, w := range cat.Workloads {
		names = append(names, w.Name)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 1
	}
	// sets[s][workload] holds the result lines of set s, in seed order.
	// Each workload's two sets run back to back, one after the other.
	sets := [2]map[string][]result{{}, {}}
	for _, w := range names {
		for s := 0; s < 2; s++ {
			for i := 0; i < steadyRuns; i++ {
				seed := int64(s*steadyRuns + i + 1)
				res, err := runOnce(self, w, seed, cat.RunSeconds, *out)
				if err != nil {
					fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", w, seed, err)
					return 1
				}
				sets[s][w] = append(sets[s][w], res)
			}
		}
	}
	ok := report2(os.Stdout, cat, names, sets)
	if ok {
		fmt.Println("steady: both sets agree within the bounds of BENCHMARK.json")
		return 0
	}
	fmt.Println("steady: NOT within the bounds of BENCHMARK.json")
	return 1
}

// runOnce runs one untraced benchmark run as a child process and parses its
// result line, keeping a copy under dir.
func runOnce(self, workload string, seed int64, secs int, dir string) (result, error) {
	var res result
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(secs), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t := time.Now()
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%v: %s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("result line %q: %w", last, err)
	}
	fmt.Fprintf(os.Stderr, "%-16s seed %-3d %5.1fs correct=%v attempted=%d failed=%d\n",
		workload, seed, time.Since(t).Seconds(), res.Correct, res.Attempted, res.Failed)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return res, os.WriteFile(path, []byte(last+"\n"), 0o644)
}

// report2 prints each metric's two sets and returns whether they agree.
func report2(w *os.File, cat *catalog, names []string, sets [2]map[string][]result) bool {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	tw := tabwriter.NewWriter(bw, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbound\tmedian 1\tq1 1\tq3 1\tspread 1\tmedian 2\tq1 2\tq3 2\tspread 2\tdrift\tverdict\t")
	ok := true
	for _, name := range names {
		var share [2]float64
		for s := 0; s < 2; s++ {
			var att, fail int64
			for _, r := range sets[s][name] {
				if !r.Correct {
					ok = false
					fmt.Fprintf(bw, "%s: a run of set %d failed its correctness checks\n", name, s+1)
				}
				att += r.Attempted
				fail += r.Failed
			}
			share[s] = float64(fail) / float64(att)
		}
		if share[0] != share[1] {
			ok = false
			fmt.Fprintf(bw, "%s: failed share %v in set 1, %v in set 2\n", name, share[0], share[1])
		}
		for _, m := range cat.EndToEnd {
			bound := *m.Bound
			var med, spread [2]float64
			var qs [2][3]float64
			for s := 0; s < 2; s++ {
				var xs []float64
				for _, r := range sets[s][name] {
					xs = append(xs, r.Metrics[m.Name].Value)
				}
				qs[s] = quartiles(xs)
				med[s] = median(xs)
				spread[s] = (qs[s][2] - qs[s][0]) / med[s]
			}
			drift := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				drift = -drift
			}
			verdict := "ok"
			switch {
			case spread[0] > bound || spread[1] > bound:
				verdict = "SPREAD"
			case drift > bound:
				verdict = "DRIFT"
			case spread[0] > bound/3 || spread[1] > bound/3:
				verdict = "ok (spread > bound/3)"
			}
			if strings.HasPrefix(verdict, "SPREAD") || verdict == "DRIFT" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.5g\t%.5g\t%.5g\t%.3f\t%.5g\t%.5g\t%.5g\t%.3f\t%+.3f\t%s\t\n",
				name, m.Name, bound, med[0], qs[0][0], qs[0][2], spread[0], med[1], qs[1][0], qs[1][2], spread[1], drift, verdict)
		}
	}
	tw.Flush()
	return ok
}
