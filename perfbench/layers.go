package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// catalog is BENCHMARK.json: the workloads and the metrics every run
// prints, with their units, directions and bounds.
type catalog struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDoc `json:"end_to_end"`
	PerLayer []metricDoc `json:"per_layer"`
}

type metricDoc struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadCatalog reads BENCHMARK.json from the directory the benchmark runs in
// (the root of the checkout).
func loadCatalog() (*catalog, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// finish holds the report to the catalog: a run prints exactly the
// declared end-to-end metrics, or with tracing exactly the declared
// per-layer metrics, each in its declared unit. A per-layer metric of a
// layer the workload never calls reads 0.
func (c *catalog) finish(r *report, traced bool) error {
	want := c.EndToEnd
	if traced {
		want = c.PerLayer
	}
	declared := make(map[string]string, len(want))
	for _, m := range want {
		declared[m.Name] = m.Unit
		got, ok := r.metrics[m.Name]
		switch {
		case !ok && traced:
			r.metrics[m.Name] = metric{Value: 0, Unit: m.Unit}
		case !ok:
			return fmt.Errorf("workload did not measure %s", m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("%s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
	}
	var extra []string
	for name := range r.metrics {
		if _, ok := declared[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics %v are not declared in BENCHMARK.json", extra)
	}
	return nil
}

// layers are the span-name prefixes whose self time the traced run
// reports as a share of the traced wall time.
var layers = []string{"workload", "mechanism", "core", "rl", "edgeenv", "round", "accuracy", "fl", "experiment", "scenario", "session", "chirond"}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// setLayers derives the in-process per-layer metrics from the spans, the
// boundary counters and the directly driven round stages.
func (r *report) setLayers(spans []span, ctr *layerCounters, st stageCost) {
	perCall := func(name string, unitNS float64) float64 { return mean(byName(spans, name)) / unitNS }
	r.set("core.decide_us", "us", perCall("core.decide", 1e3))
	r.set("core.observe_us", "us", perCall("core.observe", 1e3))
	r.set("rl.end_episode_ms", "ms", perCall("rl.end_episode", 1e6))
	r.set("rl.end_episode_allocs", "allocs", ctr.allocsPerEpisode())
	r.set("edgeenv.step_us", "us", perCall("edgeenv.step", 1e3))
	r.set("accuracy.advance_ms", "ms", perCall("accuracy.advance", 1e6))
	r.set("accuracy.reset_ms", "ms", perCall("accuracy.reset", 1e6))
	r.set("fl.client_train_ms", "ms", perCall("fl.client_train", 1e6))
	r.set("fl.aggregate_ms", "ms", perCall("fl.aggregate", 1e6))
	r.set("fl.evaluate_ms", "ms", perCall("fl.evaluate", 1e6))
	r.set("faults.draw_ns_per_cell", "ns", ctr.draws.perCall())
	r.set("faults.churn_ns_per_cell", "ns", ctr.churn.perCall())
	for i, name := range st.names {
		r.set("round."+name+"_ns_per_node", "ns", st.nsPerNode(i))
	}
	if len(st.calls) > 0 && st.calls[0] > 0 {
		r.set("round.alloc_bytes_per_node_round", "B", float64(st.allocBytes)/float64(st.calls[0]*st.nodes))
	}
	r.setSelfShares(spans)
}

// setSelfShares reports each layer's self time as a share of all spans'
// self time — the traced busy time, which exceeds the wall time when
// spans ran on several goroutines — and the number of spans recorded.
func (r *report) setSelfShares(spans []span) {
	self := selfTimes(spans)
	var total float64
	for _, d := range self {
		total += float64(d)
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(self[l]) / total
		}
		r.set(l+".self_share", "share", share)
	}
	r.set("trace.spans", "count", float64(len(spans)))
}

// setOverhead reports how much slower the traced phase ran than the
// untraced one on the workload's throughput metric.
func (r *report) setOverhead(untraced, traced float64) {
	r.set("trace.overhead_pct", "%", (untraced/traced-1)*100)
}

// merge adds another measurement of the same stages.
func (c stageCost) merge(o stageCost) stageCost {
	if c.names == nil {
		return o
	}
	for i := range c.ns {
		c.ns[i] += o.ns[i]
		c.calls[i] += o.calls[i]
	}
	c.rounds += o.rounds
	c.allocBytes += o.allocBytes
	return c
}

// writeTrace saves the run's spans and names the file on standard error.
func writeTrace(tr *tracer, dir string) error {
	path, err := tr.write(dir)
	if err != nil {
		return err
	}
	abs, _ := filepath.Abs(path)
	fmt.Fprintf(os.Stderr, "spans written to %s\n", abs)
	return nil
}
