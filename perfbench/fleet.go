package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"chiron/internal/baselines"
	"chiron/internal/edgeenv"
	"chiron/internal/experiment"
	"chiron/internal/mechanism"
	"chiron/internal/scenario"
)

// fleetWorkers is the grid's worker count: the host's two CPUs.
const fleetWorkers = 2

// fleetSetupSamples is how many times a run compiles the whole grid to
// take setup_s as their median.
const fleetSetupSamples = 15

// fleetSpec is the fleet-churn scenario: 10⁴ nodes of four device tiers
// under Markov churn, partial availability, bandwidth jitter, sampled
// faults and a round deadline, priced by the two non-learning mechanisms
// at a budget that lasts a few rounds and one that outlasts the episode
// cap. The learner does no work here; the market, round, fault and
// experiment layers do all of it.
func fleetSpec(seed int64) *scenario.Spec {
	return &scenario.Spec{
		Name:    "fleet-churn",
		Dataset: "mnist-large",
		Seed:    seed,
		Classes: []scenario.DeviceClass{
			{Profile: "phone", Count: 4000},
			{Profile: "laptop", Count: 3000},
			{Profile: "iot", Count: 2000},
			{Profile: "server", Count: 1000},
		},
		Budgets:      []float64{24000, 120000},
		MaxRounds:    40,
		Mechanisms:   []string{"equal-time", "uniform"},
		EvalEpisodes: 1,
		Availability: 0.9,
		CommJitter:   0.2,
		Churn:        &scenario.ChurnSpec{Rates: &scenario.ChurnRatesSpec{Depart: 0.05, Arrive: 0.3}},
		Faults: &scenario.FaultSpec{
			Crash:    0.02,
			Straggle: 0.05,
			Drop:     0.02,
			Corrupt:  0.01,
		},
		RoundDeadline: 60,
		MaxRetries:    2,
		RetryBackoff:  1,
	}
}

// fleetRep is one timed grid run.
type fleetRep struct {
	wall    time.Duration
	rounds  int
	roundMS []float64
	result  *scenario.Result
}

// runGrid runs the spec's grid the way scenario.Run does — each cell a
// scenario.CellJob on an experiment.Plan — timing every cell.
func runGrid(spec *scenario.Spec, workers int) (fleetRep, error) {
	var r fleetRep
	cells, err := spec.Cells()
	if err != nil {
		return r, err
	}
	cellTimes := make([]time.Duration, len(cells))
	jobs := make([]experiment.Job[mechanism.EpisodeResult], len(cells))
	for i, c := range cells {
		job := scenario.CellJob(spec, c, scenario.CellHooks{})
		run := job.Run
		job.Run = func() (mechanism.EpisodeResult, error) {
			t := time.Now()
			res, err := run()
			cellTimes[i] = time.Since(t)
			return res, err
		}
		jobs[i] = job
	}
	start := time.Now()
	results, err := experiment.Plan[mechanism.EpisodeResult]{Name: "scenario:" + spec.Name, Jobs: jobs, Workers: workers}.Execute()
	r.wall = time.Since(start)
	if err != nil {
		return r, err
	}
	r.result = &scenario.Result{Name: spec.Name, Nodes: spec.NumNodes()}
	for i, c := range cells {
		res := results[i]
		r.result.Cells = append(r.result.Cells, scenario.CellResult{Mechanism: c.Mechanism, Budget: c.Budget, Result: res})
		r.rounds += res.Rounds * spec.EvalEpisodes
		if res.Rounds > 0 {
			r.roundMS = append(r.roundMS, float64(cellTimes[i])/1e6/float64(res.Rounds*spec.EvalEpisodes))
		}
	}
	return r, nil
}

func runFleetChurn(cfg runConfig) (*report, error) {
	rep := newReport()
	spec := fleetSpec(cfg.seed)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	// Set-up is compiling every cell of the grid: drawing the fleet,
	// building the accuracy curve, the environment and the mechanism. The
	// grid pays it again inside every cell. Cells cost differently, so a
	// sample is the whole grid, never one cell.
	var setups []float64
	for i := 0; i < fleetSetupSamples; i++ {
		// Collect the previous sample's garbage first, so that no sample
		// pays for another's.
		runtime.GC()
		t := time.Now()
		for _, c := range cells {
			if _, err := scenario.OpenCell(spec, c); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	fmt.Fprintf(os.Stderr, "setup samples: %.4f\n", setups)
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	// The first pass over the grid runs it at one worker through the
	// program's own episode driver, checking every episode's ledger and
	// rounds; it also warms the process and is not timed. Its digest must
	// equal the two-worker digest of every timed repetition.
	seq, seqRounds, err := checkGrid(spec, rep, nil, nil)
	if err != nil {
		return nil, err
	}
	rep.ops.add("cell", int64(len(cells)), 0)
	rep.ops.add("episode", int64(len(cells)*spec.EvalEpisodes), 0)
	rep.ops.add("round", int64(seqRounds), 0)
	fmt.Fprintf(os.Stderr, "%s", seq.Summary())
	var reps []fleetRep
	p0 := sampleProcess()
	n, err := repeat(budget, 1, func(int) error {
		r, err := runGrid(spec, fleetWorkers)
		reps = append(reps, r)
		rep.ops.add("cell", int64(len(cells)), 0)
		rep.ops.add("episode", int64(len(cells)*spec.EvalEpisodes), 0)
		rep.ops.add("round", int64(r.rounds), 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	p1 := sampleProcess()
	var rps, walls, roundMS []float64
	for i, r := range reps {
		rep.chk.err(checkDigest(fmt.Sprintf("grid at %d workers, repetition %d, against 1 worker", fleetWorkers, i), r.result, seq))
		rps = append(rps, float64(r.rounds)/r.wall.Seconds())
		walls = append(walls, r.wall.Seconds())
		roundMS = append(roundMS, r.roundMS...)
	}
	fmt.Fprintf(os.Stderr, "timed median %.3fs over %d\n", median(walls), len(reps))
	if !cfg.trace {
		rss, err := peakRSSMiB(0)
		if err != nil {
			return nil, err
		}
		var util, acc []float64
		for _, c := range seq.Cells {
			util = append(util, c.Result.ServerUtility)
			acc = append(acc, c.Result.FinalAccuracy)
		}
		rep.set("setup_s", "s", median(setups))
		rep.set("rounds_per_s", "rounds/s", median(rps))
		rep.set("eval_utility", "utility", mean(util))
		rep.set("final_accuracy", "accuracy", mean(acc))
		rep.set("peak_rss_mb", "MiB", rss)
		rep.set("sessions_per_s", "sessions/s", 1/median(walls))
		rep.set("session_p50_s", "s", median(walls))
		rep.set("request_p50_ms", "ms", median(roundMS))
		return rep, nil
	}
	rep.setProcess(p0, p1, n)
	return rep, traceFleet(cfg, spec, rep, median(rps), seq)
}

// checkGrid runs every cell in turn through OpenCell — training it as
// scenario.CellJob does, then evaluating — and checks each episode's
// ledger and rounds as it ends; with a scope it runs the cells' evaluation
// through the traced driver on fleetWorkers workers instead, which only
// static mechanisms support. It returns the grid's result and the rounds
// committed.
func checkGrid(spec *scenario.Spec, rep *report, sc *scope, ctr *layerCounters) (*scenario.Result, int, error) {
	cells, err := spec.Cells()
	if err != nil {
		return nil, 0, err
	}
	jobs := make([]experiment.Job[mechanism.EpisodeResult], len(cells))
	rounds := make([]int, len(cells))
	for i, c := range cells {
		i, c := i, c
		jobs[i] = experiment.Job[mechanism.EpisodeResult]{
			Label: fmt.Sprintf("%s %s η=%v", spec.Name, c.Mechanism, c.Budget),
			Run: func() (mechanism.EpisodeResult, error) {
				csc := sc.child()
				csc.begin("experiment.cell")
				defer csc.end()
				run, err := scenario.OpenCell(spec, c)
				if err != nil {
					return mechanism.EpisodeResult{}, err
				}
				m := run.Mechanism()
				env := m.Env()
				nodes := nodeValues(env)
				each := func(res mechanism.EpisodeResult) {
					rounds[i] += res.Rounds
					rep.chk.err(checkEpisode(ledgerOf(env, nodes), res))
				}
				play := m.RunEpisode
				if sc == nil {
					for run.TrainRemaining() > 0 {
						res, err := run.TrainEpisode()
						if err != nil {
							return mechanism.EpisodeResult{}, err
						}
						each(res)
					}
				} else {
					actor, err := staticActor(c, env)
					if err != nil {
						return mechanism.EpisodeResult{}, err
					}
					play = newTracedActor(env, actor, csc, ctr).runEpisode
					csc.begin("mechanism.episode")
					defer csc.end()
				}
				var agg mechanism.Aggregator
				for ep := 0; ep < spec.EvalEpisodes; ep++ {
					res, err := play(false)
					if err != nil {
						return mechanism.EpisodeResult{}, err
					}
					each(res)
					agg.Add(res)
				}
				return agg.Result(), nil
			},
		}
	}
	workers := 1
	if sc != nil {
		workers = fleetWorkers
	}
	results, err := experiment.Plan[mechanism.EpisodeResult]{Name: "check:" + spec.Name, Jobs: jobs, Workers: workers}.Execute()
	if err != nil {
		return nil, 0, err
	}
	out := &scenario.Result{Name: spec.Name, Nodes: spec.NumNodes()}
	total := 0
	for i, c := range cells {
		out.Cells = append(out.Cells, scenario.CellResult{Mechanism: c.Mechanism, Budget: c.Budget, Result: results[i]})
		total += rounds[i]
	}
	return out, total, nil
}

// postedPrices is a static actor: it posts the same prices every round.
type postedPrices []float64

func (p postedPrices) Decide(bool) ([]float64, error)         { return p, nil }
func (p postedPrices) Observe(edgeenv.StepResult, bool) error { return nil }
func (p postedPrices) Discard(bool)                           {}
func (p postedPrices) EndEpisode(bool) error                  { return nil }

// staticActor rebuilds a non-learning mechanism's price vector from the
// exported pricing functions, as experiment.BuildMechanism configures it,
// so the traced driver can run it. The traced grid's digest must equal the
// untraced one, which holds this to the program's own mechanism.
func staticActor(c scenario.Cell, env *edgeenv.Env) (mechanism.Actor, error) {
	switch c.Kind {
	case experiment.KindUniform:
		n := env.NumNodes()
		prices := make(postedPrices, n)
		for i := range prices {
			prices[i] = 0.5 * env.MaxTotalPrice() / float64(n)
		}
		return prices, nil
	case experiment.KindEqualTimeOracle:
		return postedPrices(baselines.PricesForTime(env.Nodes(), baselines.MinFeasibleTime(env))), nil
	}
	return nil, fmt.Errorf("no static actor for %s", c.Mechanism)
}

// traceFleet runs the grid through the traced driver on two workers, then
// drives the round stages of one long-budget cell on its own.
func traceFleet(cfg runConfig, spec *scenario.Spec, rep *report, untracedRPS float64, want *scenario.Result) error {
	tr := newTracer(fmt.Sprintf("fleet-churn-seed%d", cfg.seed))
	ctr := &layerCounters{}
	var rps []float64
	_, err := repeat(cfg.seconds/2, 1, func(int) error {
		sc := tr.scope()
		sc.begin("workload.rep")
		start := time.Now()
		sc.begin("scenario.run")
		res, rounds, err := checkGrid(spec, rep, sc, ctr)
		sc.end()
		sc.end()
		if err != nil {
			return err
		}
		rps = append(rps, float64(rounds)/time.Since(start).Seconds())
		rep.ops.add("cell", int64(len(res.Cells)), 0)
		rep.ops.add("episode", int64(len(res.Cells)*spec.EvalEpisodes), 0)
		rep.ops.add("round", int64(rounds), 0)
		rep.chk.err(checkDigest("traced grid against the untraced", res, want))
		return nil
	})
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	cellS := scaled(byName(spans, "experiment.cell"), 1e-9)
	var busy, wall float64
	for _, s := range cellS {
		busy += s
	}
	for _, w := range byName(spans, "scenario.run") {
		wall += w * 1e-9
	}
	rep.set("experiment.cell_s_p50", "s", median(cellS))
	rep.set("experiment.cell_s_max", "s", maxOf(cellS))
	rep.set("experiment.busy_share", "share", busy/(fleetWorkers*wall))

	// Drive the stages of the largest-budget uniform cell on its own.
	cell, err := stageCell(spec)
	if err != nil {
		return err
	}
	run, err := scenario.OpenCell(spec, cell)
	if err != nil {
		return err
	}
	env := run.Mechanism().Env()
	actor, err := staticActor(cell, env)
	if err != nil {
		return err
	}
	sc := tr.scope()
	newTracedActor(env, actor, sc, ctr)
	stages, err := driveStages(env, actor, 20, sc)
	if err != nil {
		return err
	}
	rep.setLayers(tr.snapshot(), ctr, stages)
	rep.setOverhead(untracedRPS, median(rps))
	return writeTrace(tr, cfg.traceDir)
}

// stageCell returns the spec's uniform-price cell of the largest budget,
// whose round stages the traced run drives one at a time.
func stageCell(spec *scenario.Spec) (scenario.Cell, error) {
	cells, err := spec.Cells()
	if err != nil {
		return scenario.Cell{}, err
	}
	var best scenario.Cell
	found := false
	for _, c := range cells {
		if c.Kind == experiment.KindUniform && (!found || c.Budget > best.Budget) {
			best, found = c, true
		}
	}
	if !found {
		return best, fmt.Errorf("%s has no uniform-price cell", spec.Name)
	}
	return best, nil
}
