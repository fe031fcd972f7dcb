package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"chiron"
	"chiron/internal/dataset"
	"chiron/internal/fl"
	"chiron/internal/mechanism"
	"chiron/internal/nn"
)

// trainSpec is one training workload's fixed unit of work: for each of
// agents sub-seeds, build the system, train whole episodes until a fixed
// number of rounds has been committed, and evaluate one deterministic
// episode. Counting rounds rather than episodes, and averaging over
// several agents, keeps the unit the same size on every seed: the fleet a
// seed draws and the policy it learns set how long its episodes run.
type trainSpec struct {
	name   string
	nodes  int
	budget float64
	real   bool
	agents int
	rounds int // per agent
	// stageRounds is how many rounds the traced run drives stage by stage.
	stageRounds int
	// minAccuracy is the mean evaluation accuracy the agents must clear;
	// for real training, well above the 0.1 of chance on ten classes.
	minAccuracy float64
}

var (
	// surrogateSpec is the paper's headline setting: 100 nodes, the
	// Table I-calibrated MNIST curve, η = 300 from Table I's range.
	surrogateSpec = trainSpec{name: "train-surrogate", nodes: 100, budget: 300, agents: 2, rounds: 200, stageRounds: 40, minAccuracy: 0.5}
	// realSpec trains the pure-Go MLP with FedAvg on SynthMNIST every
	// round, at 20 nodes.
	realSpec = trainSpec{name: "train-real", nodes: 20, budget: 150, real: true, agents: 3, rounds: 5, stageRounds: 4, minAccuracy: 0.3}
)

// config is the system of agent k for seed.
func (s trainSpec) config(seed int64, k int) chiron.SystemConfig {
	return chiron.SystemConfig{
		Nodes:        s.nodes,
		Dataset:      chiron.DatasetMNIST,
		Budget:       s.budget,
		Seed:         seed*16 + int64(k),
		RealTraining: s.real,
	}
}

// trainRep is what one repetition measured.
type trainRep struct {
	wall   time.Duration
	rounds int
	// roundMS holds each episode's wall time per committed round.
	roundMS []float64
	evals   []mechanism.EpisodeResult
}

// setupSamples is how many systems a training run builds before the timed
// repetitions, so setup_s is a median of many constructions.
const setupSamples = 15

func runTrainSurrogate(cfg runConfig) (*report, error) { return runTrain(cfg, surrogateSpec) }
func runTrainReal(cfg runConfig) (*report, error)      { return runTrain(cfg, realSpec) }

func runTrain(cfg runConfig, spec trainSpec) (*report, error) {
	rep := newReport()
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		// Collect the previous sample's garbage first, so that no sample
		// pays for another's.
		runtime.GC()
		t0 := time.Now()
		if _, err := chiron.NewSystem(spec.config(cfg.seed, i%spec.agents)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "setup samples: %.4f\n", setups)
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	// The first repetition warms the process (heap growth, page faults,
	// worker start-up) and is left out of the timing medians.
	var reps []trainRep
	p0 := sampleProcess()
	n, err := repeat(budget, 2, func(int) error {
		r, err := trainOnce(spec, cfg.seed, rep)
		reps = append(reps, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	p1 := sampleProcess()
	timed := reps[1:]
	// A session is the unit of work at its nominal size, agents × rounds
	// committed rounds: each repetition's wall time is scaled by how many
	// rounds it actually committed, so whole-episode overshoot and the
	// evaluation's length do not make one seed's session longer.
	nominal := float64(spec.agents * spec.rounds)
	var rps, walls, sessionS, roundMS []float64
	for _, r := range timed {
		rps = append(rps, float64(r.rounds)/r.wall.Seconds())
		walls = append(walls, r.wall.Seconds())
		sessionS = append(sessionS, r.wall.Seconds()*nominal/float64(r.rounds))
		roundMS = append(roundMS, r.roundMS...)
	}
	var util, acc []float64
	for _, e := range reps[0].evals {
		util = append(util, e.ServerUtility)
		acc = append(acc, e.FinalAccuracy)
	}
	rep.chk.err(checkAccuracy(mean(acc), spec.minAccuracy))
	fmt.Fprintf(os.Stderr, "warm-up repetition %.3fs, timed median %.3fs over %d: %.3f\n", reps[0].wall.Seconds(), median(walls), len(timed), walls)
	if !cfg.trace {
		rss, err := peakRSSMiB(0)
		if err != nil {
			return nil, err
		}
		rep.set("setup_s", "s", median(setups))
		rep.set("rounds_per_s", "rounds/s", median(rps))
		rep.set("eval_utility", "utility", mean(util))
		rep.set("final_accuracy", "accuracy", mean(acc))
		rep.set("peak_rss_mb", "MiB", rss)
		rep.set("sessions_per_s", "sessions/s", 1/median(sessionS))
		rep.set("session_p50_s", "s", median(sessionS))
		rep.set("request_p50_ms", "ms", median(roundMS))
		return rep, nil
	}
	rep.setProcess(p0, p1, n)
	return rep, traceTrain(cfg, spec, rep, median(rps), reps[0].evals)
}

// trainOnce runs one repetition through the public System API, checking
// every episode's ledger as it finishes.
func trainOnce(spec trainSpec, seed int64, rep *report) (trainRep, error) {
	var r trainRep
	for k := 0; k < spec.agents; k++ {
		sys, err := chiron.NewSystem(spec.config(seed, k))
		if err != nil {
			return r, err
		}
		env := sys.Env()
		nodes := nodeValues(env)
		var checking time.Duration
		start := time.Now()
		last := start
		rounds := 0
		check := func(res chiron.EpisodeResult) {
			t := time.Now()
			if res.Rounds > 0 {
				r.roundMS = append(r.roundMS, float64(t.Sub(last))/1e6/float64(res.Rounds))
			}
			rounds += res.Rounds
			rep.chk.err(checkEpisode(ledgerOf(env, nodes), res))
			last = time.Now()
			checking += last.Sub(t)
		}
		for rounds < spec.rounds {
			_, err := sys.Train(1, check)
			rep.ops.add("episode", 1, 0)
			if err != nil {
				return r, err
			}
		}
		eval, err := sys.Evaluate(1)
		r.wall += time.Since(start) - checking
		rep.ops.add("episode", 1, 0)
		if err != nil {
			return r, err
		}
		rounds += eval.Rounds
		r.rounds += rounds
		rep.ops.add("round", int64(rounds), 0)
		rep.chk.err(checkEpisode(ledgerOf(env, nodes), eval))
		r.evals = append(r.evals, eval)
	}
	return r, nil
}

// traceTrain runs the traced phase: the same unit of work through the
// benchmark's traced driver, then each round stage driven on its own, then
// FedAvg's client, aggregation and evaluation calls for real training.
// Every traced evaluation must equal the untraced one bit for bit.
func traceTrain(cfg runConfig, spec trainSpec, rep *report, untracedRPS float64, want []mechanism.EpisodeResult) error {
	tr := newTracer(fmt.Sprintf("%s-seed%d", spec.name, cfg.seed))
	ctr := &layerCounters{}
	var rps []float64
	var stages stageCost
	n, err := repeat(cfg.seconds/2, 1, func(int) error {
		sc := tr.scope()
		sc.begin("workload.rep")
		defer sc.end()
		var wall time.Duration
		total := 0
		for k := 0; k < spec.agents; k++ {
			sc.begin("workload.setup")
			sys, err := chiron.NewSystem(spec.config(cfg.seed, k))
			sc.end()
			if err != nil {
				return err
			}
			env := sys.Env()
			nodes := nodeValues(env)
			agent := newTracedActor(env, sys.Agent(), sc, ctr)
			start := time.Now()
			rounds := 0
			for rounds < spec.rounds {
				sc.begin("mechanism.episode")
				res, err := agent.runEpisode(true)
				sc.end()
				rep.ops.add("episode", 1, 0)
				if err != nil {
					return err
				}
				rounds += res.Rounds
				rep.chk.err(checkEpisode(ledgerOf(env, nodes), res))
			}
			// One evaluation episode, averaged as System.Evaluate averages it.
			sc.begin("mechanism.episode")
			res, err := agent.runEpisode(false)
			sc.end()
			var agg mechanism.Aggregator
			agg.Add(res)
			eval := agg.Result()
			wall += time.Since(start)
			rep.ops.add("episode", 1, 0)
			if err != nil {
				return err
			}
			total += rounds + eval.Rounds
			rep.ops.add("round", int64(rounds+eval.Rounds), 0)
			rep.chk.err(checkEpisode(ledgerOf(env, nodes), eval))
			if eval != want[k] {
				rep.chk.failf("traced evaluation %+v differs from the untraced %+v", eval, want[k])
			}
			if k == 0 {
				c, err := driveStages(env, sys.Agent(), spec.stageRounds, sc)
				if err != nil {
					return err
				}
				stages = stages.merge(c)
			}
		}
		rps = append(rps, float64(total)/wall.Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "traced repetitions: %d\n", n)
	if spec.real {
		if err := flProbe(cfg.seed, spec.nodes, tr.scope()); err != nil {
			return err
		}
	}
	rep.setLayers(tr.snapshot(), ctr, stages)
	rep.setOverhead(untracedRPS, median(rps))
	return writeTrace(tr, cfg.traceDir)
}

// flProbe times FedAvg's three calls on the real-training workload's own
// data and model shapes: SynthMNIST at 1200 samples per episode split 80/20
// IID over the fleet, and the 32-unit MLP, as chiron.NewSystem builds them
// with RealTraining. Every client trains from the global model each round,
// the server aggregates their updates and evaluates on the test split.
func flProbe(seed int64, nodes int, sc *scope) error {
	const rounds = 3
	spec := dataset.SynthMNIST(1200)
	spec.Noise, spec.Overlap, spec.Jitter = 0.9, 0.2, 2
	factory := func(rng *rand.Rand) (*nn.Network, error) {
		return nn.NewClassifierMLP(rng, spec.Dim(), 32, spec.Classes)
	}
	rng := rand.New(rand.NewSource(seed))
	full, err := dataset.Generate(rng, spec)
	if err != nil {
		return err
	}
	train, test, err := full.Split(rng, 0.2)
	if err != nil {
		return err
	}
	parts, err := dataset.IID{}.Partition(rng, train, nodes)
	if err != nil {
		return err
	}
	clients := make([]*fl.Client, nodes)
	for i, idx := range parts {
		local, err := train.Subset(idx)
		if err != nil {
			return err
		}
		if clients[i], err = fl.NewClient(i, local, factory, fl.DefaultConfig(), rand.New(rand.NewSource(seed+int64(i)))); err != nil {
			return err
		}
	}
	server, err := fl.NewServer(test, factory, rng)
	if err != nil {
		return err
	}
	for r := 0; r < rounds; r++ {
		global := server.Global()
		updates := make([]fl.Update, 0, nodes)
		for _, c := range clients {
			sc.begin("fl.client_train")
			params, _, err := c.TrainRound(global)
			sc.end()
			if err != nil {
				return err
			}
			updates = append(updates, fl.Update{Params: params, Samples: c.NumSamples()})
		}
		if err := sc.do("fl.aggregate", func() error { return server.Aggregate(updates) }); err != nil {
			return err
		}
		if err := sc.do("fl.evaluate", func() error { _, err := server.Evaluate(); return err }); err != nil {
			return err
		}
	}
	return nil
}
