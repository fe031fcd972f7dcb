package main

import (
	"fmt"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"chiron/internal/accuracy"
	"chiron/internal/edgeenv"
	"chiron/internal/faults"
	"chiron/internal/mechanism"
	"chiron/internal/round"
)

// heapAllocs reads the process's cumulative heap allocation counters.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// layerCounters holds what the traced run counts at layer boundaries that
// are crossed too often for a span each, plus the learner's allocations.
type layerCounters struct {
	draws, churn counter
	// episodes and endEpisodeAllocs count EndEpisode calls and the heap
	// objects they allocated.
	episodes, endEpisodeAllocs atomic.Int64
}

// allocsPerEpisode returns the mean heap objects one EndEpisode allocated.
func (c *layerCounters) allocsPerEpisode() float64 {
	n := c.episodes.Load()
	if n == 0 {
		return 0
	}
	return float64(c.endEpisodeAllocs.Load()) / float64(n)
}

// tracedActor wraps an actor with a span around every call the program's
// own mechanism.Driver makes into it. Decide, Observe and EndEpisode are
// spanned directly; the environment step runs from Decide's return to
// Observe or Discard, and the environment reset from the start of an
// episode to the driver's first round hook.
type tracedActor struct {
	mechanism.Actor
	sc  *scope
	ctr *layerCounters
	drv *mechanism.Driver
	// open marks a span opened in one call and closed in a later one:
	// accuracy.reset, then each round's edgeenv.step.
	open bool
}

// newTracedActor binds actor to env through mechanism.NewDriver and
// installs the timing wrappers on the environment's round pipeline: the
// accuracy model Commit advances, the fault schedule Execute consults, and
// the churn schedule Respond consults.
func newTracedActor(env *edgeenv.Env, actor mechanism.Actor, sc *scope, ctr *layerCounters) *tracedActor {
	p := env.Pipeline()
	p.Commit.Accuracy = tracedAccuracy{Model: p.Commit.Accuracy, sc: sc}
	if p.Execute.Faults != nil {
		p.Execute.Faults = timedFaults{Schedule: p.Execute.Faults, c: &ctr.draws}
	}
	if p.Respond.Churn != nil {
		p.Respond.Churn = timedChurn{ChurnSchedule: p.Respond.Churn, c: &ctr.churn}
	}
	a := &tracedActor{Actor: actor, sc: sc, ctr: ctr}
	a.drv = mechanism.NewDriver("traced", env, a)
	a.drv.SetRoundHook(func(int, int) error {
		a.close()
		return nil
	})
	return a
}

// runEpisode plays one episode through the program's driver. The reset
// span is named accuracy.reset: refilling the ledger is O(1) and resetting
// the accuracy model is where its time goes.
func (a *tracedActor) runEpisode(train bool) (mechanism.EpisodeResult, error) {
	a.sc.begin("accuracy.reset")
	a.open = true
	res, err := a.drv.RunEpisode(train)
	a.close()
	return res, err
}

// close ends the span left open by the previous call, if any.
func (a *tracedActor) close() {
	if a.open {
		a.sc.end()
		a.open = false
	}
}

func (a *tracedActor) Decide(train bool) ([]float64, error) {
	a.sc.begin("core.decide")
	prices, err := a.Actor.Decide(train)
	a.sc.end()
	a.sc.begin("edgeenv.step")
	a.open = true
	return prices, err
}

func (a *tracedActor) Observe(res edgeenv.StepResult, train bool) error {
	a.close()
	a.sc.begin("core.observe")
	defer a.sc.end()
	return a.Actor.Observe(res, train)
}

func (a *tracedActor) Discard(train bool) {
	a.close()
	a.Actor.Discard(train)
}

func (a *tracedActor) EndEpisode(train bool) error {
	a.close()
	before, _ := heapAllocs()
	a.sc.begin("rl.end_episode")
	err := a.Actor.EndEpisode(train)
	a.sc.end()
	after, _ := heapAllocs()
	a.ctr.episodes.Add(1)
	a.ctr.endEpisodeAllocs.Add(int64(after - before))
	return err
}

// tracedAccuracy spans every Advance of the wrapped accuracy model.
type tracedAccuracy struct {
	accuracy.Model
	sc *scope
}

func (a tracedAccuracy) Advance(participants []int) (float64, error) {
	a.sc.begin("accuracy.advance")
	defer a.sc.end()
	return a.Model.Advance(participants)
}

// timedFaults times every fault-schedule lookup. Execute calls it from the
// worker pool, so it only adds to an atomic counter.
type timedFaults struct {
	faults.Schedule
	c *counter
}

func (f timedFaults) At(roundIndex, node int) (faults.Fault, bool) {
	t := time.Now()
	fault, ok := f.Schedule.At(roundIndex, node)
	f.c.add(time.Since(t))
	return fault, ok
}

// timedChurn times every membership lookup.
type timedChurn struct {
	faults.ChurnSchedule
	c *counter
}

func (f timedChurn) Membership(roundIndex, node int) (bool, bool) {
	t := time.Now()
	present, departs := f.ChurnSchedule.Membership(roundIndex, node)
	f.c.add(time.Since(t))
	return present, departs
}

// stageCost is what driving the round stages directly measured.
type stageCost struct {
	names      []string
	ns         []time.Duration // per stage
	calls      []int           // per stage
	nodes      int
	rounds     int
	allocBytes uint64
}

// nsPerNode returns stage i's mean time per node and round.
func (c stageCost) nsPerNode(i int) float64 {
	if c.calls[i] == 0 {
		return 0
	}
	return float64(c.ns[i]) / float64(c.calls[i]*c.nodes)
}

// driveStages runs rounds committed rounds through the environment's
// Pipeline.Stages() one stage at a time, on the environment's own fleet,
// schedules and ledger, with prices from actor. It leaves the environment
// mid-episode: call it only once the environment is no longer needed.
func driveStages(env *edgeenv.Env, actor mechanism.Actor, rounds int, sc *scope) (stageCost, error) {
	// Stages() copies the stage values, so any timing wrapper must already
	// be installed on the pipeline.
	stages := env.Pipeline().Stages()
	c := stageCost{ns: make([]time.Duration, len(stages)), calls: make([]int, len(stages)), nodes: env.NumNodes()}
	for _, s := range stages {
		c.names = append(c.names, s.Name())
	}
	if err := env.Reset(); err != nil {
		return c, err
	}
	prev := env.Config().Accuracy.Accuracy()
	var st *round.State
	for k, tries := 1, 0; c.rounds < rounds; k, tries = k+1, tries+1 {
		if tries >= 10*rounds {
			return c, fmt.Errorf("%d offers committed only %d rounds", tries, c.rounds)
		}
		prices, err := actor.Decide(false)
		if err != nil {
			return c, err
		}
		if st == nil {
			st = round.NewState(k, prices, prev, c.nodes)
		} else {
			st.Reset(k, prices, prev, c.nodes)
		}
		_, bytes0 := heapAllocs()
		for i, s := range stages {
			sc.begin("round." + s.Name())
			t := time.Now()
			err := s.Run(st)
			c.ns[i] += time.Since(t)
			sc.end()
			c.calls[i]++
			if err != nil {
				return c, fmt.Errorf("stage %s: %w", s.Name(), err)
			}
			if st.Status != round.StatusPending {
				break
			}
		}
		_, bytes1 := heapAllocs()
		c.allocBytes += bytes1 - bytes0
		switch st.Status {
		case round.StatusCommitted:
			c.rounds++
			prev = st.Record.Accuracy
		case round.StatusBudgetExhausted:
			if err := env.Reset(); err != nil {
				return c, err
			}
			prev = env.Config().Accuracy.Accuracy()
			k = 0
		}
	}
	return c, nil
}
