package main

import (
	"fmt"
	"math"
	"sync"

	"chiron/internal/device"
	"chiron/internal/edgeenv"
	"chiron/internal/market"
	"chiron/internal/mechanism"
	"chiron/internal/scenario"
)

// checker collects the failed correctness checks of a run. Safe for
// concurrent use.
type checker struct {
	mu       sync.Mutex
	problems []string
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.problems) < 50 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *checker) err(err error) {
	if err != nil {
		c.failf("%v", err)
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.problems) == 0
}

// near reports whether a and b agree to a relative tolerance.
func near(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-300)
}

// episodeLedger is what one finished episode left in the environment,
// copied out so a check never reads state the program may reuse.
type episodeLedger struct {
	Budget, Remaining, Waste float64
	Lambda, TimeWeight       float64
	FailurePayment           float64
	Rounds                   []market.Round
	Nodes                    []device.Node
	// Exact marks an environment with no jitter, availability draws,
	// churn, faults or deadline: every node's round time and participation
	// are then fully determined by Eqns. 11 and 12.
	Exact bool
	// CommLo is the least factor bandwidth regimes and jitter may apply to
	// a node's nominal upload time (1 when Exact).
	CommLo float64
	// Deadline is the round deadline in seconds (0 = none).
	Deadline float64
}

// ledgerOf copies the environment's finished episode. nodes is the fleet
// view, taken once per environment because it does not change.
func ledgerOf(env *edgeenv.Env, nodes []device.Node) episodeLedger {
	cfg := env.Config()
	l := env.Ledger()
	exact := cfg.CommJitter == 0 && (cfg.Availability == 0 || cfg.Availability == 1) &&
		cfg.Churn == nil && cfg.Faults == nil && cfg.RoundDeadline == 0 && cfg.Bandwidth == nil
	lo := 1 - cfg.CommJitter
	if cfg.Bandwidth != nil {
		// A bandwidth regime may scale uploads by any positive factor.
		lo = 0
	}
	return episodeLedger{
		Budget:         l.Budget(),
		Remaining:      l.Remaining(),
		Waste:          l.WastedTime(),
		Lambda:         cfg.Lambda,
		TimeWeight:     cfg.TimeWeight,
		FailurePayment: cfg.FailurePayment,
		Rounds:         append([]market.Round(nil), l.Rounds()...),
		Nodes:          nodes,
		Exact:          exact,
		CommLo:         lo,
		Deadline:       cfg.RoundDeadline,
	}
}

// nodeValues copies the fleet's per-node parameters.
func nodeValues(env *edgeenv.Env) []device.Node {
	ptrs := env.Nodes()
	out := make([]device.Node, len(ptrs))
	for i, n := range ptrs {
		out[i] = *n
	}
	return out
}

// relTol is the tolerance for sums whose association may differ from the
// program's; per-node closed forms are compared tighter.
const (
	relTol   = 1e-9
	exactTol = 1e-12
)

// checkLedger verifies the budget identities: spend equals the sum of the
// rounds' payments, spend stays within η, and spend plus the remainder is η.
func checkLedger(l episodeLedger) error {
	var paid float64
	for _, r := range l.Rounds {
		paid += r.Payment
	}
	spent := l.Budget - l.Remaining
	switch {
	case !near(paid, spent, relTol) && math.Abs(paid-spent) > relTol*l.Budget:
		return fmt.Errorf("ledger: spend %v != sum of payments %v", spent, paid)
	case paid > l.Budget*(1+relTol):
		return fmt.Errorf("ledger: spend %v exceeds budget %v", paid, l.Budget)
	case l.Remaining < 0:
		return fmt.Errorf("ledger: negative remainder %v", l.Remaining)
	case math.Abs(paid+l.Remaining-l.Budget) > relTol*l.Budget:
		return fmt.Errorf("ledger: spend %v + remainder %v != budget %v", paid, l.Remaining, l.Budget)
	}
	return nil
}

// checkUtility recomputes Eqn. 9, λ·A(ω_K) − Σ_k T_k (the time term scaled
// by the environment's time weight), from the rounds, with T_k taken as
// the slowest participant's time, and compares it with the reported value.
func checkUtility(l episodeLedger, reported float64) error {
	total := l.Waste
	for _, r := range l.Rounds {
		total += slowest(r)
	}
	var acc float64
	if n := len(l.Rounds); n > 0 {
		acc = l.Rounds[n-1].Accuracy
	}
	want := l.Lambda*acc - l.TimeWeight*total
	if !near(want, reported, relTol) {
		return fmt.Errorf("eqn 9: reported utility %v, recomputed %v", reported, want)
	}
	return nil
}

// slowest returns max_i T_{i,k} over the round's participants.
func slowest(r market.Round) float64 {
	var t float64
	for i, o := range r.Outcomes {
		if o != market.OutcomeAbsent && r.Times[i] > t {
			t = r.Times[i]
		}
	}
	return t
}

// checkRound recomputes one committed round from the node parameters:
// Eqn. 11's frequency for every participant, Eqn. 12's compute time, the
// round time T_k as the slowest participant, and the payment, in which
// absent and departed nodes earn nothing.
func checkRound(l episodeLedger, r market.Round) error {
	n := len(l.Nodes)
	if len(r.Prices) != n || len(r.Freqs) != n || len(r.Times) != n || len(r.Outcomes) != n {
		return fmt.Errorf("round %d: per-node vectors sized %d/%d/%d/%d, want %d",
			r.Index, len(r.Prices), len(r.Freqs), len(r.Times), len(r.Outcomes), n)
	}
	var pay float64
	participants, completed := 0, 0
	for i := range l.Nodes {
		nd := &l.Nodes[i]
		p, f, t, o := r.Prices[i], r.Freqs[i], r.Times[i], r.Outcomes[i]
		work := float64(nd.Epochs) * nd.CyclesPerBit * nd.DataBits // σ·c·d
		interior := p / (2 * nd.Capacitance * work)                // Eqn. 11
		want := math.Min(math.Max(interior, nd.FreqMin), nd.FreqMax)
		if o == market.OutcomeAbsent {
			if l.Exact {
				// With nothing but the price deciding, a declined node is
				// one whose best utility misses its reserve.
				u := p*want - (nd.Capacitance*work*want*want + nd.CommEnergyRate*nd.CommTime)
				if u >= nd.Reserve {
					return fmt.Errorf("round %d node %d: declined with utility %v >= reserve %v", r.Index, i, u, nd.Reserve)
				}
			}
			continue
		}
		participants++
		if !near(f, want, exactTol) {
			return fmt.Errorf("eqn 11: round %d node %d: frequency %v, want %v", r.Index, i, f, want)
		}
		cmp := work / f
		if want == interior && !near(cmp, 2*nd.Capacitance*work*work/p, relTol) { // Eqn. 12
			return fmt.Errorf("eqn 12: round %d node %d: compute time %v, want %v", r.Index, i, cmp, 2*nd.Capacitance*work*work/p)
		}
		switch {
		case l.Exact:
			if o != market.OutcomeCompleted {
				return fmt.Errorf("round %d node %d: outcome %v in a fault-free round", r.Index, i, o)
			}
			if !near(t, cmp+nd.CommTime, exactTol) {
				return fmt.Errorf("eqn 12: round %d node %d: time %v, want %v", r.Index, i, t, cmp+nd.CommTime)
			}
			u := p*f - (nd.Capacitance*work*f*f + nd.CommEnergyRate*nd.CommTime)
			if u < nd.Reserve*(1-exactTol) {
				return fmt.Errorf("round %d node %d: joined with utility %v below reserve %v", r.Index, i, u, nd.Reserve)
			}
		case o == market.OutcomeCompleted:
			lo := cmp + nd.CommTime*l.CommLo
			if t < lo*(1-exactTol) {
				return fmt.Errorf("eqn 12: round %d node %d: time %v below compute+upload %v", r.Index, i, t, lo)
			}
		}
		if l.Deadline > 0 && t > l.Deadline*(1+exactTol) {
			return fmt.Errorf("round %d node %d: time %v past the deadline %v", r.Index, i, t, l.Deadline)
		}
		switch {
		case o == market.OutcomeCompleted:
			completed++
			pay += p * f
		default:
			// A failed or departed node earns the failure fraction, which
			// the benchmark's specs leave at 0: it is never paid.
			pay += p * f * l.FailurePayment
		}
	}
	if participants != r.Participants || completed != r.Completed {
		return fmt.Errorf("round %d: %d participants / %d completed, record says %d / %d",
			r.Index, participants, completed, r.Participants, r.Completed)
	}
	if !near(pay, r.Payment, relTol) {
		return fmt.Errorf("round %d: payment %v, recomputed %v", r.Index, r.Payment, pay)
	}
	if got, want := r.RoundTime(), slowest(r); got != want {
		return fmt.Errorf("round %d: T_k %v, slowest participant %v", r.Index, got, want)
	}
	return nil
}

// checkEpisode runs every per-episode check: the ledger identities, each
// committed round, and Eqn. 9 against the episode's reported result.
func checkEpisode(l episodeLedger, res mechanism.EpisodeResult) error {
	if err := checkLedger(l); err != nil {
		return err
	}
	for _, r := range l.Rounds {
		if err := checkRound(l, r); err != nil {
			return err
		}
	}
	if res.Rounds != len(l.Rounds) {
		return fmt.Errorf("episode reports %d rounds, ledger holds %d", res.Rounds, len(l.Rounds))
	}
	if !near(res.BudgetSpent, l.Budget-l.Remaining, relTol) {
		return fmt.Errorf("episode reports spend %v, ledger %v", res.BudgetSpent, l.Budget-l.Remaining)
	}
	return checkUtility(l, res.ServerUtility)
}

// checkDigest compares two runs of one grid bit for bit through their
// digests: the determinism contract across worker counts.
func checkDigest(what string, got, want *scenario.Result) error {
	if g, w := got.Digest(), want.Digest(); g != w {
		return fmt.Errorf("%s: digest %s, reference %s", what, g, w)
	}
	return nil
}

// checkAccuracy holds a trained system's evaluation accuracy clear of
// chance.
func checkAccuracy(acc, min float64) error {
	if acc < min {
		return fmt.Errorf("evaluation accuracy %v below %v", acc, min)
	}
	return nil
}
