package main

import (
	"math"
	"strings"
	"testing"

	"chiron/internal/market"
	"chiron/internal/mechanism"
	"chiron/internal/scenario"
)

// episode runs one evaluation episode of a library scenario's first cell
// and returns what the checks read.
func episode(t *testing.T, name string) (episodeLedger, mechanism.EpisodeResult) {
	t.Helper()
	spec, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("no library scenario %q", name)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	run, err := scenario.OpenCell(spec, cells[0])
	if err != nil {
		t.Fatal(err)
	}
	m := run.Mechanism()
	res, err := m.RunEpisode(false)
	if err != nil {
		t.Fatal(err)
	}
	l := ledgerOf(m.Env(), nodeValues(m.Env()))
	if len(l.Rounds) < 2 {
		t.Fatalf("%s: %d rounds, want at least 2", name, len(l.Rounds))
	}
	return l, res
}

// clone deep-copies the rounds so a corruption never reaches the ledger.
func clone(l episodeLedger) episodeLedger {
	rounds := make([]market.Round, len(l.Rounds))
	for i, r := range l.Rounds {
		r.Prices = append([]float64(nil), r.Prices...)
		r.Freqs = append([]float64(nil), r.Freqs...)
		r.Times = append([]float64(nil), r.Times...)
		r.Outcomes = append([]market.Outcome(nil), r.Outcomes...)
		rounds[i] = r
	}
	l.Rounds = rounds
	return l
}

// firstWith returns the index of the first node of round r with outcome o.
func firstWith(t *testing.T, r market.Round, o market.Outcome) int {
	t.Helper()
	for i, x := range r.Outcomes {
		if x == o {
			return i
		}
	}
	t.Fatalf("round %d has no %v node", r.Index, o)
	return -1
}

func TestChecksPassOnProgramOutput(t *testing.T) {
	for _, name := range []string{"paper-baseline", "flaky-network", "faulty-fleet", "churny-fleet"} {
		l, res := episode(t, name)
		if err := checkEpisode(l, res); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestChecksFailOnCorruptedOutput corrupts one thing at a time in a real
// episode's output and expects the check that guards it to fail.
func TestChecksFailOnCorruptedOutput(t *testing.T) {
	exact, res := episode(t, "paper-baseline")
	if !exact.Exact {
		t.Fatal("paper-baseline should be an exact (fault-free) environment")
	}
	faulty, faultyRes := episode(t, "faulty-fleet")
	cases := []struct {
		name    string
		base    episodeLedger
		res     mechanism.EpisodeResult
		corrupt func(l *episodeLedger, res *mechanism.EpisodeResult)
		want    string
	}{
		{"spend is not the sum of payments", exact, res, func(l *episodeLedger, _ *mechanism.EpisodeResult) {
			l.Remaining -= 1
		}, "ledger"},
		{"spend exceeds the budget", exact, res, func(l *episodeLedger, _ *mechanism.EpisodeResult) {
			paid := l.Budget - l.Remaining
			l.Budget = paid / 2
			l.Remaining = l.Budget - paid
		}, "exceeds budget"},
		{"reported utility off Eqn. 9", exact, res, func(_ *episodeLedger, r *mechanism.EpisodeResult) {
			r.ServerUtility += 0.01
		}, "eqn 9"},
		{"frequency off Eqn. 11", exact, res, func(l *episodeLedger, _ *mechanism.EpisodeResult) {
			r := l.Rounds[0]
			i := firstWith(t, r, market.OutcomeCompleted)
			r.Freqs[i] *= 1.001
		}, "eqn 11"},
		{"round time off Eqn. 12", exact, res, func(l *episodeLedger, _ *mechanism.EpisodeResult) {
			r := l.Rounds[1]
			i := firstWith(t, r, market.OutcomeCompleted)
			r.Times[i] += 0.5
		}, "eqn 12"},
		{"T_k not the slowest participant", exact, res, func(l *episodeLedger, _ *mechanism.EpisodeResult) {
			// An absent node's time leaks into the program's T_k.
			r := &l.Rounds[0]
			r.Outcomes[0] = market.OutcomeAbsent
			r.Participants--
			r.Completed--
			r.Payment -= r.Prices[0] * r.Freqs[0]
			l.Remaining += r.Prices[0] * r.Freqs[0]
			r.Times[0] = 1e6
			l.Exact = false
		}, "T_k"},
		{"absent node paid", exact, res, func(l *episodeLedger, _ *mechanism.EpisodeResult) {
			r := &l.Rounds[0]
			i := firstWith(t, *r, market.OutcomeCompleted)
			r.Outcomes[i] = market.OutcomeAbsent
			r.Participants--
			r.Completed--
			l.Exact = false
		}, "payment"},
		{"departed node paid", exact, res, func(l *episodeLedger, _ *mechanism.EpisodeResult) {
			r := &l.Rounds[0]
			r.Outcomes[firstWith(t, *r, market.OutcomeCompleted)] = market.OutcomeDeparted
			r.Completed--
			l.Exact = false
		}, "payment"},
		{"failed node paid in full", faulty, faultyRes, func(l *episodeLedger, _ *mechanism.EpisodeResult) {
			for k := range l.Rounds {
				r := &l.Rounds[k]
				for i, o := range r.Outcomes {
					if o.Failed() {
						r.Payment += r.Prices[i] * r.Freqs[i] * (1 - l.FailurePayment)
						return
					}
				}
			}
			t.Fatal("no failed node in faulty-fleet")
		}, "payment"},
		{"time past the deadline", faulty, faultyRes, func(l *episodeLedger, _ *mechanism.EpisodeResult) {
			r := l.Rounds[0]
			r.Times[firstWith(t, r, market.OutcomeCompleted)] = l.Deadline * 2
		}, "deadline"},
		{"declined node would have joined", exact, res, func(l *episodeLedger, _ *mechanism.EpisodeResult) {
			r := &l.Rounds[0]
			i := firstWith(t, *r, market.OutcomeCompleted)
			r.Outcomes[i] = market.OutcomeAbsent
			r.Participants--
			r.Completed--
			r.Payment -= r.Prices[i] * r.Freqs[i]
			l.Remaining += r.Prices[i] * r.Freqs[i]
			r.Freqs[i], r.Times[i] = 0, 0
		}, "declined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkEpisode(tc.base, tc.res); err != nil {
				t.Fatalf("uncorrupted output fails: %v", err)
			}
			l, r := clone(tc.base), tc.res
			tc.corrupt(&l, &r)
			err := checkEpisode(l, r)
			if err == nil {
				t.Fatal("corrupted output passed the checks")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

func TestCheckDigestFailsOnOneULP(t *testing.T) {
	spec, _ := scenario.Lookup("paper-baseline")
	one, err := scenario.Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := scenario.Run(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDigest("workers", two, one); err != nil {
		t.Fatal(err)
	}
	bad := *two
	bad.Cells = append([]scenario.CellResult(nil), two.Cells...)
	bad.Cells[0].Result.ServerUtility = math.Nextafter(bad.Cells[0].Result.ServerUtility, 0)
	if checkDigest("workers", &bad, one) == nil {
		t.Fatal("a one-ULP change passed the digest check")
	}
}

func TestCheckAccuracy(t *testing.T) {
	if err := checkAccuracy(0.65, realSpec.minAccuracy); err != nil {
		t.Fatal(err)
	}
	if checkAccuracy(0.1, realSpec.minAccuracy) == nil {
		t.Fatal("chance accuracy passed")
	}
}

func TestCheckServed(t *testing.T) {
	spec, _ := scenario.Lookup("heterogeneous-mix")
	want := expectedEvents(spec)
	if want != 2+spec.TrainEpisodes {
		t.Fatalf("heterogeneous-mix expects %d events, want %d", want, 2+spec.TrainEpisodes)
	}
	seqs := make([]int, want)
	for i := range seqs {
		seqs[i] = i + 1
	}
	done := statusView{State: "done", Digest: "d"}
	if err := checkServed(spec, done, seqs, "d", "d"); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func() (statusView, []int, string){
		"not done": func() (statusView, []int, string) {
			return statusView{State: "failed", Digest: "d"}, seqs, "d"
		},
		"missing event": func() (statusView, []int, string) { return done, seqs[1:], "d" },
		"out of order": func() (statusView, []int, string) {
			s := append([]int(nil), seqs...)
			s[1], s[2] = s[2], s[1]
			return done, s, "d"
		},
		"repeated seq": func() (statusView, []int, string) {
			s := append([]int(nil), seqs...)
			s[2] = s[1]
			return done, s, "d"
		},
		"latched churn": func() (statusView, []int, string) {
			return statusView{State: "done", Digest: "d", Churn: "-1@3"}, seqs, "d"
		},
		"digest differs": func() (statusView, []int, string) { return done, seqs, "e" },
	}
	for name, corrupt := range cases {
		st, s, digest := corrupt()
		if checkServed(spec, st, s, digest, "d") == nil {
			t.Errorf("%s: corrupted session passed", name)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartiles([]float64{2, 1}); got != [3]float64{0.75, 1.5, 2.25} {
		t.Fatalf("quartiles of two = %v", got)
	}
}

func TestSelfTimeSubtractsChildrenUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "workload.rep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "experiment.cell", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "experiment.cell", Start: 40, End: 90}, // overlaps 2
		{ID: 4, Parent: 2, Name: "edgeenv.step", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	if self["workload"] != 20 || self["experiment"] != 90 || self["edgeenv"] != 10 {
		t.Fatalf("self times %v", self)
	}
}
