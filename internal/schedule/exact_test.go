package schedule

import (
	"math/rand"
	"reflect"
	"testing"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// exactTestOpts is the standard pipeline-shaped search configuration with
// a test-friendly budget: generous enough that the tiny corpus loops
// always decide, so the tests are deterministic.
func exactTestOpts() Options {
	return Options{ReserveBranch: true, BranchResource: machine.ResBranch}
}

// gapLoopAnalysis rebuilds the pinned corpus loop (randomLoop seed 0,
// unexpanded) on which the heuristic provably misses the optimum: MII 7,
// heuristic II 9, exact II 7.  The budget/fallback and golden tests both
// lean on it.
func gapLoopAnalysis(t *testing.T) (*depgraph.Analysis, *machine.Machine) {
	t.Helper()
	m := machine.Warp()
	p := randomLoop(rand.New(rand.NewSource(0)))
	if err := p.Validate(m); err != nil {
		t.Fatal(err)
	}
	return analyze(t, p, m, false), m
}

func TestExactClosesKnownGap(t *testing.T) {
	a, m := gapLoopAnalysis(t)
	hr, hst, err := Modulo(a, m, Options{ReserveBranch: true, BranchResource: machine.ResBranch})
	if err != nil {
		t.Fatal(err)
	}
	if hst.MetLower {
		t.Fatalf("pinned loop no longer misses the floor (heuristic II %d, MII %d); pick a new seed", hr.II, a.MII)
	}
	er, est, err := NewExactSearcher(a, m).Search(exactTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if er.II != a.MII {
		t.Fatalf("exact II %d, want the MII %d", er.II, a.MII)
	}
	if er.II >= hr.II {
		t.Fatalf("exact II %d did not improve on heuristic II %d", er.II, hr.II)
	}
	if !est.Proved || est.FellBack {
		t.Fatalf("exact stats: proved=%v fellback=%v, want proved without fallback", est.Proved, est.FellBack)
	}
	if !est.MetLower {
		t.Fatal("exact met the MII but MetLower is false")
	}
	if verr := Verify(a.Graph, m, er); verr != nil {
		t.Fatalf("exact schedule fails verification: %v", verr)
	}
}

func TestExactPinsKnownGap(t *testing.T) {
	// randomLoop seed 12 (unexpanded): MII 5, both backends achieve 6 —
	// the exact search proves the heuristic's "miss" is in fact optimal.
	m := machine.Warp()
	p := randomLoop(rand.New(rand.NewSource(12)))
	if err := p.Validate(m); err != nil {
		t.Fatal(err)
	}
	a := analyze(t, p, m, false)
	hr, hst, err := Modulo(a, m, Options{ReserveBranch: true, BranchResource: machine.ResBranch})
	if err != nil {
		t.Fatal(err)
	}
	if hst.MetLower {
		t.Fatalf("pinned loop no longer misses the floor (heuristic II %d, MII %d); pick a new seed", hr.II, a.MII)
	}
	er, est, err := NewExactSearcher(a, m).Search(exactTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if er.II != hr.II {
		t.Fatalf("exact II %d, heuristic II %d: expected the heuristic to be optimal here", er.II, hr.II)
	}
	if er.II <= a.MII {
		t.Fatalf("exact II %d should sit above the MII %d on this loop", er.II, a.MII)
	}
	if !est.Proved {
		t.Fatal("exact search completed but did not mark the result proved")
	}
}

func TestExactNeverWorseThanHeuristicRandom(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(7))
	m := machine.Warp()
	for trial := 0; trial < trials; trial++ {
		p := randomLoop(rng)
		if err := p.Validate(m); err != nil {
			t.Fatalf("trial %d: validate: %v", trial, err)
		}
		for _, expand := range []bool{false, true} {
			a := analyze(t, p, m, expand)
			hr, _, herr := Modulo(a, m, Options{ReserveBranch: true, BranchResource: machine.ResBranch})
			er, est, eerr := NewExactSearcher(a, m).Search(exactTestOpts())
			if herr != nil {
				t.Fatalf("trial %d (expand=%v): heuristic: %v", trial, expand, herr)
			}
			if eerr != nil {
				t.Fatalf("trial %d (expand=%v): exact: %v", trial, expand, eerr)
			}
			if er.II > hr.II {
				t.Fatalf("trial %d (expand=%v): exact II %d above heuristic II %d", trial, expand, er.II, hr.II)
			}
			if er.II < a.MII {
				t.Fatalf("trial %d (expand=%v): exact II %d below the MII %d", trial, expand, er.II, a.MII)
			}
			if !est.Proved && !est.FellBack {
				t.Fatalf("trial %d (expand=%v): exact search neither proved nor fell back", trial, expand)
			}
			if verr := Verify(a.Graph, m, er); verr != nil {
				t.Fatalf("trial %d (expand=%v): exact schedule fails verification: %v", trial, expand, verr)
			}
		}
	}
}

func TestExactSearchDeterministic(t *testing.T) {
	a, m := gapLoopAnalysis(t)
	r1, _, err := NewExactSearcher(a, m).Search(exactTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := NewExactSearcher(a, m).Search(exactTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r1.II != r2.II || !reflect.DeepEqual(r1.Time, r2.Time) {
		t.Fatalf("exact search is not deterministic: II %d vs %d, times %v vs %v", r1.II, r2.II, r1.Time, r2.Time)
	}
}

// plausibleCandidate builds a randomized dependence-greedy schedule at
// interval ii: nodes are placed in a random order, each at a slot that
// honors its already-placed predecessors and, when possible, the modulo
// reservation table.  These are exactly the "near miss" schedules a
// would-be II−1 refutation must reject.
func plausibleCandidate(g *depgraph.Graph, m *machine.Machine, ii int, rng *rand.Rand) *Result {
	n := len(g.Nodes)
	r := &Result{II: ii, Time: make([]int, n)}
	placed := make([]bool, n)
	tab := NewModTable(ii, m)
	for _, v := range rng.Perm(n) {
		lo := 0
		for _, e := range g.Edges {
			if e.To != v || !placed[e.From] {
				continue
			}
			if c := r.Time[e.From] + e.Delay - ii*e.Omega; c > lo {
				lo = c
			}
		}
		t := lo + rng.Intn(ii)
		off := rng.Intn(ii)
		for dt := 0; dt < ii; dt++ {
			c := lo + (off+dt)%ii
			if tab.Fits(g.Nodes[v].Reservation, c) {
				t = c
				break
			}
		}
		tab.Place(g.Nodes[v].Reservation, t)
		r.Time[v] = t
		placed[v] = true
		if e := t + Extent(g.Nodes[v]); e > r.Length {
			r.Length = e
		}
	}
	return r
}

// TestExactMinimalityCertificate is the property test for the exact
// backend's optimality proof: when it reports Proved at interval II*, no
// schedule may exist at II*−1.  We cannot enumerate all of them, but
// every plausible candidate from a seeded randomized generator must be
// refuted by the independent Verify checker — one surviving candidate
// would disprove the certificate.
func TestExactMinimalityCertificate(t *testing.T) {
	seeds := 40
	candidates := 150
	if testing.Short() {
		seeds, candidates = 10, 40
	}
	m := machine.Warp()
	certified := 0
	for seed := 0; seed < seeds; seed++ {
		p := randomLoop(rand.New(rand.NewSource(int64(seed))))
		if err := p.Validate(m); err != nil {
			t.Fatalf("seed %d: validate: %v", seed, err)
		}
		a := analyze(t, p, m, false)
		// No branch reservation here: the proof must cover exactly the
		// constraint set Verify checks (dependences + machine resources).
		er, est, err := NewExactSearcher(a, m).Search(Options{})
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		if !est.Proved || est.FellBack || er.II < 2 {
			continue
		}
		certified++
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		for c := 0; c < candidates; c++ {
			cand := plausibleCandidate(a.Graph, m, er.II-1, rng)
			if Verify(a.Graph, m, cand) == nil {
				t.Fatalf("seed %d: exact backend proved II %d optimal, but candidate %d is a valid schedule at II %d: times %v",
					seed, er.II, c, cand.II, cand.Time)
			}
		}
	}
	if certified == 0 {
		t.Fatal("no loop produced a minimality certificate; the property test exercised nothing")
	}
}
