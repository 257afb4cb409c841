package schedule

import (
	"context"
	"errors"
	"testing"
	"time"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// TestRigidRefutationsAreOracleInfeasible holds refuteRigid to rowOracle
// on the loops and intervals TestExactDecideMatchesRowOracle decides, its
// below-MII intervals included: every interval the rule refutes must be
// one the oracle schedules nothing at, even without the loop-back's
// reservation, which the rule leaves out.  It logs how many of the
// oracle's infeasible intervals the rule refutes without a search.
func TestRigidRefutationsAreOracleInfeasible(t *testing.T) {
	m := machine.Warp()
	seeds, synths, padded, below, above := 150, 600, 200, 2, 3
	if testing.Short() {
		seeds, synths, padded, below, above = 50, 150, 50, 1, 1
	}
	loops := oracleLoops(t, seeds, synths, padded, below)
	intervals, infeasible, refuted := 0, 0, 0
	for _, l := range loops {
		a, err := depgraph.Analyze(l.g, m)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		sr := NewExactSearcher(a, m)
		for s := max(1, a.MII-l.from); s <= a.MII+above; s++ {
			w, err := sr.refuteRigid(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			feasible := rowOracle(l.core, m, s, false)
			intervals++
			if !feasible {
				infeasible++
			}
			if w == nil {
				continue
			}
			refuted++
			if feasible {
				t.Fatalf("%s, s=%d: refuted by %+v, but the oracle schedules it\n%s", l.name, s, *w, l.core)
			}
		}
	}
	if refuted == 0 {
		t.Fatal("the rule refuted no interval")
	}
	t.Logf("%d loops, %d intervals, %d infeasible, %d of them refuted without search", len(loops), intervals, infeasible, refuted)
}

// TestRigidRefutationHonoursDeadline: before its search, deciding an
// interval closes every recurrence component into longest paths, cubic in
// the component's size (seconds on a 2,000-node ring), so the sweep's
// once-a-pivot poll must end refuteRigid with the context's error soon
// after the deadline.
func TestRigidRefutationHonoursDeadline(t *testing.T) {
	const n = 2000
	m := machine.Warp()
	g := &depgraph.Graph{}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, &depgraph.Node{Index: i, Len: 1, Reservation: []machine.ResUse{{Resource: machine.ResALU}}})
		e := depgraph.Edge{From: i, To: (i + 1) % n, Delay: 1}
		if e.To == 0 {
			e.Omega = n
		}
		g.Edges = append(g.Edges, e)
	}
	a, err := depgraph.Analyze(g, m)
	if err != nil {
		t.Fatal(err)
	}
	sr := NewExactSearcher(a, m)
	// Wall clock on a shared host: one miss is retried, as in depgraph's
	// deadline tests.
	var over time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		start := time.Now()
		_, err := sr.refuteRigid(ctx, a.MII)
		over = time.Since(start) - 100*time.Millisecond
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("error %v, want one wrapping context.DeadlineExceeded", err)
		}
		if over <= time.Second {
			return
		}
	}
	t.Fatalf("returned %v after its deadline", over)
}
