package schedule

import (
	"errors"
	"strings"
	"testing"

	"softpipe/internal/depgraph"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// missMIIAnalysis hand-builds the smallest loop that provably misses its
// MII.  Two ALU ops form a recurrence A→B (delay 2) and B→A (delay 2,
// omega 2): the cycle bounds RecMII = ceil(4/2) = 2, and two ALU uses on
// the single ALU give ResMII = 2, so MII = 2.  At II=2 the longest paths
// pin B to exactly A+2 — the same modulo row as A — so the one ALU unit
// conflicts at every placement and the search must settle for II=3.
func missMIIAnalysis(t *testing.T, m *machine.Machine) *depgraph.Analysis {
	t.Helper()
	na := depgraph.MustNodeFromOp(m, &ir.Op{ID: 0, Class: machine.ClassIAdd})
	nb := depgraph.MustNodeFromOp(m, &ir.Op{ID: 1, Class: machine.ClassIAdd})
	na.Index, nb.Index = 0, 1
	g := &depgraph.Graph{
		Nodes: []*depgraph.Node{na, nb},
		Edges: []depgraph.Edge{
			{From: 0, To: 1, Delay: 2, Omega: 0, Kind: depgraph.DepFlow},
			{From: 1, To: 0, Delay: 2, Omega: 2, Kind: depgraph.DepFlow},
		},
	}
	a, err := depgraph.Analyze(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.MII != 2 || a.ResMII != 2 || a.RecMII != 2 {
		t.Fatalf("MII/ResMII/RecMII = %d/%d/%d, want 2/2/2", a.MII, a.ResMII, a.RecMII)
	}
	return a
}

// TestExplainRecordsMIIMiss checks the explain report of a search that
// overshoots the lower bound: the II=MII attempt is recorded as a
// resource-conflict failure naming the contended resource, and the
// accepted interval rides in Achieved.
func TestExplainRecordsMIIMiss(t *testing.T) {
	m := machine.Warp()
	a := missMIIAnalysis(t, m)
	r, st, err := Modulo(a, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.II != 3 {
		t.Fatalf("II = %d, want 3 (II=2 has both ALU ops on one row)", r.II)
	}
	if st.MetLower {
		t.Error("MetLower = true for an MII miss")
	}
	exp := r.Explain
	if exp == nil {
		t.Fatal("Result.Explain is nil")
	}
	if exp.Achieved != 3 || exp.MII != 2 {
		t.Errorf("Explain Achieved/MII = %d/%d, want 3/2", exp.Achieved, exp.MII)
	}
	if len(exp.Attempts) != 2 {
		t.Fatalf("got %d attempts, want 2 (fail at 2, ok at 3): %+v", len(exp.Attempts), exp.Attempts)
	}
	fail, ok := exp.Attempts[0], exp.Attempts[1]
	if fail.II != 2 || fail.OK {
		t.Errorf("attempt 0 = II=%d OK=%v, want II=2 FAIL", fail.II, fail.OK)
	}
	if fail.Cause.Resource != machine.ResALU {
		t.Errorf("contended resource = %v, want ALU", fail.Cause.Resource)
	}
	if !ok.OK || ok.II != 3 {
		t.Errorf("attempt 1 = II=%d OK=%v, want II=3 ok", ok.II, ok.OK)
	}
	if st.Backtracks == 0 {
		t.Error("Stats.Backtracks = 0; the II=2 failure scanned and rejected slots")
	}
	// The human rendering names the op, the resource and the verdict.
	text := exp.Format()
	for _, want := range []string{"II=2: FAIL", "resource conflict", "ALU", "II=3: ok", "accepted II=3: 1 above the lower bound"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format() missing %q:\n%s", want, text)
		}
	}
}

// TestInfeasibleErrorCarriesExplain checks that exhausting [MII, MaxII]
// yields a structured InfeasibleError (errors.As) with the explain
// report attached rather than a flat string.
func TestInfeasibleErrorCarriesExplain(t *testing.T) {
	m := machine.Warp()
	a := missMIIAnalysis(t, m)
	_, _, err := Modulo(a, m, Options{MaxII: 2})
	if err == nil {
		t.Fatal("Modulo succeeded with MaxII=2; II=2 must be infeasible")
	}
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("error %T (%v) is not an *InfeasibleError", err, err)
	}
	if got, want := err.Error(), "schedule: no feasible initiation interval in [2, 2]"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	if ie.MII != 2 || ie.MaxII != 2 || ie.Binary {
		t.Errorf("InfeasibleError = %+v, want MII=2 MaxII=2 linear", ie)
	}
	if ie.Explain == nil {
		t.Fatal("InfeasibleError.Explain is nil")
	}
	if ie.Explain.Achieved != 0 {
		t.Errorf("Achieved = %d on an infeasible search, want 0", ie.Explain.Achieved)
	}
	if len(ie.Explain.Attempts) != 1 || ie.Explain.Attempts[0].OK {
		t.Errorf("attempts = %+v, want one failed attempt at II=2", ie.Explain.Attempts)
	}
	if !strings.Contains(ie.Explain.Format(), "no feasible initiation interval in [2, 2]") {
		t.Errorf("Format() missing infeasibility line:\n%s", ie.Explain.Format())
	}
}

// TestMaxIIBelowMIIRejectedUpFront checks the misconfiguration guard: a
// MaxII below the search floor fails immediately with the sentinel
// (errors.Is), before any candidate interval is attempted, in the linear,
// binary and exact searches alike.
func TestMaxIIBelowMIIRejectedUpFront(t *testing.T) {
	m := machine.Warp()
	a := missMIIAnalysis(t, m)
	for _, c := range []struct {
		name string
		s    *Searcher
		opts Options
	}{
		{"linear", NewSearcher(a, m), Options{MaxII: 1}},
		{"binary", NewSearcher(a, m), Options{MaxII: 1, BinarySearch: true}},
		{"exact", NewExactSearcher(a, m), Options{MaxII: 1}},
	} {
		_, st, err := c.s.Search(c.opts)
		if !errors.Is(err, ErrMaxIIBelowMII) {
			t.Fatalf("%s: error %v does not wrap ErrMaxIIBelowMII", c.name, err)
		}
		var ie *InfeasibleError
		if errors.As(err, &ie) {
			t.Errorf("%s: MaxII misconfiguration reported as infeasibility: %v", c.name, err)
		}
		if st.Attempts != 0 {
			t.Errorf("%s: %d candidate intervals attempted", c.name, st.Attempts)
		}
	}
}

// TestExplainBoundNames pins the floor attribution of the report header.
func TestExplainBoundNames(t *testing.T) {
	cases := []struct {
		e    Explain
		want string
	}{
		{Explain{MII: 5, ResMII: 5, RecMII: 1}, "resource"},
		{Explain{MII: 7, ResMII: 2, RecMII: 7}, "recurrence"},
		{Explain{MII: 9, ResMII: 5, RecMII: 7}, "raised floor"},
		{Explain{MII: 4, ResMII: 4, RecMII: 4}, "recurrence"},
	}
	for _, c := range cases {
		if got := c.e.Bound(); got != c.want {
			t.Errorf("Bound(MII=%d res=%d rec=%d) = %q, want %q",
				c.e.MII, c.e.ResMII, c.e.RecMII, got, c.want)
		}
	}
}
