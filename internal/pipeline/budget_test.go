package pipeline_test

import (
	"strings"
	"testing"

	"softpipe/internal/depgraph"
	"softpipe/internal/hier"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/pipeline"
	"softpipe/internal/trace"
	"softpipe/internal/workloads"
)

// suiteLoop returns the scheduling nodes of one loop of a synthetic-suite
// program on machine spec (the suite lives behind codegen, so these tests
// sit in the external test package).
func suiteLoop(t *testing.T, prog, loopID int, spec string) (*ir.Program, *ir.LoopStmt, *machine.Machine, []*depgraph.Node) {
	t.Helper()
	p := workloads.Suite()[prog].Prog
	m, err := machine.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	var l *ir.LoopStmt
	p.Body.Walk(func(s ir.Stmt) bool {
		if ls, ok := s.(*ir.LoopStmt); ok && ls.ID == loopID {
			l = ls
		}
		return true
	})
	if l == nil {
		t.Fatalf("user%02d has no loop %d", prog, loopID)
	}
	// Arms whole: user05's conditional loop is the one body found where the
	// exact II trips a check the heuristic's passes, and only in that form.
	nodes, _, err := hier.NewReducer(p, m).Reduce(l.ID, l.Body, false)
	if err != nil {
		t.Fatal(err)
	}
	return p, l, m, nodes
}

// TestRotatingCopyBudgetProbe walks the rotating-file budget retry
// through each of its outcomes.  When a plan's rings exceed the copy
// budget the planner probes two remedies — A: II+1 with every expansion
// kept, B: the current interval with the shortest-lived variable
// un-expanded — and the rows name which way each case goes; what is
// asserted is where the plan lands (interval, expansions given up
// against the unbudgeted plan), that it fits, and how many plans it took
// (pipeline.replans): when neither probe fits, the one chosen is where
// the next round starts, not planned again.
func TestRotatingCopyBudgetProbe(t *testing.T) {
	for _, tc := range []struct {
		outcome string
		prog    int
		machine string
		budget  int
		wantII  int
		dropped int
		plans   int64
	}{
		{"budget never binds: the unbudgeted plan", 50, "gen:fa4,fm4,mem1,rot", 40, 2, 0, 1},
		{"only A fits", 42, "gen:fa2,fm2,mem1,rot", 6, 4, 0, 3},
		{"only B fits", 49, "gen:fa2,fm2,mem1,rot", 2, 15, 1, 3},
		{"both fit, A at the smaller interval", 49, "gen:fa4,fm4,mem1,rot", 4, 3, 0, 3},
		{"both fit, B at the smaller interval", 50, "gen:fa2,fm2,mem1,rot", 2, 3, 1, 3},
		{"neither fits, A cheaper: the floor moves twice, then B wins", 42, "gen:fa1,fm1,mem1,rot", 2, 8, 1, 7},
		{"neither fits, B cheaper: a victim goes, then B wins again", 50, "gen:fa4,fm4,mem1,rot", 2, 2, 2, 5},
	} {
		t.Run(tc.outcome, func(t *testing.T) {
			p, l, m, nodes := suiteLoop(t, tc.prog, 0, tc.machine)
			free, err := pipeline.PlanLoop(nodes, l.ID, m, pipeline.Options{IndependentMem: l.Independent})
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.New("budget")
			plan, err := pipeline.PlanLoop(nodes, l.ID, m, pipeline.Options{
				CopyBudgetF: tc.budget, CopyBudgetI: tc.budget, RegKind: p.Kind, IndependentMem: l.Independent, Tracer: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			var plans int64
			for _, e := range tr.Events() {
				if e.Name == "pipeline.replans" {
					plans += e.Args[0].Val
				}
			}
			if plans != tc.plans {
				t.Errorf("%d plans made, want %d", plans, tc.plans)
			}
			if !plan.Rotating || plan.Unroll != 1 {
				t.Fatalf("rotating=%v unroll=%d on a rotating machine", plan.Rotating, plan.Unroll)
			}
			if cf, ci := plan.CopyRegs(p.Kind); cf > tc.budget || ci > tc.budget {
				t.Errorf("plan claims %d float / %d int copy registers over a budget of %d", cf, ci, tc.budget)
			}
			if got := len(free.Expanded) - len(plan.Expanded); plan.II != tc.wantII || got != tc.dropped {
				t.Errorf("II = %d with %d expansions given up, want II = %d with %d (unbudgeted II %d)",
					plan.II, got, tc.wantII, tc.dropped, free.II)
			}
			if plan.II < free.II {
				t.Errorf("budgeted II %d below the unbudgeted %d", plan.II, free.II)
			}
		})
	}
}

// TestExactRetriesHeuristic: a plan below the heuristic's II
// can fail a check downstream of the II search that the heuristic's plan
// passes — here the searched II stretches one lifetime to 33 copies, past
// the unroll limit — and the default must never pipeline less than the
// heuristic alone, so PlanLoop hands back the heuristic's plan instead of
// the error.
func TestExactRetriesHeuristic(t *testing.T) {
	_, l, m, nodes := suiteLoop(t, 5, 1, "gen:fa1,fm1,mem1")
	heur, err := pipeline.PlanLoop(nodes, l.ID, m, pipeline.Options{HeuristicOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pipeline.PlanLoop(nodes, l.ID, m, pipeline.Options{})
	if err != nil {
		t.Fatalf("the default refused a loop the heuristic pipelines: %v", err)
	}
	if plan.Heuristic != nil || plan.SchedStats.Exact || plan.II != heur.II || plan.Unroll != heur.Unroll {
		t.Errorf("rescued plan: II %d (exact search scheduled it: %v) unroll %d, want the heuristic's plan (II %d unroll %d) alone",
			plan.II, plan.SchedStats.Exact, plan.Unroll, heur.II, heur.Unroll)
	}
	if heur.II <= heur.MII {
		t.Errorf("heuristic II %d at its bound %d: the search had nothing tighter to find", heur.II, heur.MII)
	}
}

// TestExactRetryKeepsFirstError: when the heuristic's plan fails too,
// the caller sees the search's error.
func TestExactRetryKeepsFirstError(t *testing.T) {
	_, l, m, nodes := suiteLoop(t, 5, 1, "gen:fa1,fm1,mem1")
	m.ResourceCount = append([]int(nil), m.ResourceCount...)
	m.ResourceCount[machine.ResBranch] = 0
	_, err := pipeline.PlanLoop(nodes, l.ID, m, pipeline.Options{})
	if err == nil || !strings.Contains(err.Error(), "Branch") {
		t.Fatalf("err = %v, want the missing-branch-unit error", err)
	}
}
