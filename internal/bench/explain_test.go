package bench

import (
	"strconv"
	"strings"
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/machine"
	"softpipe/internal/schedule"
	"softpipe/internal/workloads"
)

// compileExplain compiles one Livermore kernel exactly as `livermore
// -explain` does; every compile records the explain report.
func compileExplain(t *testing.T, name string) *codegen.Report {
	t.Helper()
	for _, k := range workloads.Livermore() {
		if k.Name != name {
			continue
		}
		p, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := codegen.Compile(p, machine.Warp(), codegen.Options{Mode: codegen.ModePipelined})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	t.Fatalf("no kernel named %s", name)
	return nil
}

func loopExplain(t *testing.T, rep *codegen.Report, loopID int) *schedule.Explain {
	t.Helper()
	for _, lr := range rep.Loops {
		if lr.LoopID == loopID {
			if lr.Explain == nil {
				t.Fatalf("loop %d has no explain report", loopID)
			}
			return lr.Explain
		}
	}
	t.Fatalf("no loop %d in report", loopID)
	return nil
}

// TestExplainGoldenTridiagonal pins the explain report of kernel 5
// (first-order linear recurrence, Lam Table 4-2): the search floor is
// the recurrence bound, and the first candidate interval already
// schedules, so the report is a single successful attempt.
func TestExplainGoldenTridiagonal(t *testing.T) {
	rep := compileExplain(t, "k5-tridiagonal")
	exp := loopExplain(t, rep, 0)
	if exp.PreFailure != "" {
		t.Fatalf("unexpected pre-failure: %s", exp.PreFailure)
	}
	if got := exp.Bound(); got != "recurrence" {
		t.Errorf("Bound() = %q, want recurrence (x[i] depends on x[i-1])", got)
	}
	if exp.RecMII <= exp.ResMII {
		t.Errorf("RecMII %d <= ResMII %d; kernel 5 must be recurrence-bound", exp.RecMII, exp.ResMII)
	}
	if exp.Achieved != exp.MII {
		t.Errorf("Achieved %d != MII %d; the recurrence-bound loop meets its floor", exp.Achieved, exp.MII)
	}
	if len(exp.Attempts) != 1 || !exp.Attempts[0].OK || exp.Attempts[0].II != exp.MII {
		t.Errorf("attempts = %+v, want one ok attempt at II=MII", exp.Attempts)
	}
	if !strings.Contains(exp.Format(), "accepted II="+strconv.Itoa(exp.MII)+": met the lower bound") {
		t.Errorf("Format() missing acceptance line:\n%s", exp.Format())
	}
}

// TestExplainGoldenHydro2D pins the explain report of kernel 18, the
// only Table 4-2 kernel whose loops miss their MII on the Warp cell:
// both sweeps are resource-bound, and every failed candidate names the
// functional unit it conflicts on (adder or memory read port).
func TestExplainGoldenHydro2D(t *testing.T) {
	rep := compileExplain(t, "k18-2d-hydro")

	// First sweep (loop 1): floor 14 from the resource bound, II=14
	// fails on the floating adder, II=15 schedules.
	exp := loopExplain(t, rep, 1)
	if got := exp.Bound(); got != "resource" {
		t.Errorf("loop 1 Bound() = %q, want resource", got)
	}
	if exp.MII != 14 || exp.Achieved != 15 {
		t.Errorf("loop 1 MII/Achieved = %d/%d, want 14/15", exp.MII, exp.Achieved)
	}
	if len(exp.Attempts) != 2 {
		t.Fatalf("loop 1: %d attempts, want 2:\n%s", len(exp.Attempts), exp.Format())
	}
	fail := exp.Attempts[0]
	if fail.II != 14 || fail.OK {
		t.Errorf("loop 1 attempt 0 = II=%d OK=%v, want II=14 FAIL", fail.II, fail.OK)
	}
	if fail.Cause.Resource != machine.ResFAdd {
		t.Errorf("loop 1 II=14 contended resource = %v, want FAdd", fail.Cause.Resource)
	}
	if fail.NodeDesc == "" {
		t.Error("loop 1 failure does not name the failing op")
	}

	// Third sweep (loop 3): floor 16, misses four candidates on the
	// memory read port and then the adder before settling at 20.
	exp = loopExplain(t, rep, 3)
	if exp.MII != 16 || exp.Achieved != 20 {
		t.Errorf("loop 3 MII/Achieved = %d/%d, want 16/20", exp.MII, exp.Achieved)
	}
	if got := exp.Bound(); got != "resource" {
		t.Errorf("loop 3 Bound() = %q, want resource", got)
	}
	for _, a := range exp.Attempts[:len(exp.Attempts)-1] {
		if a.OK {
			t.Errorf("loop 3 II=%d unexpectedly ok before the accepted interval", a.II)
			continue
		}
		if r := a.Cause.Resource; r != machine.ResMemRd && r != machine.ResFAdd {
			t.Errorf("loop 3 II=%d contended resource = %v, want MemRd or FAdd", a.II, r)
		}
	}
	if last := exp.Attempts[len(exp.Attempts)-1]; !last.OK || last.II != 20 {
		t.Errorf("loop 3 final attempt = II=%d OK=%v, want II=20 ok", last.II, last.OK)
	}

	// The outer loops of the three sweeps never reach the II search: each
	// is list-scheduled with its inner loop reduced, and its report says
	// that, not the reason the search was skipped.
	for _, id := range []int{0, 2, 4} {
		exp := loopExplain(t, rep, id)
		if !strings.Contains(exp.PreFailure, "reduced inner loops") {
			t.Errorf("loop %d PreFailure = %q, want the overlapped nest's reason", id, exp.PreFailure)
		}
	}
}
