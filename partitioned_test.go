package softpipe

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/workloads"
)

func buildKernel(t *testing.T, id int) *Program {
	t.Helper()
	for _, k := range workloads.Livermore() {
		if k.ID == id {
			p, err := k.Build()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	t.Fatalf("kernel %d not in corpus", id)
	return nil
}

func TestCompilePartitionedK1(t *testing.T) {
	p := buildKernel(t, 1)
	ao, err := CompilePartitioned(p, Machines(Warp(), 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ao.Width() != 2 {
		t.Fatalf("width %d", ao.Width())
	}
	if err := ao.Verify(nil); err != nil {
		t.Fatal(err)
	}
	res, err := ao.RunArray(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CellStats) != 2 {
		t.Fatalf("cell stats %v", res.CellStats)
	}
	for i, cs := range res.CellStats {
		if cs.II <= 0 {
			t.Errorf("cell %d II = %d", i, cs.II)
		}
	}
	// §4.1: after the setup skew, a balanced array never stalls — each
	// cell's stall total must stay a small fraction of the wall clock.
	for i, cs := range res.CellStats {
		if cs.StallCycles > res.Cycles/2 {
			t.Errorf("cell %d stalled %d of %d cycles", i, cs.StallCycles, res.Cycles)
		}
	}
}

func TestCompileSourcePartitionedRejectsShapes(t *testing.T) {
	src := `program two;
const n = 8;
var a: array [0..7] of real; i: int;
begin
  for i := 0 to n-1 do a[i] := a[i] + 1.0;
  for i := 0 to n-1 do a[i] := a[i] * 2.0;
end.`
	_, err := CompileSourcePartitioned(src, Machines(Warp(), 2), Options{})
	if err == nil || !strings.Contains(err.Error(), "more than one top-level loop") {
		t.Fatalf("expected shape rejection, got %v", err)
	}
}

// TestCompilePartitionedHonorsCtx: the planner, not just the per-cell
// compiles after it, gives up on a done context — k7 on four cells is
// the corpus's widest split search.
func TestCompilePartitionedHonorsCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompilePartitioned(buildKernel(t, 7), Machines(Warp(), 4), Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "split search aborted") {
		t.Errorf("%v: the planner ran to completion and a cell compile noticed the context", err)
	}
}

// TestCompilePartitionedTailAndRuntimeCount: the partitioner's post-loop
// tail and a loop counted by a run-time register, each on 2 and 3 cells.
// The array verifies; the tail (t := s * 2.0 after a loop summing into s)
// sits on exactly one cell, the one owning t; and every cell, all of them
// looping, sets up the count (n := 150) its loop reads.
func TestCompilePartitionedTailAndRuntimeCount(t *testing.T) {
	const tail = `program saxpytail;
const n = 200;
var x, y: array [0..199] of real;
    a, s, t: real;
    i: int;
begin
  a := 3.0;
  s := 0.0;
  for i := 0 to n-1 do begin
    y[i] := y[i] + a * x[i];
    s := s + y[i];
  end;
  t := s * 2.0;
end.`
	const count = `program saxpycount;
var x, y: array [0..199] of real;
    a: real;
    i, n: int;
begin
  a := 3.0;
  n := 150;
  for i := 0 to n-1 do
    y[i] := y[i] + a * x[i];
end.`
	for _, cells := range []int{2, 3} {
		ao, err := CompileSourcePartitioned(tail, Machines(Warp(), cells), Options{})
		if err != nil {
			t.Fatalf("tail, %d cells: %v", cells, err)
		}
		if err := ao.Verify(nil); err != nil {
			t.Fatalf("tail, %d cells: %v", cells, err)
		}
		var with []int
		for i, f := range ao.Plan.Fragments {
			if _, after := splitAtLoop(t, f); len(after) > 0 {
				with = append(with, i)
			}
		}
		if len(with) != 1 || with[0] != ao.Plan.ResultOwner["t"] {
			t.Errorf("tail, %d cells: post-loop code on cells %v, want exactly the owner of t (cell %d)", cells, with, ao.Plan.ResultOwner["t"])
		}

		ao, err = CompileSourcePartitioned(count, Machines(Warp(), cells), Options{})
		if err != nil {
			t.Fatalf("count, %d cells: %v", cells, err)
		}
		if err := ao.Verify(nil); err != nil {
			t.Fatalf("count, %d cells: %v", cells, err)
		}
		for i, f := range ao.Plan.Fragments {
			before, _ := splitAtLoop(t, f)
			l := loopOf(f)
			if l.CountReg == ir.NoReg || !slices.ContainsFunc(before, func(o *ir.Op) bool { return o.Dst == l.CountReg }) {
				t.Errorf("count, %d cells: cell %d's loop count %v is not set up before its loop", cells, i, l.CountReg)
			}
		}
	}
}

// splitAtLoop is fragment f's top-level ops before and after its one loop.
func splitAtLoop(t *testing.T, f *ir.Program) (before, after []*ir.Op) {
	t.Helper()
	if loopOf(f) == nil {
		t.Fatalf("%s has no loop", f.Name)
	}
	seen := false
	for _, st := range f.Body.Stmts {
		switch st := st.(type) {
		case *ir.LoopStmt:
			seen = true
		case *ir.OpStmt:
			if seen {
				after = append(after, st.Op)
			} else {
				before = append(before, st.Op)
			}
		}
	}
	return before, after
}

// loopOf is fragment f's top-level loop, or nil.
func loopOf(f *ir.Program) *ir.LoopStmt {
	for _, st := range f.Body.Stmts {
		if l, ok := st.(*ir.LoopStmt); ok {
			return l
		}
	}
	return nil
}
