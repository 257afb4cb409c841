package hier_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"softpipe"
	"softpipe/internal/depgraph"
	"softpipe/internal/hier"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// ramp presets every float array to 0, 0.25, 0.5, … (both sides of the
// 0.5 the test programs compare against, different in every element) and
// every int array to 0, 70, 140, … (in and out of a 100-element array).
func ramp(p *ir.Program) *ir.Program {
	for _, a := range p.Arrays {
		if a.Kind == ir.KindFloat {
			a.InitF = make([]float64, a.Size)
			for i := range a.InitF {
				a.InitF[i] = float64(i%7) * 0.25
			}
		} else {
			a.InitI = make([]int64, a.Size)
			for i := range a.InitI {
				a.InitI[i] = int64(i%3) * 70
			}
		}
	}
	return p
}

func source(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := softpipe.ParseSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return ramp(p)
}

// liveOut builds an arm whose only definition of t is read after the
// conditional (W2 text cannot say it: a named scalar is also defined by
// its declaration).  a[0] = 0 takes the arm in the first iteration, so t
// is written before it is first read; later iterations that skip the arm
// store the value of the last one that took it.
func liveOut() *ir.Program {
	b := ir.NewBuilder("liveout")
	b.Array("a", ir.KindFloat, 100)
	b.Array("c", ir.KindFloat, 100)
	half := b.FConst(0.5)
	t := b.P.NewReg(ir.KindFloat)
	b.ForN(96, func(l *ir.LoopCtx) {
		v := b.Load("a", l.Pointer(0, 1), ir.Aff(l.ID, 1, 0))
		b.If(b.FCmp(ir.PredLT, v, half), func() {
			b.FAddTo(t, v, half)
		}, func() {})
		b.Store("c", l.Pointer(0, 1), t, ir.Aff(l.ID, 1, 0))
	})
	return ramp(b.P)
}

// redefined builds the other case W2 text cannot say: an arm that writes
// the same temporary twice, each value stored before the next is made.
func redefined() *ir.Program {
	b := ir.NewBuilder("redefined")
	b.Array("a", ir.KindFloat, 100)
	b.Array("c", ir.KindFloat, 100)
	b.Array("d", ir.KindFloat, 100)
	half := b.FConst(0.5)
	b.ForN(96, func(l *ir.LoopCtx) {
		v := b.Load("a", l.Pointer(0, 1), ir.Aff(l.ID, 1, 0))
		b.If(b.FCmp(ir.PredGT, v, half), func() {
			t := b.FMul(v, v)
			b.Store("c", l.Pointer(0, 1), t, ir.Aff(l.ID, 1, 0))
			b.FAddTo(t, v, half)
			b.Store("d", l.Pointer(0, 1), t, ir.Aff(l.ID, 1, 0))
		}, func() {})
	})
	return ramp(b.P)
}

// TestVerifierKillsWrongLifts: every clause of the lifting predicate is
// there because the object is wrong without it, and the verifier says so.
// Each program sits on the illegal side of exactly one clause: as built
// it compiles, pipelines and verifies with the guarded operation left in
// its arm; with that one clause waived the operation is lifted (Hoisted
// grows) and Object.Verify refuses the object.
func TestVerifierKillsWrongLifts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		clause hier.Clause
		prog   *ir.Program
	}{
		{"destination read after the conditional", hier.ClauseInArm, liveOut()},
		{"load guarded by its own condition", hier.ClausePure, source(t, `
program guarded;
var a, c: array [0..99] of real;
    idx: array [0..99] of int;
    i, k: int;
begin
  for i := 0 to 95 do begin
    k := idx[i];
    if k < 100 then
      c[i] := a[k];
  end;
end.
`)},
		{"source redefined earlier in the arm", hier.ClauseSources, source(t, `
program stale;
var a, b, c: array [0..99] of real;
    x, y: real;
    i: int;
begin
  for i := 0 to 95 do begin
    x := a[i];
    if x > 0.5 then begin
      y := b[i];
      c[i] := y*2.0 + x;
    end;
  end;
end.
`)},
		{"destination with a second definition", hier.ClauseOneDef, redefined()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.Warp()
			obj, err := softpipe.Compile(tc.prog, m, softpipe.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := obj.Verify(); err != nil {
				t.Fatalf("as built: %v", err)
			}
			legal := obj.Report.Loops[0]
			if !legal.Pipelined {
				t.Fatalf("as built the loop does not pipeline: %s", legal.Reason)
			}

			restore := hier.Waive(tc.clause)
			obj, err = softpipe.Compile(tc.prog, m, softpipe.Options{})
			restore()
			if err != nil {
				t.Fatalf("clause waived: the compile itself failed, nothing reached the verifier: %v", err)
			}
			wrong := obj.Report.Loops[0]
			if wrong.Hoisted <= legal.Hoisted {
				t.Fatalf("clause waived: hoisted %d, as built %d — the clause was not what held the operation", wrong.Hoisted, legal.Hoisted)
			}
			if _, err := obj.Verify(); err == nil {
				t.Errorf("clause waived: %d operations lifted (as built %d) and the verifier accepted the object", wrong.Hoisted, legal.Hoisted)
			} else {
				t.Logf("clause waived: %v", err)
			}
		})
	}
}

// loopOf returns the program's one top-level loop.
func loopOf(t *testing.T, p *ir.Program) *ir.LoopStmt {
	t.Helper()
	for _, s := range p.Body.Stmts {
		if l, ok := s.(*ir.LoopStmt); ok {
			return l
		}
	}
	t.Fatal("no loop")
	return nil
}

// shape renders a reduced body: an operation by its mnemonic, a construct
// as "if/<window>{then|else}" with its arms rendered the same way in issue
// order.
func shape(nodes []*depgraph.Node) string {
	var parts []string
	for _, n := range nodes {
		if n.Op != nil {
			parts = append(parts, n.Op.Class.String())
			continue
		}
		pl := n.Payload.(*hier.IfPayload)
		arm := func(placed []hier.Placed) string {
			placed = slices.Clone(placed)
			slices.SortStableFunc(placed, func(a, b hier.Placed) int { return a.Time - b.Time })
			ns := make([]*depgraph.Node, len(placed))
			for i, p := range placed {
				ns[i] = p.Node
			}
			return shape(ns)
		}
		parts = append(parts, fmt.Sprintf("if/%d{%s|%s}", n.Len, arm(pl.Then), arm(pl.Else)))
	}
	return strings.Join(parts, " ")
}

// TestReduceLiftsWhatIsPrivate: what leaves an arm, in what order, and
// what the window shrinks to — against the same body with its arms whole.
func TestReduceLiftsWhatIsPrivate(t *testing.T) {
	for _, tc := range []struct {
		name, src     string
		lifted, whole string
		hoisted       int
	}{
		{"a private chain leaves, the store stays; the other arm's too, in arm order", `
program chain;
var a, c: array [0..99] of real;
    x: real;
    i: int;
begin
  for i := 0 to 95 do begin
    x := a[i];
    if x > 0.5 then
      c[i] := (x*2.0 + 1.0)*x
    else
      c[i] := x + 1.5;
  end;
end.
`,
			"load fmov fcmp fmul fadd fmul fadd if/2{store|store} adradd adradd iadd",
			"load fmov fcmp if/23{fmul fadd fmul store|fadd store} adradd adradd iadd", 4},
		{"a nested arm's chain and its condition cascade out of both windows", `
program nested;
var a, c: array [0..99] of real;
    x: real;
    i: int;
begin
  for i := 0 to 95 do begin
    x := a[i];
    if x > 0.5 then begin
      if x*x > 2.0 then
        c[i] := x*x*3.0
      else
        c[i] := x*x - 1.0;
    end else
      c[i] := x + 1.5;
  end;
end.
`,
			"load fmov fcmp fmul fcmp fmul fmul fmul fsub fadd if/4{if/2{store|store}|store} adradd adradd iadd",
			"load fmov fcmp if/32{fmul fcmp if/16{fmul fmul store|fmul fsub store}|fadd store} adradd adradd iadd", 7},
		{"a write to a variable that lives outside the arm stays, with everything behind it", `
program liveout;
var a, c: array [0..99] of real;
    x, s: real;
    i: int;
begin
  s := 1.0;
  for i := 0 to 95 do begin
    x := a[i];
    if x > 0.5 then begin
      s := x*2.0 + s;
      c[i] := s*3.0;
    end;
  end;
end.
`,
			"load fmov fcmp fmul if/16{fadd fmul store|} adradd adradd iadd",
			"load fmov fcmp if/23{fmul fadd fmul store|} adradd adradd iadd", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := source(t, tc.src)
			l := loopOf(t, p)
			r := hier.NewReducer(p, machine.Warp())
			nodes, hoisted, err := r.Reduce(l.ID, l.Body, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := shape(nodes); got != tc.lifted || hoisted != tc.hoisted {
				t.Errorf("lifted: hoisted %d, want %d\n got %s\nwant %s", hoisted, tc.hoisted, got, tc.lifted)
			}
			whole, hoisted, err := r.Reduce(l.ID, l.Body, false)
			if err != nil {
				t.Fatal(err)
			}
			if got := shape(whole); got != tc.whole || hoisted != 0 {
				t.Errorf("whole arms: hoisted %d\n got %s\nwant %s", hoisted, got, tc.whole)
			}
			again, err := hier.BuildNodes(p, machine.Warp(), l.ID, l.Body)
			if err != nil || shape(again) != tc.lifted {
				t.Errorf("BuildNodes: %v\n got %s\nwant %s", err, shape(again), tc.lifted)
			}
		})
	}
}
