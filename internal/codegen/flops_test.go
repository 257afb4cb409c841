package codegen_test

import (
	"strings"
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/workloads"
)

// TestReducedLoopReportsFlops: a pipelined inner loop emitted through
// loop reduction must report its flops like one emitted on the spot — the
// serving layer turns Flops·ClockMHz/II into est_mflops, and a zero there
// reads as "this loop does no arithmetic".
func TestReducedLoopReportsFlops(t *testing.T) {
	p, err := lang.Compile(`
program nestscale;
var a, c: array [0..11] of array [0..39] of real;
    s: real;
    i, j: int;
begin
  s := 1.5;
  for i := 0 to 11 do
    for j := 0 to 39 do
      c[i][j] := a[i][j]*s + 2.0;
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := codegen.Compile(p, machine.Warp(), codegen.Options{VerifyEmitted: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 2 {
		t.Fatalf("got %d loop reports, want inner + outer", len(rep.Loops))
	}
	inner, outer := rep.Loops[0], rep.Loops[1]
	if !strings.Contains(outer.Reason, "reduced inner loops") {
		t.Fatalf("outer loop did not go through loop reduction: %+v", outer)
	}
	if !inner.Pipelined || inner.II != 1 || inner.Flops != 2 {
		t.Errorf("inner loop: pipelined=%v II=%d flops=%d, want pipelined at II=1 with 2 flops (10 MFLOPS on warp)",
			inner.Pipelined, inner.II, inner.Flops)
	}
	if inner.TripCount != 40 || inner.BodyOps == 0 || inner.HasCond {
		t.Errorf("inner loop header: trip=%d bodyOps=%d hasCond=%v", inner.TripCount, inner.BodyOps, inner.HasCond)
	}
}

// TestPipelinedLoopsReportFlops sweeps the corpus: whichever path emitted
// a pipelined loop, a body that performs floating-point work reports it.
func TestPipelinedLoopsReportFlops(t *testing.T) {
	m := machine.Warp()
	var progs []*ir.Program
	for _, sp := range workloads.Suite() {
		progs = append(progs, sp.Prog)
	}
	for _, k := range workloads.Livermore() {
		p, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, a := range workloads.Apps() {
		p, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, seed := range workloads.CorpusSeeds() {
		progs = append(progs, workloads.RandomProgram(seed))
	}
	pipelined, reduced := 0, 0
	for _, p := range progs {
		_, rep, err := codegen.Compile(p, m, codegen.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		bodies := map[int]*ir.Block{}
		nested := map[int]bool{}
		p.Body.Walk(func(s ir.Stmt) bool {
			if l, ok := s.(*ir.LoopStmt); ok {
				bodies[l.ID] = l.Body
				l.Body.Walk(func(in ir.Stmt) bool {
					if il, ok := in.(*ir.LoopStmt); ok {
						nested[il.ID] = true
					}
					return true
				})
			}
			return true
		})
		for _, lr := range rep.Loops {
			if !lr.Pipelined {
				continue
			}
			pipelined++
			if nested[lr.LoopID] {
				reduced++
			}
			hasFlop := false
			bodies[lr.LoopID].Walk(func(s ir.Stmt) bool {
				if o, ok := s.(*ir.OpStmt); ok && m.Desc(o.Op.Class).Flops > 0 {
					hasFlop = true
				}
				return true
			})
			if hasFlop && lr.Flops <= 0 {
				t.Errorf("%s loop %d: pipelined (II=%d) with floating-point ops but Flops = %d", p.Name, lr.LoopID, lr.II, lr.Flops)
			}
		}
	}
	if pipelined < 50 || reduced == 0 {
		t.Fatalf("corpus reached %d pipelined loops, %d of them nested: the sweep no longer covers loop reduction", pipelined, reduced)
	}
}

// TestBodyOpsCountsThroughControlFlow: BodyOps is the size of the body
// tree, not of its straight-line prefix — a pipelined conditional loop and
// a loop around an inner loop report their operations like a straight
// body does.
func TestBodyOpsCountsThroughControlFlow(t *testing.T) {
	compile := func(src string) []codegen.LoopReport {
		t.Helper()
		p, err := lang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := codegen.Compile(p, machine.Warp(), codegen.Options{VerifyEmitted: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Loops
	}
	straight := compile(`
program scale;
var a, c: array [0..299] of real;
    i: int;
begin
  for i := 0 to 299 do
    c[i] := a[i] * 1.5;
end.
`)
	if len(straight) != 1 || straight[0].HasCond {
		t.Fatalf("straight body: %+v", straight)
	}
	// Address arithmetic, a load, a multiply, a store: what Body.Ops()
	// returned before, and still the count.
	plain := straight[0].BodyOps
	if plain < 4 {
		t.Fatalf("straight body reports %d ops", plain)
	}

	cond := compile(`
program clip;
var a, c: array [0..299] of real;
    i: int;
begin
  for i := 0 to 299 do
    if a[i] > 0.0 then
      c[i] := a[i] * 1.5
    else
      c[i] := a[i] + 1.5;
end.
`)
	if len(cond) != 1 || !cond[0].Pipelined || !cond[0].HasCond {
		t.Fatalf("conditional loop: %+v", cond)
	}
	// The condition plus two arms, each about a straight body's worth.
	if cond[0].BodyOps <= plain {
		t.Errorf("pipelined conditional loop reports %d body ops; the straight body alone has %d", cond[0].BodyOps, plain)
	}

	nest := compile(`
program nestscale;
var a, c: array [0..11] of array [0..39] of real;
    i, j: int;
begin
  for i := 0 to 11 do
    for j := 0 to 39 do
      c[i][j] := a[i][j] * 1.5;
end.
`)
	if len(nest) != 2 {
		t.Fatalf("nest: %d loop reports, want inner + outer", len(nest))
	}
	inner, outer := nest[0], nest[1]
	if inner.BodyOps < 4 || outer.BodyOps < inner.BodyOps {
		t.Errorf("nest: inner body %d ops, outer body %d; the outer body contains the inner", inner.BodyOps, outer.BodyOps)
	}
}
