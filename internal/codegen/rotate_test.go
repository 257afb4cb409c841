package codegen_test

import (
	"slices"
	"strings"
	"testing"

	"softpipe"
	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/trace"
	"softpipe/internal/vliw"
	"softpipe/internal/workloads"
)

// fillInvariant stores s into a whole row per outer iteration and then
// bumps s by a 7-cycle add.  The inner loop is two rows, the pass-count
// load and a one-row kernel repeated 64 times, and it reads s in every
// pass: the add may not land before the last pass has read it.
const fillInvariant = `
program lat;
var a: array [0..7] of array [0..63] of real;
    s: real;
    i, j: int;
begin
  s := 1.0;
  for i := 0 to 7 do begin
    for j := 0 to 63 do
      a[i][j] := s;
    s := s + 2.0;
  end;
end.
`

// TestReducedLoopHoldsLaterWriters: a reduced loop's rows are compressed
// time, so a write that follows it in the outer body may not issue before
// its repeated kernel ends — not merely land after the kernel's one row.
// Timed in rows, the add issued five rows before the inner loop and landed
// during the kernel's second pass, and every row after the first stored 3.
func TestReducedLoopHoldsLaterWriters(t *testing.T) {
	p := source(t, fillInvariant)
	for _, name := range []string{"warp", "wide2", "gen:fa2,fm2,mem2,lat7/7/3,fr62,rot"} {
		m, err := machine.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := softpipe.Compile(p, m, softpipe.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := obj.Verify(); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, obj.Disassemble())
		}
		instrs := obj.Binary.Instrs
		kernelEnd := slices.IndexFunc(instrs, func(in vliw.Instr) bool {
			return in.Ctl.Kind == vliw.CtlDBNZ && slices.ContainsFunc(in.Ops, func(op vliw.SlotOp) bool { return op.Class == machine.ClassStore })
		})
		add := slices.IndexFunc(instrs, func(in vliw.Instr) bool {
			return slices.ContainsFunc(in.Ops, func(op vliw.SlotOp) bool { return op.Class == machine.ClassFAdd })
		})
		if kernelEnd < 0 || add < 0 {
			t.Fatalf("%s: no kernel loop-back storing a, or no add:\n%s", name, obj.Disassemble())
		}
		if add <= kernelEnd {
			t.Errorf("%s: the add of s issues @%d, inside or before the kernel ending @%d:\n%s", name, add, kernelEnd, obj.Disassemble())
		}
	}
}

// rowScale scales row i of c by a[i], loaded before the row's loop: on the
// last trip a rotated load would read a[8].
const rowScale = `
program rowscale;
var a: array [0..7] of real;
    c: array [0..7] of array [0..31] of real;
    t: real;
    i, j: int;
begin
  for i := 0 to 7 do begin
    t := a[i];
    for j := 0 to 31 do
      c[i][j] := c[i][j] * t;
  end;
end.
`

// twoInner is shape/nest-two-inner of the corpus: two inner loops, the
// second reading what the first wrote, with scalar work between them.
const twoInner = `
program nesttwo;
var a, b, c: array [0..7] of array [0..47] of real;
    r: array [0..7] of real;
    s: real;
    i, j: int;
begin
  for i := 0 to 7 do begin
    s := r[i]*0.5;
    for j := 0 to 47 do
      b[i][j] := a[i][j]*s + 1.0;
    s := s + 2.0;
    for j := 0 to 44 do
      c[i][j] := b[i][j]*s - a[i][j+1];
    r[i] := s;
  end;
end.
`

func source(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := softpipe.ParseSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// staleRowBase builds an outer body whose load reads the row base of the
// previous iteration and only then recomputes it: the pure recomputation
// may not move in front of the load that reads the old value.
func staleRowBase() *ir.Program {
	b := ir.NewBuilder("stale")
	mat := b.Array("m", ir.KindFloat, 16*32)
	b.Array("out", ir.KindFloat, 16*32)
	b.Array("rows", ir.KindFloat, 16)
	for i := range 16 * 32 {
		mat.InitF = append(mat.InitF, float64(i%7)*0.5+float64(i/32))
	}
	scale := b.FConst(0.25)
	width := b.IConst(32)
	base := b.P.NewReg(ir.KindInt)
	b.IAssign(base, b.IConst(0))
	b.ForN(16, func(outer *ir.LoopCtx) {
		outPtr := outer.Pointer(0, 1)
		first := b.Load("m", base, nil)
		b.IAssign(base, b.IMul(outer.IV(), width))
		b.ForN(32, func(inner *ir.LoopCtx) {
			p := inner.PointerFrom(base, 1)
			q := inner.PointerFrom(base, 1)
			b.Store("out", q, b.FMul(b.Load("m", p, nil), scale), nil)
		})
		b.Store("rows", outPtr, b.FMul(first, scale), ir.Aff(outer.ID, 1, 0))
	})
	return b.P
}

// workload builds the Livermore kernel or application of that name.
func workload(t *testing.T, name string) *ir.Program {
	t.Helper()
	builds := map[string]func() (*ir.Program, error){}
	for _, k := range workloads.Livermore() {
		builds[k.Name] = k.Build
	}
	for _, a := range workloads.Apps() {
		builds[a.Name] = a.Build
	}
	build, ok := builds[name]
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	p, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func rotated(rep *codegen.Report) (n int) {
	for _, lr := range rep.Loops {
		n += lr.Rotated
	}
	return n
}

// TestVerifierKillsWrongRotations: every condition of rotating pure setup
// across an outer loop-back, and the segment rule of the reduced inner
// loop it rotates into, is there because the object is wrong without it,
// and the verifier says so.  Each program compiles and verifies as built;
// with the one condition waived more operations rotate (for the segment
// rule: the outer schedule moves a writer in front of a repeated kernel)
// and Object.Verify refuses the object.
func TestVerifierKillsWrongRotations(t *testing.T) {
	for _, tc := range []struct {
		name, machine string
		waive         codegen.Waiver
		prog          *ir.Program
	}{
		{"a load runs on the dead last trip", "warp", codegen.RotPure, source(t, rowScale)},
		{"a write to a variable read after the loop", "warp", codegen.RotLive, workload(t, "k21-matmul")},
		{"a move past a staying load of the destination", "warp", codegen.RotOrder, staleRowBase()},
		{"a later writer timed against the compressed kernel", "warp", codegen.RotSegments, source(t, fillInvariant)},
		{"a rotated writer timed against the compressed kernel", "wide2", codegen.RotSegments, source(t, twoInner)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := machine.Parse(tc.machine)
			if err != nil {
				t.Fatal(err)
			}
			obj, err := softpipe.Compile(tc.prog, m, softpipe.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := obj.Verify(); err != nil {
				t.Fatalf("as built: %v", err)
			}
			legal := rotated(obj.Report)

			restore := codegen.Waive(tc.waive)
			obj, err = softpipe.Compile(tc.prog, m, softpipe.Options{})
			restore()
			if err != nil {
				t.Fatalf("waived: the compile itself failed, nothing reached the verifier: %v", err)
			}
			if wrong := rotated(obj.Report); tc.waive != codegen.RotSegments && wrong <= legal {
				t.Fatalf("waived: rotated %d, as built %d — the condition was not what held the operation", wrong, legal)
			}
			if _, err := obj.Verify(); err == nil {
				t.Errorf("waived: the verifier accepted the object\n%s", obj.Disassemble())
			} else {
				t.Logf("waived: %v", err)
			}
		})
	}
}

// TestRotationReported: an outer body that rotates says how many
// operations moved (LoopReport.Rotated, the codegen.rotated_ops counter)
// and its explain report gives the period before and after; one where the
// body in program order is shorter reports 0 and says why.
func TestRotationReported(t *testing.T) {
	for _, tc := range []struct {
		name    string
		prog    *ir.Program
		rotated bool
		note    string
	}{
		{"k21", workload(t, "k21-matmul"), true, "outer body rotated: 9 setup operations run one iteration early, period 51 → 44"},
		{"warshall", workload(t, "warshall"), false, "outer body not rotated: rotated period"},
	} {
		tr := trace.New(tc.name)
		_, rep, err := codegen.Compile(tc.prog, machine.Warp(), codegen.Options{Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		var counted int64
		for _, ev := range tr.Events() {
			if ev.Name == "codegen.rotated_ops" {
				counted += ev.Args[0].Val
			}
		}
		var notes []string
		for _, lr := range rep.Loops {
			notes = append(notes, lr.Explain.Notes...)
		}
		if got := rotated(rep); (got > 0) != tc.rotated || int64(got) != counted {
			t.Errorf("%s: rotated %d, counter %d, want rotation %v", tc.name, got, counted, tc.rotated)
		}
		if !slices.ContainsFunc(notes, func(n string) bool { return strings.HasPrefix(n, tc.note) }) {
			t.Errorf("%s: no explain note %q in %q", tc.name, tc.note, notes)
		}
	}
}
