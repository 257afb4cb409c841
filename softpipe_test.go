package softpipe_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"softpipe"
	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

const apiSrc = `
program api;
const n = 64;
var x, y: array [0..63] of real;
    total: real;
    i: int;
begin
  total := 0.0;
  for i := 0 to n-1 do begin
    y[i] := y[i] + 2.0 * x[i];
    total := total + y[i];
  end;
end.
`

func buildAPIProgram(t *testing.T) *softpipe.Program {
	t.Helper()
	p, err := softpipe.ParseSource(apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	xs := p.Array("x")
	ys := p.Array("y")
	for i := 0; i < 64; i++ {
		xs.InitF = append(xs.InitF, float64(i))
		ys.InitF = append(ys.InitF, 1)
	}
	return p
}

func TestPublicAPIRoundTrip(t *testing.T) {
	p := buildAPIProgram(t)
	obj, err := softpipe.Compile(p, softpipe.Warp(), softpipe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := obj.Verify()
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := 0.0
	for i := 0; i < 64; i++ {
		wantTotal += 1 + 2*float64(i)
	}
	if res.State.Scalars["total"] != wantTotal {
		t.Errorf("total = %v, want %v", res.State.Scalars["total"], wantTotal)
	}
	if res.CellMFLOPS <= 0 || res.ArrayMFLOPS != 10*res.CellMFLOPS {
		t.Errorf("MFLOPS accounting wrong: %v / %v", res.CellMFLOPS, res.ArrayMFLOPS)
	}
	if len(obj.Report.Loops) != 1 || !obj.Report.Loops[0].Pipelined {
		t.Errorf("loop report: %+v", obj.Report.Loops)
	}
	dis := obj.Disassemble()
	for _, want := range []string{"fadd", "fmul", "dbnz", "halt"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}

func TestPublicAPIBaselineSlower(t *testing.T) {
	pipe, err := softpipe.Compile(buildAPIProgram(t), softpipe.Warp(), softpipe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := softpipe.Compile(buildAPIProgram(t), softpipe.Warp(), softpipe.Options{Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pipe.Run()
	if err != nil {
		t.Fatal(err)
	}
	br, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if pr.Cycles >= br.Cycles {
		t.Errorf("pipelined %d cycles, baseline %d", pr.Cycles, br.Cycles)
	}
	if pr.State.Scalars["total"] != br.State.Scalars["total"] {
		t.Errorf("modes disagree on results")
	}
}

func TestPublicAPITrace(t *testing.T) {
	obj, err := softpipe.Compile(buildAPIProgram(t), softpipe.Warp(), softpipe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := obj.Trace(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 10 {
		t.Errorf("trace lines = %d, want 10", n)
	}
}

// TestPublicAPIAblationKnobs: the baseline option and every ablation
// CompileWith reaches (the digest's option points) compile and verify.
func TestPublicAPIAblationKnobs(t *testing.T) {
	for _, o := range digestOptions {
		obj, err := o.compile(buildAPIProgram(t), softpipe.Warp())
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		if _, err := obj.Verify(); err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
	}
}

func TestPublicAPIBuilder(t *testing.T) {
	b := softpipe.NewBuilder("frombuilder")
	b.Array("v", ir.KindFloat, 32)
	c := b.FConst(3)
	b.ForN(32, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		x := b.Load("v", p, ir.Aff(l.ID, 1, 0))
		b.Store("v", p, b.FMul(x, c), ir.Aff(l.ID, 1, 0))
	})
	st, err := softpipe.Interpret(b.P)
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	obj, err := softpipe.Compile(b.P, softpipe.Warp(), softpipe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestScalarAndWideMachines(t *testing.T) {
	for _, m := range []*softpipe.Machine{softpipe.Scalar(), softpipe.Wide(2), softpipe.Wide(4)} {
		obj, err := softpipe.Compile(buildAPIProgram(t), m, softpipe.Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if _, err := obj.Verify(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
	}
}

// TestUnrollInnerOption: the `unroll` directive on the FIR's tap loop
// collapses the nest to one pipelined loop, which beats loop reduction of
// the same source without it by more than 2×.
func TestUnrollInnerOption(t *testing.T) {
	src := `
program fir;
const n = 64;
var a: array [0..67] of real;
    w: array [0..3] of real;
    c: array [0..63] of real;
    s: real;
    i, j: int;
begin
  for i := 0 to n-1 do begin
    s := 0.0;
    unroll for j := 0 to 3 do
      s := s + a[i+j]*w[j];
    c[i] := s;
  end;
end.
`
	compile := func(src string) *softpipe.Object {
		t.Helper()
		p, err := softpipe.ParseSource(src)
		if err != nil {
			t.Fatal(err)
		}
		a, wv := p.Array("a"), p.Array("w")
		for i := 0; i < 68; i++ {
			a.InitF = append(a.InitF, float64(i%9)-4)
		}
		wv.InitF = []float64{0.25, 0.5, 0.75, 1}
		obj, err := softpipe.Compile(p, softpipe.Warp(), softpipe.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	unrolled, reduced := compile(src), compile(strings.Replace(src, "unroll ", "", 1))
	ur, err := unrolled.Verify()
	if err != nil {
		t.Fatal(err)
	}
	rr, err := reduced.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(unrolled.Report.Loops) != 1 || !unrolled.Report.Loops[0].Pipelined {
		t.Fatalf("nest did not collapse to one pipelined loop: %+v", unrolled.Report.Loops)
	}
	if ur.Cycles*2 > rr.Cycles {
		t.Errorf("outer-loop pipelining should dominate: %d vs %d cycles", ur.Cycles, rr.Cycles)
	}
}

// TestUnrollSpellingsAgree: the `unroll` directive on the FIR's tap loop
// (testdata/fir.w2, the examples/outerloop source) and the comparison
// field codegen.Options.UnrollInnerTrip on the same source without it
// compile to the same code and the same loop reports, on Warp and on the
// first rotating grid point.
func TestUnrollSpellingsAgree(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "fir.w2"))
	if err != nil {
		t.Fatal(err)
	}
	directive, err := softpipe.ParseSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := softpipe.ParseSource(strings.Replace(string(src), "unroll ", "", 1))
	if err != nil {
		t.Fatal(err)
	}
	render := func(obj *softpipe.Object) string {
		var b strings.Builder
		b.WriteString(obj.Disassemble())
		fmt.Fprintf(&b, "fregs %d, iregs %d\n", obj.Report.FRegsUsed, obj.Report.IRegsUsed)
		for _, lr := range obj.Report.Loops {
			explain := lr.Explain.Format()
			lr.Explain = nil
			fmt.Fprintf(&b, "%+v\n%s", lr, explain)
		}
		return b.String()
	}
	machines := digestMachines(t)
	rot := slices.IndexFunc(machines, func(m *softpipe.Machine) bool { return m.RotatingRegs })
	for _, m := range []*softpipe.Machine{machines[0], machines[rot]} {
		byDirective, err := softpipe.Compile(directive, m, softpipe.Options{})
		if err != nil {
			t.Fatal(err)
		}
		byField, err := softpipe.CompileWith(plain, m, softpipe.Options{}, func(o *codegen.Options) { o.UnrollInnerTrip = 4 })
		if err != nil {
			t.Fatal(err)
		}
		if len(byDirective.Report.Loops) != 1 {
			t.Fatalf("%s: the directive did not collapse the nest: %d loops", m.Name, len(byDirective.Report.Loops))
		}
		if a, b := render(byDirective), render(byField); a != b {
			t.Errorf("%s: the two spellings compile differently\n--- unroll directive ---\n%s--- UnrollInnerTrip 4 ---\n%s", m.Name, a, b)
		}
	}
}

func TestPublicArrayAPI(t *testing.T) {
	src := `
program relay;
var i: int;
begin
  for i := 0 to 49 do
    send(receive() * 2.0);
end.
`
	obj, err := softpipe.CompileSource(src, softpipe.Warp(), softpipe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float64, 50)
	for i := range input {
		input[i] = float64(i)
	}
	res, err := softpipe.RunArray([]*softpipe.Object{obj, obj, obj}, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 50 {
		t.Fatalf("output %d values", len(res.Output))
	}
	for i, v := range res.Output {
		if v != float64(i)*8 {
			t.Fatalf("out[%d] = %v, want %v", i, v, float64(i)*8)
		}
	}
	if res.MFLOPS <= 0 {
		t.Error("no MFLOPS reported")
	}
}

// TestWithFloatData: each per-cell copy runs on its own data, alone and
// chained, though the object it was copied from had run first and holds
// a decoded program with its own data.
func TestWithFloatData(t *testing.T) {
	src := `
program scale;
var w: array [0..0] of real;
    i: int;
begin
  for i := 0 to 9 do
    send(receive() * w[0]);
end.
`
	obj, err := softpipe.CompileSource(src, softpipe.Warp(), softpipe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	check := func(name string, cells []*softpipe.Object, want float64) {
		t.Helper()
		res, err := softpipe.RunArray(cells, input)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Output) != len(input) {
			t.Fatalf("%s: %d outputs, want %d", name, len(res.Output), len(input))
		}
		for i, v := range res.Output {
			if v != want {
				t.Fatalf("%s: out[%d] = %v, want %v", name, i, v, want)
			}
		}
	}
	check("original", []*softpipe.Object{obj}, 0)
	c1 := obj.WithFloatData(map[string][]float64{"w": {2}})
	c2 := obj.WithFloatData(map[string][]float64{"w": {3}})
	check("w=2", []*softpipe.Object{c1}, 2)
	check("w=3", []*softpipe.Object{c2}, 3)
	check("chained", []*softpipe.Object{c1, c2}, 6)
}

// TestWithFloatDataKeepsTracer: a per-cell copy is the same object with
// other data, so its runs and verifications land in the tracer the
// compile was given, like the original's.
func TestWithFloatDataKeepsTracer(t *testing.T) {
	tr := softpipe.NewTracer("cells")
	obj, err := softpipe.CompileSource(apiSrc, softpipe.Warp(), softpipe.Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	// Zero data is what the source declares, so Verify's comparison with
	// the reference interpreter still holds for the copy.
	cell := obj.WithFloatData(map[string][]float64{"x": make([]float64, 64)})
	if _, ok := tr.PhaseTotals()["sim.run"]; ok {
		t.Fatal("sim.run span before any run")
	}
	if _, err := cell.Verify(); err != nil {
		t.Fatal(err)
	}
	after := tr.PhaseTotals()
	for _, span := range []string{"sim.run", "verify"} {
		if _, ok := after[span]; !ok {
			t.Errorf("no %q span from a WithFloatData copy: the copy dropped the tracer", span)
		}
	}
}

// TestCompileRejectsMalformedIR: ir.Program.Validate is total, so a
// malformed hand-built program is a compile error naming the op or
// statement — never an index panic in the validator or, later, the
// emitter: every register of every op, condition, loop count and result
// goes through one range test.
func TestCompileRejectsMalformedIR(t *testing.T) {
	op := func(p *ir.Program, c machine.Class, dst ir.VReg, src ...ir.VReg) {
		o := p.NewOp(c)
		o.Dst, o.Src = dst, src
		p.Body.Stmts = append(p.Body.Stmts, &ir.OpStmt{Op: o})
	}
	cases := []struct {
		name  string
		build func(p *ir.Program) // p starts with r0 float, r1 int
		want  string
	}{
		{"iselect without destination", func(p *ir.Program) {
			op(p, machine.ClassISelect, ir.NoReg, 1, 0, 0)
		}, "op 0 (iselect): bad dest register r-1"},
		{"loop count register out of range", func(p *ir.Program) {
			p.RegKind = nil
			p.Body.Stmts = append(p.Body.Stmts, &ir.LoopStmt{CountReg: 7, Body: &ir.Block{}})
		}, "loop 0: bad count register r7"},
		{"operand below NoReg", func(p *ir.Program) {
			op(p, machine.ClassFNeg, 0, -2)
		}, "op 0 (fneg): bad source 0 register r-2"},
		{"result register out of range", func(p *ir.Program) {
			p.Results = []ir.ScalarResult{{Name: "total", Reg: 9}}
		}, "result total: bad register r9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := ir.NewProgram("bad")
			p.NewReg(ir.KindFloat)
			p.NewReg(ir.KindInt)
			tc.build(p)
			_, err := softpipe.Compile(p, softpipe.Warp(), softpipe.Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestHugeBodyIsNotAnalysed: a loop body far beyond the §4.2 pipelining
// threshold is turned away on its locally compacted length alone, before
// the dependence analysis and a search whose longest-path sweeps are
// cubic in a recurrence this long — so 3,000 chained statements compile to
// unpipelined code in a fraction of a second with no deadline to save
// them.
func TestHugeBodyIsNotAnalysed(t *testing.T) {
	src := "program huge;\nvar a: array [0..0] of real;\n    s: real;\n    i: int;\nbegin\n  for i := 0 to 9 do begin\n" +
		strings.Repeat("    s := s + a[0];\n", 3000) + "  end;\nend.\n"
	var tr *softpipe.Tracer
	var obj *softpipe.Object
	var took time.Duration
	// Wall clock on a shared host: a descheduled process misses the bound
	// once, a body that reaches the search misses it every time.
	for attempt := 0; attempt < 3; attempt++ {
		tr = softpipe.NewTracer("huge")
		start := time.Now()
		var err error
		if obj, err = softpipe.CompileSource(src, softpipe.Warp(), softpipe.Options{Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		if took = time.Since(start); took <= 2*time.Second {
			break
		}
	}
	if took > 2*time.Second {
		t.Errorf("compile took %v, want under 2s", took)
	}
	if _, analysed := tr.PhaseTotals()["depgraph.analyze"]; analysed {
		t.Error("the dependence analysis ran on a body beyond the pipelining threshold")
	}
	loops := obj.Report.Loops
	if len(loops) != 1 || loops[0].Pipelined || !strings.Contains(loops[0].Reason, "beyond pipelining threshold") {
		t.Fatalf("want one loop refused on the body-length threshold, got %+v", loops)
	}
	if _, err := obj.Verify(); err != nil {
		t.Fatal(err)
	}
}
