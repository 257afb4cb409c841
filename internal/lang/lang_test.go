package lang

import (
	"math"
	"strings"
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
)

// compileAndRunBoth lowers src, presets float arrays via init, interprets
// and simulates (pipelined), and requires identical states.
func compileAndRunBoth(t *testing.T, src string, init map[string][]float64) *ir.State {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for name, data := range init {
		a := p.Array(name)
		if a == nil {
			t.Fatalf("no array %q", name)
		}
		a.InitF = data
	}
	m := machine.Warp()
	want, err := ir.Run(p)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	for _, mode := range []codegen.Mode{codegen.ModePipelined, codegen.ModeUnpipelined} {
		prog, _, err := codegen.Compile(p, m, codegen.Options{Mode: mode})
		if err != nil {
			t.Fatalf("codegen mode %d: %v", mode, err)
		}
		got, _, err := sim.Run(prog, m)
		if err != nil {
			t.Fatalf("sim mode %d: %v", mode, err)
		}
		if d := want.Diff(got); d != "" {
			t.Fatalf("mode %d mismatch: %s", mode, d)
		}
	}
	return want
}

func ramp(n int, f func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, err := LexAll("for i := 0 to n-1 do x[i] := 2.5e1; { comment }")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Text)
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, "for i := 0 to n - 1 do x [ i ] := 2.5e1") {
		t.Errorf("unexpected token stream: %s", joined)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"program ; begin end.",
		"program p; begin x == 1; end.",
		"program p; var x: array[1..4] of real; begin end.",
		"program p; begin for 3 := 0 to 1 do x := 1; end.",
		"program p; var x: real; begin x := ; end.",
		// Input that ends where a token is consumed unchecked.
		"program p; const a =",
		"program p; const a = -",
		// Identifiers are ASCII letters, digits and '_': a UTF-8 letter, an
		// accented one and stray high bytes are unexpected characters.
		"program p; var xĪ: real; begin end.",
		"program p; var xê: real; begin end.",
		"program p; var x\xe3, x\xe4: real; begin end.",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("no parse error for %q", src)
		}
	}
	// The error names the character the text holds, not one of its bytes.
	want := `line 2:6: unexpected character "Ī"`
	if _, err := Parse("program p;\nvar xĪ: real; begin end."); err == nil || err.Error() != want {
		t.Errorf("error %v, want %s", err, want)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"program p; begin y := 1; end.", "undeclared"},
		{"program p; var x: real; begin x[0] := 1.0; end.", "not an array"},
		{"program p; var x: int; begin x := 1.5; end.", "real"},
		{"program p; var i, j: int; begin for i := 0 to 3 do i := 2; end.", "loop variable"},
		{"program p; var i, j: int; begin j := i / 2; end.", "integer division"},
		{"program p; var a: array[0..3] of real; var i: int; begin a[i][i] := 1.0; end.", "subscripts"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("src %q: error %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestSaxpy(t *testing.T) {
	src := `
program saxpy;
const n = 40;
var x, y: array [0..39] of real;
    a: real;
    i: int;
begin
  a := 3.0;
  for i := 0 to n-1 do
    y[i] := y[i] + a * x[i];
end.
`
	st := compileAndRunBoth(t, src, map[string][]float64{
		"x": ramp(40, func(i int) float64 { return float64(i) }),
		"y": ramp(40, func(i int) float64 { return 1 }),
	})
	for i := 0; i < 40; i++ {
		want := 1 + 3.0*float64(i)
		if st.FloatArrays["y"][i] != want {
			t.Fatalf("y[%d] = %v, want %v", i, st.FloatArrays["y"][i], want)
		}
	}
}

func TestSaxpyIsPipelined(t *testing.T) {
	src := `
program saxpy;
const n = 100;
var x, y: array [0..99] of real;
    i: int;
begin
  for i := 0 to n-1 do
    y[i] := y[i] + 3.0 * x[i];
end.
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Warp()
	_, rep, err := codegen.Compile(p, m, codegen.Options{Mode: codegen.ModePipelined})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 1 || !rep.Loops[0].Pipelined {
		t.Fatalf("saxpy loop not pipelined: %+v", rep.Loops)
	}
	// Two loads on the read port bind the loop at II=2.
	if rep.Loops[0].II != 2 {
		t.Errorf("II = %d, want 2", rep.Loops[0].II)
	}
	if !rep.Loops[0].MetLower {
		t.Errorf("lower bound not met: %+v", rep.Loops[0])
	}
}

func TestConditionalAndScalars(t *testing.T) {
	src := `
program clip;
var a, c: array [0..63] of real;
    count: int;
    i: int;
begin
  count := 0;
  for i := 0 to 63 do begin
    if a[i] > 0.0 then begin
      c[i] := a[i];
      count := count + 1;
    end else
      c[i] := 0.0 - a[i];
  end;
end.
`
	st := compileAndRunBoth(t, src, map[string][]float64{
		"a": ramp(64, func(i int) float64 { return float64(i%7) - 3 }),
	})
	wantCount := 0.0
	for i := 0; i < 64; i++ {
		v := float64(i%7) - 3
		want := -v
		if v > 0 {
			want = v
			wantCount++
		}
		if st.FloatArrays["c"][i] != want {
			t.Fatalf("c[%d] = %v, want %v", i, st.FloatArrays["c"][i], want)
		}
	}
	if st.Scalars["count"] != wantCount {
		t.Errorf("count = %v, want %v", st.Scalars["count"], wantCount)
	}
}

func TestMatrix2D(t *testing.T) {
	src := `
program rowsum;
var m: array [0..7] of array [0..15] of real;
    rows: array [0..7] of real;
    s: real;
    i, j: int;
begin
  for i := 0 to 7 do begin
    s := 0.0;
    for j := 0 to 15 do
      s := s + m[i][j];
    rows[i] := s;
  end;
end.
`
	data := ramp(8*16, func(i int) float64 { return float64(i % 5) })
	st := compileAndRunBoth(t, src, map[string][]float64{"m": data})
	for i := 0; i < 8; i++ {
		want := 0.0
		for j := 0; j < 16; j++ {
			want += data[i*16+j]
		}
		if st.FloatArrays["rows"][i] != want {
			t.Fatalf("rows[%d] = %v, want %v", i, st.FloatArrays["rows"][i], want)
		}
	}
}

func TestDowntoAndRuntimeBounds(t *testing.T) {
	src := `
program rev;
var a, b: array [0..31] of real;
    n, i: int;
begin
  n := 31;
  for i := n downto 0 do
    b[i] := a[i] * 2.0;
end.
`
	st := compileAndRunBoth(t, src, map[string][]float64{
		"a": ramp(32, func(i int) float64 { return float64(i) }),
	})
	for i := 0; i < 32; i++ {
		if st.FloatArrays["b"][i] != 2*float64(i) {
			t.Fatalf("b[%d] = %v", i, st.FloatArrays["b"][i])
		}
	}
}

func TestLoopCarriedArrayRecurrence(t *testing.T) {
	src := `
program recur;
var a: array [0..63] of real;
    i: int;
begin
  for i := 1 to 63 do
    a[i] := a[i-1] * 0.5 + a[i];
end.
`
	st := compileAndRunBoth(t, src, map[string][]float64{
		"a": ramp(64, func(i int) float64 { return 1 }),
	})
	want := make([]float64, 64)
	for i := range want {
		want[i] = 1
	}
	for i := 1; i < 64; i++ {
		want[i] = want[i-1]*0.5 + want[i]
	}
	for i := range want {
		if st.FloatArrays["a"][i] != want[i] {
			t.Fatalf("a[%d] = %v, want %v", i, st.FloatArrays["a"][i], want[i])
		}
	}
}

func TestIntrinsicAccuracy(t *testing.T) {
	src := `
program intr;
var a, s, v, e: array [0..19] of real;
    i: int;
begin
  for i := 0 to 19 do begin
    s[i] := sqrt(a[i]);
    v[i] := 1.0 / a[i];
    e[i] := exp(a[i] * 0.25 - 2.0);
  end;
end.
`
	in := ramp(20, func(i int) float64 { return float64(i)*1.7 + 0.3 })
	st := compileAndRunBoth(t, src, map[string][]float64{"a": in})
	for i, x := range in {
		if got, want := st.FloatArrays["s"][i], math.Sqrt(x); math.Abs(got-want) > 1e-6*want {
			t.Errorf("sqrt(%v) = %v, want %v", x, got, want)
		}
		// The INVERSE expansion keeps the paper's 7-operation budget,
		// which delivers single-precision-grade accuracy (Warp computed
		// in 32-bit floats); EXP inherits that through its reduction.
		if got, want := st.FloatArrays["v"][i], 1/x; math.Abs(got-want) > 2e-4*math.Abs(want) {
			t.Errorf("inverse(%v) = %v, want %v", x, got, want)
		}
		arg := x*0.25 - 2
		if got, want := st.FloatArrays["e"][i], math.Exp(arg); math.Abs(got-want) > 2e-4*want {
			t.Errorf("exp(%v) = %v, want %v", arg, got, want)
		}
	}
}

func TestMinMaxAbs(t *testing.T) {
	src := `
program mma;
var a, b, lo, hi, ab: array [0..15] of real;
    i: int;
begin
  for i := 0 to 15 do begin
    lo[i] := min(a[i], b[i]);
    hi[i] := max(a[i], b[i]);
    ab[i] := abs(a[i] - b[i]);
  end;
end.
`
	av := ramp(16, func(i int) float64 { return float64(i%5) - 2 })
	bv := ramp(16, func(i int) float64 { return float64(i%3) - 1 })
	st := compileAndRunBoth(t, src, map[string][]float64{"a": av, "b": bv})
	for i := range av {
		if st.FloatArrays["lo"][i] != math.Min(av[i], bv[i]) {
			t.Errorf("min[%d]", i)
		}
		if st.FloatArrays["hi"][i] != math.Max(av[i], bv[i]) {
			t.Errorf("max[%d]", i)
		}
		if st.FloatArrays["ab"][i] != math.Abs(av[i]-bv[i]) {
			t.Errorf("abs[%d]", i)
		}
	}
}

func TestNoPipelinePragma(t *testing.T) {
	src := `
program np;
var a: array [0..31] of real;
    i: int;
begin
  nopipeline for i := 0 to 31 do
    a[i] := a[i] + 1.0;
end.
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Warp()
	_, rep, err := codegen.Compile(p, m, codegen.Options{Mode: codegen.ModePipelined})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 1 || rep.Loops[0].Pipelined {
		t.Fatalf("nopipeline ignored: %+v", rep.Loops)
	}
}

// TestExpLoopNotPipelined reproduces the kernel-22 phenomenon: the EXP
// expansion's 20 data-dependent conditionals serialize the loop — either
// the profitability guards reject pipelining outright (the paper's
// threshold case) or the recurrence through the conditional chain forces
// an initiation interval in the hundreds of cycles.
func TestExpLoopNotPipelined(t *testing.T) {
	src := `
program expk;
var a, b: array [0..31] of real;
    i: int;
begin
  for i := 0 to 31 do
    b[i] := exp(a[i]);
end.
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Warp()
	_, rep, err := codegen.Compile(p, m, codegen.Options{Mode: codegen.ModePipelined})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 1 {
		t.Fatalf("want 1 loop, got %+v", rep.Loops)
	}
	lr := rep.Loops[0]
	if lr.Pipelined && lr.II < 100 {
		t.Errorf("exp-dominated loop pipelined tightly (II=%d): the conditional chain should serialize it", lr.II)
	}
	if lr.Pipelined && lr.RecMII < 100 {
		t.Errorf("expected a long recurrence through the EXP conditionals, got RecMII=%d", lr.RecMII)
	}
}
