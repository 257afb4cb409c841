package lang

import (
	"strings"
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/vliw"
)

// TestPaperReadAddWrite realizes the paper's §2 example on its real
// substrate: "suppose we wish to add a constant to a vector of data" with
// the vector streaming through the cell's queues — Read, Add, Write.
// The loop must pipeline at II = 1 ("an iteration can be initiated every
// cycle"), the paper's optimal throughput.
func TestPaperReadAddWrite(t *testing.T) {
	src := `
program relay;
const n = 200;
var i: int;
begin
  for i := 0 to n-1 do
    send(receive() + 1.0);
end.
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Warp()
	prog, rep, err := codegen.Compile(p, m, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 1 || !rep.Loops[0].Pipelined {
		t.Fatalf("loop not pipelined: %+v", rep.Loops)
	}
	if rep.Loops[0].II != 1 {
		t.Fatalf("II = %d, want 1 (the paper's 'iteration initiated every cycle')", rep.Loops[0].II)
	}

	// Single cell against the interpreter (tape semantics).
	input := make([]float64, 200)
	for i := range input {
		input[i] = float64(i) * 0.5
	}
	in := ir.NewInterp(p)
	in.Input = input
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	cell := sim.New(prog, m)
	cell.InputTape = input
	if _, err := cell.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cell.OutputTape) != len(in.Output) {
		t.Fatalf("tape lengths differ: %d vs %d", len(cell.OutputTape), len(in.Output))
	}
	for i := range in.Output {
		if cell.OutputTape[i] != in.Output[i] {
			t.Fatalf("out[%d]: sim %v, interp %v", i, cell.OutputTape[i], in.Output[i])
		}
	}

	// Steady-state throughput: ~1 element per cycle plus fill overhead.
	st := cell.Stats()
	if st.Cycles > 260 {
		t.Errorf("200 elements took %d cycles; the steady state should stream one per cycle", st.Cycles)
	}

	// Ten cells chained: each adds 1.0, and the array stays pipelined
	// across cells (wall clock well under 10 sequential passes).
	arr := homogeneousArray(prog, m, 10, input)
	out, _, err := arr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(input) {
		t.Fatalf("array emitted %d values", len(out))
	}
	for i, v := range input {
		if out[i] != v+10 {
			t.Fatalf("array out[%d] = %v, want %v", i, out[i], v+10)
		}
	}
	ast := arr.Stats()
	if ast.Cycles > 10*st.Cycles/2 {
		t.Errorf("array wall clock %d; cells are not overlapping (single cell %d)", ast.Cycles, st.Cycles)
	}
}

// TestSystolicAccumulator: a homogeneous program where each cell adds its
// memory-resident vector to the passing stream — the systolic pattern the
// Table 4-1 applications used.
func TestSystolicAccumulator(t *testing.T) {
	src := `
program sysacc;
const n = 64;
var w: array [0..63] of real;
    i: int;
begin
  for i := 0 to n-1 do
    send(receive() + w[i]);
end.
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	wArr := p.Array("w")
	for i := 0; i < 64; i++ {
		wArr.InitF = append(wArr.InitF, float64(i))
	}
	m := machine.Warp()
	prog, rep, err := codegen.Compile(p, m, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Loops[0].Pipelined {
		t.Fatalf("not pipelined: %+v", rep.Loops[0])
	}
	input := make([]float64, 64)
	arr := homogeneousArray(prog, m, 4, input)
	out, _, err := arr.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != 4*float64(i) {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], 4*float64(i))
		}
	}
}

// TestQueueOrderWithConditional: sends inside conditional arms must keep
// FIFO order when the loop pipelines through hierarchical reduction.
func TestQueueOrderWithConditional(t *testing.T) {
	src := `
program qcond;
const n = 100;
var a: array [0..99] of real;
    i: int;
begin
  for i := 0 to n-1 do
    if a[i] > 0.0 then
      send(a[i] * 2.0)
    else
      send(0.0 - a[i]);
end.
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	in := p.Array("a")
	for i := 0; i < 100; i++ {
		in.InitF = append(in.InitF, float64(i%7)-3)
	}
	m := machine.Warp()
	prog, _, err := codegen.Compile(p, m, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	itp := ir.NewInterp(p)
	if _, err := itp.Run(); err != nil {
		t.Fatal(err)
	}
	cell := sim.New(prog, m)
	if _, err := cell.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cell.OutputTape) != len(itp.Output) {
		t.Fatalf("lengths: %d vs %d", len(cell.OutputTape), len(itp.Output))
	}
	for i := range itp.Output {
		if cell.OutputTape[i] != itp.Output[i] {
			t.Fatalf("out[%d]: %v vs %v", i, cell.OutputTape[i], itp.Output[i])
		}
	}
}

// TestUnrollDirective: the `unroll` source directive expands a small
// constant-trip inner loop so the outer loop pipelines, without any
// compiler-wide option.
func TestUnrollDirective(t *testing.T) {
	src := `
program fird;
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
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	aArr, wArr := p.Array("a"), p.Array("w")
	for i := 0; i < 68; i++ {
		aArr.InitF = append(aArr.InitF, float64(i%11)-5)
	}
	wArr.InitF = []float64{1, 2, 3, 4}
	want, err := ir.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Warp()
	prog, rep, err := codegen.Compile(p, m, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 1 || !rep.Loops[0].Pipelined {
		t.Fatalf("directive did not collapse the nest: %+v", rep.Loops)
	}
	got, _, err := sim.Run(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	if d := want.Diff(got); d != "" {
		t.Fatalf("mismatch: %s", d)
	}
}

// TestUnrollDirectiveNotHonoured: a loop the compiler keeps in spite of
// its `unroll` directive says why in its explain report — here a
// triangular inner loop (run-time trip count) and a 16×8 nest whose outer
// expansion would pass the cap on the copies one nest makes (the inner
// loop expands, the outer stays) — and the program still runs right.
func TestUnrollDirectiveNotHonoured(t *testing.T) {
	p, err := Compile(`
program keep;
var a: array [0..15] of real;
    i, j: int;
begin
  for i := 0 to 7 do
    unroll for j := 0 to i do
      a[j] := a[j] + 1.0;
  unroll for i := 0 to 15 do
    unroll for j := 0 to 7 do
      a[j] := a[j] + 2.0;
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ir.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Warp()
	prog, rep, err := codegen.Compile(p, m, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var notes []string
	for _, lr := range rep.Loops {
		for _, n := range lr.Explain.Notes {
			if strings.HasPrefix(n, "unroll directive not honoured: ") {
				notes = append(notes, n)
			}
		}
	}
	wantNotes := []string{
		"unroll directive not honoured: run-time trip count",
		"unroll directive not honoured: the nest would make 16 × 8 copies, above the cap of 64",
	}
	if len(rep.Loops) != 3 || strings.Join(notes, "\n") != strings.Join(wantNotes, "\n") {
		t.Errorf("%d loops noting %q; want 3 loops noting %q", len(rep.Loops), notes, wantNotes)
	}
	got, _, err := sim.Run(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	if d := want.Diff(got); d != "" {
		t.Fatalf("mismatch: %s", d)
	}
}

// TestUnrollDirectiveErrors: the directive must precede a for loop.
func TestUnrollDirectiveErrors(t *testing.T) {
	_, err := Compile(`
program bad;
var x: real;
begin
  unroll x := 1.0;
end.
`)
	if err == nil || !strings.Contains(err.Error(), "unroll must precede a for loop") {
		t.Fatalf("want parse error, got %v", err)
	}
}

// homogeneousArray runs prog on n cells of one decoded program.
func homogeneousArray(prog *vliw.Program, m *machine.Machine, n int, input []float64) *sim.Array {
	var d sim.Decoded
	cells := make([]*sim.Sim, n)
	for i := range cells {
		cells[i] = d.Cell(prog, m, nil)
	}
	return sim.NewArrayCells(cells, input)
}
