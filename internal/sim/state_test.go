package sim_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"softpipe"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/vliw"
)

// readMostly reads x whole and z in part, and writes only y.
const readMostly = `
program readmostly;
var x: array [0..63] of real;
    y: array [0..15] of real;
    z: array [0..15] of real;
    i: int;
begin
  for i := 0 to 15 do
    y[i] := y[i] + x[i] * z[i] + x[i+32];
end.
`

// compileState compiles src for m after init has preset its arrays.
func compileState(t *testing.T, src string, m *machine.Machine, init func(p *ir.Program)) (*ir.Program, *vliw.Program) {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	init(p)
	obj, err := softpipe.Compile(p, m, softpipe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, obj.Binary
}

func ramp(n int, scale float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i+1) * scale
	}
	return v
}

// initReadMostly gives x and y full initial values and z a short one.
func initReadMostly(p *ir.Program) {
	p.Array("x").InitF = ramp(64, 0.5)
	p.Array("y").InitF = ramp(16, 2)
	p.Array("z").InitF = ramp(8, 0.25)
}

// fastRun decodes bin with its steady-state blocks and runs one cell.
func fastRun(t *testing.T, bin *vliw.Program, m *machine.Machine) *ir.State {
	t.Helper()
	prog, err := sim.Decode(bin, m)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.NewCell(prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func sameArray[T any](a, b []T) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestStateSharesUnwrittenInit: an array no store writes is reported as
// the full-length initial slice itself, on the fast path and step-only;
// a written array, or one whose initial value is short, is a fresh copy,
// and writing to that copy changes neither the object nor the next run.
func TestStateSharesUnwrittenInit(t *testing.T) {
	m := machine.Warp()
	_, bin := compileState(t, readMostly, m, initReadMostly)
	wantY := append([]float64(nil), bin.InitF["y"]...)
	step, _, err := sim.Run(bin, m)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*ir.State{"fast": fastRun(t, bin, m), "step": step} {
		if x := st.FloatArrays["x"]; !sameArray(x, bin.InitF["x"]) || len(x) != 64 {
			t.Errorf("%s: unwritten x with a full initial value is not that value", name)
		}
		if z := st.FloatArrays["z"]; sameArray(z, bin.InitF["z"]) || len(z) != 16 {
			t.Errorf("%s: z's initial value covers 8 of 16 words, yet it is shared or of length %d", name, len(z))
		}
		if sameArray(st.FloatArrays["y"], bin.InitF["y"]) {
			t.Errorf("%s: written y shares its initial value", name)
		}
	}
	first := fastRun(t, bin, m)
	y := first.FloatArrays["y"]
	got := append([]float64(nil), y...)
	for i := range y {
		y[i] = -1
	}
	for i, v := range bin.InitF["y"] {
		if v != wantY[i] {
			t.Fatalf("writing a result's y changed the object's InitF[y][%d] to %v", i, v)
		}
	}
	again := fastRun(t, bin, m).FloatArrays["y"]
	for i := range got {
		if again[i] != got[i] {
			t.Fatalf("writing a result's y changed the next run: y[%d] = %v, was %v", i, again[i], got[i])
		}
	}
}

// TestBatchLaneSharesOverride: a lane reads a read-only array it
// overrides in full in place and reports it as that override, one it does
// not override as the program's initial value, and a short override as a
// zero-padded copy; a lane that overrides a written array gets its own
// words and leaves the override as it was.  Every lane computes what one
// cell computes from the same contents.
func TestBatchLaneSharesOverride(t *testing.T) {
	m := machine.Warp()
	_, bin := compileState(t, readMostly, m, initReadMostly)
	prog, err := sim.Decode(bin, m)
	if err != nil {
		t.Fatal(err)
	}
	full, short, overY := ramp(64, -1), ramp(4, 3), ramp(16, 7)
	lanes := []sim.Lane{
		{FloatArrays: map[string][]float64{"x": full}},
		{},
		{FloatArrays: map[string][]float64{"x": short}},
		{FloatArrays: map[string][]float64{"y": overY}},
		{FloatArrays: map[string][]float64{"y": overY, "x": full}},
	}
	res, err := sim.NewBatch(prog, lanes).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("lane %d: %v", i, r.Err)
		}
		// The same contents as one cell's initial values.
		initF := map[string][]float64{}
		for k, v := range bin.InitF {
			initF[k] = v
		}
		for k, v := range lanes[i].FloatArrays {
			initF[k] = append(v[:len(v):len(v)], bin.InitF[k][len(v):]...)
		}
		one := *bin
		one.InitF = initF
		if d := fastRun(t, &one, m).Diff(r.State); d != "" {
			t.Errorf("lane %d differs from one cell over its contents: %s", i, d)
		}
	}
	x := func(i int) []float64 { return res[i].State.FloatArrays["x"] }
	if !sameArray(x(0), full) {
		t.Error("lane 0 does not report its full override of read-only x")
	}
	if !sameArray(x(1), bin.InitF["x"]) {
		t.Error("lane 1 does not report the program's x")
	}
	if sameArray(x(2), short) || sameArray(x(2), bin.InitF["x"]) || x(2)[0] != short[0] || x(2)[63] != bin.InitF["x"][63] {
		t.Error("lane 2's x is not a copy of its short override over the program's x")
	}
	if !sameArray(x(4), full) {
		t.Error("lane 4 does not report its full override of read-only x")
	}
	y3, y4 := res[3].State.FloatArrays["y"], res[4].State.FloatArrays["y"]
	if sameArray(y3, overY) || sameArray(y4, overY) || sameArray(y3, y4) {
		t.Error("lanes 3 and 4 do not each own the words of written y they override")
	}
	for i, v := range ramp(16, 7) {
		if overY[i] != v {
			t.Fatalf("a lane wrote its override of y: y[%d] = %v, was %v", i, overY[i], v)
		}
	}
}

// TestCellsOfOneProgramAreIndependent: two cells of one decoded program,
// run back to back, start from the same contents: the second never sees
// the first's writes, and the first's State, whose written words are
// that cell's own, does not change when the second runs.  A halted
// cell's State hands those words over, so a second State returns the
// same slices and copies nothing.
func TestCellsOfOneProgramAreIndependent(t *testing.T) {
	m := machine.Warp()
	_, bin := compileState(t, readMostly, m, initReadMostly)
	prog, err := sim.Decode(bin, m)
	if err != nil {
		t.Fatal(err)
	}
	first := sim.NewCell(prog)
	st1, err := first.Run()
	if err != nil {
		t.Fatal(err)
	}
	y1 := append([]float64(nil), st1.FloatArrays["y"]...)
	st2, err := sim.NewCell(prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := st1.Diff(st2); d != "" {
		t.Errorf("the second cell differs from the first: %s", d)
	}
	for i, v := range st1.FloatArrays["y"] {
		if v != y1[i] {
			t.Fatalf("the second run changed the first's y[%d] to %v, was %v", i, v, y1[i])
		}
	}
	if sameArray(st1.FloatArrays["y"], st2.FloatArrays["y"]) {
		t.Error("two cells report the same words of written y")
	}
	if again := first.State(); !sameArray(again.FloatArrays["y"], st1.FloatArrays["y"]) {
		t.Error("a halted cell's second State copied written y")
	}
	if alloc, copied := first.Words(); alloc != 16+16 || copied != 0 {
		t.Errorf("Words() = %d allocated, %d copied; want y and z's padded copy (32) and none", alloc, copied)
	}
}

// TestDecodedDecodesOnce: a zero sim.Decoded decodes on first use, once,
// when eight goroutines use it first at once, and all of them and every
// later cell share that program, blocks attached.  A binary that does not
// decode gives every caller Decode's error, decoded once too, and a cell
// of it reports that error on its first Step, as a step-only cell does.
func TestDecodedDecodesOnce(t *testing.T) {
	m := machine.Warp()
	_, bin := compileState(t, readMostly, m, initReadMostly)
	n0 := sim.Decodes()
	var d sim.Decoded
	progs := make([]*sim.Program, 8)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := d.Program(bin, m)
			if err != nil {
				t.Error(err)
			}
			progs[i] = p
		}()
	}
	wg.Wait()
	if n := sim.Decodes() - n0; n != 1 {
		t.Fatalf("eight first uses decoded %d programs; want 1", n)
	}
	for i, p := range progs {
		if p != progs[0] || p.Blocks() == 0 {
			t.Fatalf("goroutine %d: program %p with %d blocks; goroutine 0 has %p", i, p, p.Blocks(), progs[0])
		}
	}
	if _, err := d.Cell(bin, m, nil).Run(); err != nil || sim.Decodes()-n0 != 1 {
		t.Fatalf("a cell of the decoded program: %v after %d decodes; want 1", err, sim.Decodes()-n0)
	}

	bad := &vliw.Program{
		Name: "ghost",
		Instrs: []vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassLoad, Array: "ghost"}}},
			{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}},
		},
		NumFRegs: 1,
		NumIRegs: 1,
	}
	_, want := sim.Decode(bad, m)
	_, step := sim.New(bad, m).Step()
	if want == nil || step == nil || step.Error() != want.Error() {
		t.Fatalf("Decode: %v; a step-only cell's first Step: %v; want one error", want, step)
	}
	var b sim.Decoded
	n0 = sim.Decodes()
	for range 2 {
		if _, err := b.Program(bad, m); err == nil || err.Error() != want.Error() {
			t.Fatalf("Program: %v, want %v", err, want)
		}
		if _, err := b.Cell(bad, m, nil).Step(); err == nil || err.Error() != want.Error() {
			t.Fatalf("a cell's first Step: %v, want %v", err, want)
		}
	}
	if n := sim.Decodes() - n0; n != 1 {
		t.Fatalf("four uses of a binary that does not decode decoded it %d times; want 1", n)
	}
}

// TestStateOfUnhaltedCellCopies: a cell stopped by MaxCycles may still
// run, so its State copies the written arrays (each State afresh) and
// shares only the read-only ones.
func TestStateOfUnhaltedCellCopies(t *testing.T) {
	m := machine.Warp()
	_, bin := compileState(t, readMostly, m, initReadMostly)
	prog, err := sim.Decode(bin, m)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.NewCell(prog)
	c.MaxCycles = 20
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "exceeded 20 cycles") {
		t.Fatalf("Run with MaxCycles 20 = %v, want a cycle overrun", err)
	}
	a, b := c.State(), c.State()
	if sameArray(a.FloatArrays["y"], b.FloatArrays["y"]) {
		t.Error("an unhalted cell's State hands out written y")
	}
	if !sameArray(a.FloatArrays["x"], bin.InitF["x"]) {
		t.Error("an unhalted cell's State copies read-only x")
	}
	if _, copied := c.Words(); copied != 16 {
		t.Errorf("an unhalted cell's State copied %d words, want y's 16", copied)
	}
}

// shortInit reads a float array with a short initial value, one with none
// and an int array with a short one.
const shortInit = `
program shortinit;
var a: array [0..31] of real;
    b: array [0..31] of real;
    n: array [0..31] of int;
    y: array [0..31] of real;
    i: int;
begin
  for i := 0 to 31 do
    y[i] := a[i] + b[i] + float(n[i]);
end.
`

// TestShortInitReadsZeros: a read-only array whose initial value is
// short, or missing, reads zeros past its end, on the fast path and
// step-only, and is reported as the cell's zero-padded copy.
func TestShortInitReadsZeros(t *testing.T) {
	m := machine.Warp()
	_, bin := compileState(t, shortInit, m, func(p *ir.Program) {
		p.Array("a").InitF = ramp(8, 1)
		p.Array("n").InitI = []int64{100, 200, 300, 400}
	})
	step, _, err := sim.Run(bin, m)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*ir.State{"fast": fastRun(t, bin, m), "step": step} {
		for i, v := range st.FloatArrays["y"] {
			want := 0.0
			if i < 8 {
				want += float64(i + 1)
			}
			if i < 4 {
				want += float64(100 * (i + 1))
			}
			if v != want {
				t.Errorf("%s: y[%d] = %v, want %v", name, i, v, want)
			}
		}
		a, b, n := st.FloatArrays["a"], st.FloatArrays["b"], st.IntArrays["n"]
		if len(a) != 32 || len(b) != 32 || len(n) != 32 || a[7] != 8 || a[8] != 0 || b[31] != 0 || n[3] != 400 || n[4] != 0 {
			t.Errorf("%s: a, b, n = %v, %v, %v: want 32 words each, zero past the initial values", name, a, b, n)
		}
		if sameArray(a, bin.InitF["a"]) || sameArray(n, bin.InitI["n"]) {
			t.Errorf("%s: a short initial value is reported as itself", name)
		}
	}
}

// oobLoad reads x, which no store writes, one word past its end at
// i = 64; oobStore stores one word past y, which it writes.
const (
	oobLoad = `
program oobload;
var x: array [0..63] of real;
    y: array [0..99] of real;
    i: int;
begin
  for i := 0 to 99 do
    y[i] := x[i] * 2.0;
end.
`
	oobStore = `
program oobstore;
var x: array [0..99] of real;
    y: array [0..63] of real;
    i: int;
begin
  for i := 0 to 99 do
    y[i] := x[i] * 2.0;
end.
`
)

// TestBoundsErrorsPinned: an out-of-bounds load from a read-only array,
// read in place, and a store past a written one fail with the same text,
// pc and cycle on the fast path (a 100-iteration kernel that faults in
// its 65th) and step-only, as they did when every array lived in one
// cell memory.
func TestBoundsErrorsPinned(t *testing.T) {
	m := machine.Warp()
	for _, c := range []struct{ src, want string }{
		{oobLoad, "sim: @19 cycle 73: x[64] out of bounds (size 64)"},
		{oobStore, "sim: @19 cycle 83: y[64] out of bounds (size 64)"},
	} {
		_, bin := compileState(t, c.src, m, func(*ir.Program) {})
		prog, err := sim.Decode(bin, m)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Blocks() == 0 {
			t.Fatal("no fast-path block to fault in")
		}
		_, fastErr := sim.NewCell(prog).Run()
		_, _, stepErr := sim.Run(bin, m)
		for name, err := range map[string]error{"fast": fastErr, "step": stepErr} {
			if err == nil || err.Error() != c.want {
				t.Errorf("%s: %v, want %q", name, err, c.want)
			}
		}
	}
}

// TestOverlappingArraysRefused: two arrays sharing a word — float and
// float, or float and int — are refused at decode, so a store reaches
// only the array it names.
func TestOverlappingArraysRefused(t *testing.T) {
	m := machine.Warp()
	for _, kind := range []ir.Kind{ir.KindFloat, ir.KindInt} {
		p := &vliw.Program{
			Instrs: []vliw.Instr{
				{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: 0}}},
				{}, {}, {}, {}, {},
				{Ops: []vliw.SlotOp{{Class: machine.ClassStore, Src: [3]int32{0, 0}, Array: "a"}}},
				{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}},
			},
			NumFRegs: 1, NumIRegs: 1, MemWords: 12,
			Arrays: []vliw.ArrayInfo{
				{Name: "a", Kind: ir.KindFloat, Base: 0, Size: 8},
				{Name: "b", Kind: kind, Base: 4, Size: 8},
			},
		}
		if _, err := sim.Decode(p, m); err == nil || !strings.Contains(err.Error(), "overlap") {
			t.Errorf("%v b: Decode = %v, want an overlap refusal", kind, err)
		}
		if _, _, err := sim.Run(p, m); err == nil || !strings.Contains(err.Error(), "overlap") {
			t.Errorf("%v b: step-only Run = %v, want an overlap refusal", kind, err)
		}
		p.Arrays[1].Base = 8
		p.MemWords = 16
		if _, _, err := sim.Run(p, m); err != nil {
			t.Errorf("%v b moved apart: %v", kind, err)
		}
	}
}

// mixedLayout interleaves int and float arrays, so neither kind's span
// starts at address 0 or is free of the other kind's words; n and a are
// read, m and b written, k neither and never initialised.
const mixedLayout = `
program mixed;
var n: array [0..15] of int;
    a: array [0..15] of real;
    m: array [0..15] of int;
    b: array [0..15] of real;
    k: array [0..7] of int;
    i: int;
begin
  for i := 0 to 15 do begin
    m[i] := n[i] + i;
    b[i] := a[i] * float(n[i]) + 1.0;
  end;
end.
`

// TestMixedLayoutMatchesReference: on interleaved float and int arrays,
// the fast path, step-only and the IR interpreter agree, and the read
// arrays are their initial values.
func TestMixedLayoutMatchesReference(t *testing.T) {
	rot, err := machine.DefaultGrid()[1].Machine()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*machine.Machine{machine.Warp(), rot} {
		p, bin := compileState(t, mixedLayout, m, func(p *ir.Program) {
			n := p.Array("n")
			n.InitI = make([]int64, n.Size)
			for i := range n.InitI {
				n.InitI[i] = int64(3*i - 7)
			}
			p.Array("a").InitF = ramp(16, 0.75)
		})
		want, err := ir.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		step, _, err := sim.Run(bin, m)
		if err != nil {
			t.Fatal(err)
		}
		for name, st := range map[string]*ir.State{"fast": fastRun(t, bin, m), "step": step} {
			if d := want.Diff(st); d != "" {
				t.Errorf("%s on %s differs from ir.Run: %s", name, m.Name, d)
			}
			if !sameArray(st.IntArrays["n"], bin.InitI["n"]) || !sameArray(st.FloatArrays["a"], bin.InitF["a"]) {
				t.Errorf("%s on %s: read-only n or a is not its initial value", name, m.Name)
			}
		}
	}
}
