package codegen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/trace"
)

// runAllWays executes p by interpretation and by simulation of both
// compilation modes, and requires bit-identical observable states.
// It returns the simulator stats of the pipelined binary.
func runAllWays(t *testing.T, p *ir.Program) (pipeStats, basePipe sim.Stats) {
	t.Helper()
	m := machine.Warp()
	want, err := ir.Run(p)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	var statsByMode [2]sim.Stats
	for i, mode := range []Mode{ModePipelined, ModeUnpipelined} {
		prog, _, err := Compile(p, m, Options{Mode: mode})
		if err != nil {
			t.Fatalf("compile mode %d: %v", mode, err)
		}
		got, st, err := sim.Run(prog, m)
		if err != nil {
			t.Fatalf("sim mode %d: %v\n%s", mode, err, prog)
		}
		if d := want.Diff(got); d != "" {
			t.Fatalf("mode %d: state mismatch: %s\n%s", mode, d, prog)
		}
		statsByMode[i] = st
	}
	return statsByMode[0], statsByMode[1]
}

func vectorAddProgram(n int64) *ir.Program {
	b := ir.NewBuilder("vadd")
	arr := b.Array("a", ir.KindFloat, int(n))
	out := b.Array("c", ir.KindFloat, int(n))
	_ = out
	for i := range make([]struct{}, n) {
		arr.InitF = append(arr.InitF, float64(i)*0.5)
	}
	cst := b.FConst(1.0)
	b.ForN(n, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		q := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		sum := b.FAdd(v, cst)
		b.Store("c", q, sum, ir.Aff(l.ID, 1, 0))
	})
	return b.P
}

func TestPaperIntroExample(t *testing.T) {
	// The §2 example: one iteration per cycle in the steady state, and a
	// large speedup over the non-overlapped loop.
	pipe, base := runAllWays(t, vectorAddProgram(200))
	if pipe.Cycles >= base.Cycles {
		t.Fatalf("pipelined %d cycles not faster than unpipelined %d", pipe.Cycles, base.Cycles)
	}
	speedup := float64(base.Cycles) / float64(pipe.Cycles)
	if speedup < 3 {
		t.Errorf("speedup %.2f, want >= 3 (paper reports ~4x for this loop shape)", speedup)
	}
}

func TestAccumulatorLoop(t *testing.T) {
	b := ir.NewBuilder("acc")
	arr := b.Array("x", ir.KindFloat, 100)
	for i := 0; i < 100; i++ {
		arr.InitF = append(arr.InitF, float64(i%7)+0.25)
	}
	sum := b.FConst(0)
	b.ForN(100, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("x", p, ir.Aff(l.ID, 1, 0))
		b.FAddTo(sum, sum, v)
	})
	b.Result("sum", sum)
	runAllWays(t, b.P)
}

func TestLiveOutFixup(t *testing.T) {
	// m := b[i] assigns a fresh value every iteration (expandable) and is
	// observed after the loop: the epilog must move the last copy back.
	b := ir.NewBuilder("lastval")
	arr := b.Array("b", ir.KindFloat, 64)
	for i := 0; i < 64; i++ {
		arr.InitF = append(arr.InitF, float64(i)*1.5)
	}
	last := b.FConst(0)
	b.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("b", p, ir.Aff(l.ID, 1, 0))
		w := b.FMul(v, v)
		b.FAssign(last, w)
	})
	b.Result("last", last)
	runAllWays(t, b.P)
}

func TestNestedLoops(t *testing.T) {
	// Inner loop pipelined, outer loop generic: row sums of an 8x16
	// matrix.
	b := ir.NewBuilder("rowsum")
	mat := b.Array("m", ir.KindFloat, 8*16)
	for i := 0; i < 8*16; i++ {
		mat.InitF = append(mat.InitF, float64(i%13)*0.75)
	}
	b.Array("rows", ir.KindFloat, 8)
	b.ForN(8, func(outer *ir.LoopCtx) {
		rowBase := outer.Pointer(0, 16)
		rowPtr := outer.Pointer(0, 1)
		sum := b.FConst(0)
		b.ForN(16, func(inner *ir.LoopCtx) {
			p := inner.PointerFrom(rowBase, 1)
			v := b.Load("m", p, nil)
			b.FAddTo(sum, sum, v)
		})
		b.Store("rows", rowPtr, sum, ir.Aff(outer.ID, 1, 0))
	})
	runAllWays(t, b.P)
}

func TestConditionalInLoop(t *testing.T) {
	// Clip: c[i] = a[i] > 2 ? a[i] : 2 via control flow (unpipelined path
	// until hierarchical reduction handles it).
	b := ir.NewBuilder("clip")
	arr := b.Array("a", ir.KindFloat, 40)
	for i := 0; i < 40; i++ {
		arr.InitF = append(arr.InitF, float64(i%5))
	}
	b.Array("c", ir.KindFloat, 40)
	two := b.FConst(2.0)
	b.ForN(40, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		q := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		cond := b.FCmp(ir.PredGT, v, two)
		b.If(cond, func() {
			b.Store("c", q, v, ir.Aff(l.ID, 1, 0))
		}, func() {
			b.Store("c", q, two, ir.Aff(l.ID, 1, 0))
		})
	})
	runAllWays(t, b.P)
}

func TestRuntimeTripCount(t *testing.T) {
	b := ir.NewBuilder("runtime")
	arr := b.Array("a", ir.KindFloat, 32)
	cnt := b.Array("n", ir.KindInt, 1)
	cnt.InitI = []int64{17}
	for i := 0; i < 32; i++ {
		arr.InitF = append(arr.InitF, 1.0)
	}
	addr := b.IConst(0)
	n := b.Load("n", addr, nil)
	one := b.FConst(1.0)
	b.ForReg(n, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		b.Store("a", p, b.FAdd(v, one), ir.Aff(l.ID, 1, 0))
	})
	runAllWays(t, b.P)
}

func TestZeroRuntimeTripCount(t *testing.T) {
	b := ir.NewBuilder("zeroiter")
	arr := b.Array("a", ir.KindFloat, 8)
	arr.InitF = []float64{1, 2, 3, 4, 5, 6, 7, 8}
	cnt := b.Array("n", ir.KindInt, 1)
	cnt.InitI = []int64{0}
	addr := b.IConst(0)
	n := b.Load("n", addr, nil)
	one := b.FConst(1.0)
	b.ForReg(n, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		b.Store("a", p, b.FAdd(v, one), ir.Aff(l.ID, 1, 0))
	})
	runAllWays(t, b.P)
}

func TestShortTripCounts(t *testing.T) {
	// Every small trip count must execute correctly (remainder handling,
	// fallback for loops shorter than the pipeline fill).
	for n := int64(1); n <= 12; n++ {
		p := vectorAddProgram(max64(n, 1))
		// Rebuild with the exact count.
		b := ir.NewBuilder("vaddN")
		arr := b.Array("a", ir.KindFloat, 16)
		b.Array("c", ir.KindFloat, 16)
		for i := 0; i < 16; i++ {
			arr.InitF = append(arr.InitF, float64(i))
		}
		cst := b.FConst(2.0)
		b.ForN(n, func(l *ir.LoopCtx) {
			pp := l.Pointer(0, 1)
			q := l.Pointer(0, 1)
			v := b.Load("a", pp, ir.Aff(l.ID, 1, 0))
			b.Store("c", q, b.FMul(v, cst), ir.Aff(l.ID, 1, 0))
		})
		_ = p
		runAllWays(t, b.P)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// randomProgram builds a random program with nested loops, conditionals,
// recurrences and memory traffic, all with deterministic semantics.
func randomProgram(rng *rand.Rand) *ir.Program {
	b := ir.NewBuilder("rnd")
	size := 64
	a := b.Array("a", ir.KindFloat, size)
	c := b.Array("c", ir.KindFloat, size)
	for i := 0; i < size; i++ {
		a.InitF = append(a.InitF, float64(i%11)*0.5-2)
		c.InitF = append(c.InitF, float64(i%7)*0.25)
	}
	k1 := b.FConst(1.25)
	k2 := b.FConst(-0.5)
	acc := b.FConst(0)

	nLoops := 1 + rng.Intn(3)
	for li := 0; li < nLoops; li++ {
		n := int64(1 + rng.Intn(40))
		withCond := rng.Intn(3) == 0
		withRecur := rng.Intn(2) == 0
		b.ForN(n, func(l *ir.LoopCtx) {
			p := l.Pointer(int64(rng.Intn(8)), 1)
			q := l.Pointer(int64(rng.Intn(8)), 1)
			v := b.Load("a", p, ir.Aff(l.ID, 1, int64(rng.Intn(8))))
			w := b.Load("c", q, ir.Aff(l.ID, 1, int64(rng.Intn(8))))
			x := b.FMul(v, k1)
			y := b.FAdd(x, w)
			if withRecur {
				b.FAddTo(acc, acc, y)
			}
			if withCond {
				cond := b.FCmp(ir.PredGT, y, k2)
				b.If(cond, func() {
					st := l.Pointer(0, 1)
					b.Store("c", st, x, ir.Aff(l.ID, 1, 0))
				}, func() {
					st := l.Pointer(0, 1)
					b.Store("c", st, y, ir.Aff(l.ID, 1, 0))
				})
			} else {
				st := l.Pointer(0, 1)
				b.Store("c", st, y, ir.Aff(l.ID, 1, 0))
			}
		})
	}
	b.Result("acc", acc)
	return b.P
}

// TestRandomProgramsDifferential is the system-level correctness
// property: interpreter, unpipelined code and pipelined code agree
// bit-for-bit on random programs.
func TestRandomProgramsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1988))
	for trial := 0; trial < 400; trial++ {
		p := randomProgram(rng)
		runAllWays(t, p)
	}
}

// TestPipelinedLoopsReported checks the report plumbing: the vadd loop
// must be pipelined at II=1 with the lower bound met.
func TestPipelinedLoopsReported(t *testing.T) {
	m := machine.Warp()
	_, rep, err := Compile(vectorAddProgram(100), m, Options{Mode: ModePipelined})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 1 {
		t.Fatalf("got %d loop reports, want 1", len(rep.Loops))
	}
	lr := rep.Loops[0]
	if !lr.Pipelined || lr.II != 1 || !lr.MetLower {
		t.Errorf("loop report = %+v, want pipelined at II=1 meeting the bound", lr)
	}
}

// runtimeBodies are the loop bodies of the root package's
// TestCountedLoopCyclesAffine with the trip count read from memory, so
// they take the two-version scheme instead of the compile-time split.
var runtimeBodies = []struct{ name, src string }{
	{"vmac", `
program vmac;
var x, z, y: array [0..99] of real;
    cnt: array [0..1] of int;
    k, m: int;
begin
  m := cnt[0];
  for k := 1 to m do
    y[k] := y[k] + z[k]*x[k];
end.
`},
	{"k7", `
program kernel7;
var x, y, z: array [0..99] of real;
    u: array [0..105] of real;
    cnt: array [0..1] of int;
    q, r, t: real;
    k, m: int;
begin
  q := 0.5; r := 0.25; t := 0.125;
  m := cnt[0];
  for k := 1 to m do
    x[k] := u[k] + r*(z[k] + r*y[k]) +
            t*(u[k+3] + r*(u[k+2] + r*u[k+1]) +
               t*(u[k+6] + q*(u[k+5] + q*u[k+4])));
end.
`},
	{"cond", `
program cond;
var a, c: array [0..99] of real;
    cnt: array [0..1] of int;
    i, m: int;
begin
  m := cnt[0];
  for i := 1 to m do
    if a[i] > 4.0 then
      c[i] := (a[i]*2.0 + 1.0)*a[i]
    else
      c[i] := a[i] + 1.5;
end.
`},
	{"liveout", `
program liveout;
var a, c: array [0..99] of real;
    cnt: array [0..1] of int;
    s, x: real;
    i, m: int;
begin
  s := 0.0;
  m := cnt[0];
  for i := 1 to m do begin
    x := a[i];
    c[i] := (x*2.0 + 1.0)*x + x;
    s := s + x;
  end;
end.
`},
}

// TestRuntimeCountSweep drives the two-version scheme of §2.4 across the
// boundary between the unpipelined fallback and the pipelined path: every
// runtime count from 0 to 40 must execute correctly, and the loop's
// report carries no compile-time split — the masked remainder still runs
// unpipelined, ahead of the kernel.
func TestRuntimeCountSweep(t *testing.T) {
	for n := int64(0); n <= 40; n++ {
		b := ir.NewBuilder("rtsweep")
		arr := b.Array("a", ir.KindFloat, 64)
		b.Array("c", ir.KindFloat, 64)
		cnt := b.Array("n", ir.KindInt, 1)
		cnt.InitI = []int64{n}
		for i := 0; i < 64; i++ {
			arr.InitF = append(arr.InitF, float64(i)*0.5)
		}
		addr := b.IConst(0)
		nv := b.Load("n", addr, nil)
		k := b.FConst(2.5)
		acc := b.FConst(0)
		b.ForReg(nv, func(l *ir.LoopCtx) {
			p := l.Pointer(0, 1)
			q := l.Pointer(0, 1)
			v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
			w := b.FMul(v, k)
			b.FAddTo(acc, acc, w)
			b.Store("c", q, w, ir.Aff(l.ID, 1, 0))
		})
		b.Result("acc", acc)
		runAllWays(t, b.P)

		for _, body := range runtimeBodies {
			p, err := lang.Compile(body.src)
			if err != nil {
				t.Fatalf("%s: %v", body.name, err)
			}
			for _, a := range p.Arrays {
				if a.Kind == ir.KindInt {
					a.InitI = []int64{n, 0}
					continue
				}
				for i := 0; i < a.Size; i++ {
					a.InitF = append(a.InitF, float64(i%9)+0.5)
				}
			}
			runAllWays(t, p)
			_, rep, err := Compile(p, machine.Warp(), Options{})
			if err != nil {
				t.Fatalf("%s: %v", body.name, err)
			}
			if lr := rep.Loops[0]; !lr.Pipelined || lr.Passes != 0 || lr.Tail != 0 || lr.Flat {
				t.Errorf("%s n=%d: run-time count loop reports pipelined=%v passes=%d tail=%d flat=%v (%s)",
					body.name, n, lr.Pipelined, lr.Passes, lr.Tail, lr.Flat, lr.Reason)
			}
		}
	}
}

// TestRuntimeCountIsPipelined confirms the runtime path actually takes
// the pipelined route (not the fallback) for large counts.
func TestRuntimeCountIsPipelined(t *testing.T) {
	b := ir.NewBuilder("rtpipe")
	arr := b.Array("a", ir.KindFloat, 256)
	cnt := b.Array("n", ir.KindInt, 1)
	cnt.InitI = []int64{200}
	for i := 0; i < 256; i++ {
		arr.InitF = append(arr.InitF, 1.0)
	}
	addr := b.IConst(0)
	nv := b.Load("n", addr, nil)
	one := b.FConst(1.0)
	b.ForReg(nv, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		q := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		b.Store("a", q, b.FAdd(v, one), ir.Aff(l.ID, 1, 0))
	})
	m := machine.Warp()
	_, rep, err := Compile(b.P, m, Options{Mode: ModePipelined})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 1 || !rep.Loops[0].Pipelined {
		t.Fatalf("runtime-count loop not pipelined: %+v", rep.Loops)
	}
	if u := rep.Loops[0].Unroll; u&(u-1) != 0 {
		t.Errorf("runtime unroll %d not a power of two", u)
	}
	pipe, base := runAllWays(t, b.P)
	if float64(base.Cycles)/float64(pipe.Cycles) < 2 {
		t.Errorf("runtime pipelining speedup only %.2f (pipe %d, base %d)",
			float64(base.Cycles)/float64(pipe.Cycles), pipe.Cycles, base.Cycles)
	}
}

// TestKernelView: every pipelined loop reports a steady-state rendering
// with exactly II rows, consistent with the loop's II and stage count.
func TestKernelView(t *testing.T) {
	m := machine.Warp()
	p := vectorAddProgram(64)
	_, rep, err := Compile(p, m, Options{Mode: ModePipelined})
	if err != nil {
		t.Fatal(err)
	}
	lr := rep.Loops[0]
	if !lr.Pipelined || lr.Kernel() == "" {
		t.Fatalf("no kernel view: %+v", lr)
	}
	lines := strings.Split(strings.TrimRight(lr.Kernel(), "\n"), "\n")
	if len(lines) != 1+lr.II {
		t.Fatalf("kernel view has %d rows, want header + II=%d:\n%s", len(lines)-1, lr.II, lr.Kernel())
	}
	if !strings.Contains(lines[0], fmt.Sprintf("II=%d", lr.II)) ||
		!strings.Contains(lines[0], fmt.Sprintf("stages=%d", lr.Stages)) {
		t.Errorf("kernel header inconsistent with report: %q", lines[0])
	}
	for _, want := range []string{"load[a]", "store[c]", "fadd"} {
		if !strings.Contains(lr.Kernel(), want) {
			t.Errorf("kernel view missing %q:\n%s", want, lr.Kernel())
		}
	}
	// Unpipelined loops carry no kernel.
	_, rep, err = Compile(vectorAddProgram(64), m, Options{Mode: ModeUnpipelined})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loops[0].Kernel() != "" {
		t.Error("unpipelined loop must not render a kernel")
	}
}

// TestCompileSelfTimesSumToRoot: under a root span, the self times of a
// compile's spans add up to the root's inclusive time, and the emission
// steps the spans name — pipelined rows, compacted rows, the object's
// validation — each have one.
func TestCompileSelfTimesSumToRoot(t *testing.T) {
	tr := trace.New("self")
	root := tr.Begin("op")
	if _, _, err := Compile(vectorAddProgram(64), machine.Warp(), Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	root.End()
	phases := tr.PhaseTotals()
	sum := 0.0
	for _, p := range phases {
		sum += p.Self
	}
	if math.Abs(sum-phases["op"].Incl) > 1e-9 {
		t.Errorf("self times sum to %v ms, the root's inclusive time is %v ms", sum, phases["op"].Incl)
	}
	for _, name := range []string{"codegen.rows", "codegen.compact", "vliw.validate", "schedule.search"} {
		if _, ok := phases[name]; !ok {
			t.Errorf("no %s span in %v", name, phases)
		}
	}
}
