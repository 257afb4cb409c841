package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"softpipe"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/sim/compiled"
)

// kernelTmpl is a long-running kernel: W2 text with the problem size as
// the parameter, sized so one run simulates 0.4–0.6 M cycles.  The
// sources follow workloads.Apps and the Livermore kernels 1, 3, 5 and 7;
// they are the benchmark's own because those carry fixed, much smaller
// sizes (a Suite program runs a few thousand cycles, where engine build
// cost hides the steady state).
type kernelTmpl struct {
	name string
	n    int
	src  func(n int) string
	// tables presets arrays that must hold particular values; every
	// other float array gets a seeded permutation of a fixed ramp.
	tables func(p *ir.Program)
}

var simKernels = []kernelTmpl{
	{name: "matmul", n: 56, src: func(n int) string {
		return fmt.Sprintf(`
program matmul;
const n = %d;
var a, b, c: array [0..%d] of array [0..%d] of real;
    i, j, k: int;
begin
  for k := 0 to n-1 do
    for i := 0 to n-1 do
      for j := 0 to n-1 do
        c[i][j] := c[i][j] + a[i][k] * b[k][j];
end.
`, n, n-1, n-1)
	}},
	{name: "fft-stage", n: 80000, src: func(h int) string {
		return fmt.Sprintf(`
program fftstage;
const h = %d;
var xr, xi: array [0..%d] of real;
    yr, yi: array [0..%d] of real;
    wr, wi: array [0..%d] of real;
    tr, ti: real;
    k: int;
begin
  for k := 0 to h-1 do begin
    tr := xr[k+h]*wr[k] - xi[k+h]*wi[k];
    ti := xr[k+h]*wi[k] + xi[k+h]*wr[k];
    yr[k] := xr[k] + tr;
    yi[k] := xi[k] + ti;
    yr[k+h] := xr[k] - tr;
    yi[k+h] := xi[k] - ti;
  end;
end.
`, h, 2*h-1, 2*h-1, h-1)
	}},
	{name: "conv3x3", n: 230, src: func(n int) string {
		return fmt.Sprintf(`
program conv3;
const n = %d;
var img: array [0..%d] of array [0..%d] of real;
    out: array [0..%d] of array [0..%d] of real;
    w0, w1, w2, w3, w4, w5, w6, w7, w8: real;
    i, j: int;
begin
  w0 := 0.0625; w1 := 0.125; w2 := 0.0625;
  w3 := 0.125;  w4 := 0.25;  w5 := 0.125;
  w6 := 0.0625; w7 := 0.125; w8 := 0.0625;
  for i := 0 to n-1 do
    for j := 0 to n-1 do
      out[i][j] := w0*img[i][j]   + w1*img[i][j+1]   + w2*img[i][j+2] +
                   w3*img[i+1][j] + w4*img[i+1][j+1] + w5*img[i+1][j+2] +
                   w6*img[i+2][j] + w7*img[i+2][j+1] + w8*img[i+2][j+2];
end.
`, n, n+1, n+1, n-1, n-1)
	}},
	{name: "hough", n: 48, src: func(n int) string {
		return fmt.Sprintf(`
program hough;
const n = %d;
const na = 32;
var img: array [0..%d] of array [0..%d] of real;
    costab, sintab: array [0..31] of real;
    acc: array [0..31] of array [0..%d] of real;
    r: real;
    ri: int;
    x, y, t: int;
begin
  for x := 0 to n-1 do
    for y := 0 to n-1 do
      if img[x][y] > 0.5 then
        for t := 0 to na-1 do begin
          r := float(x)*costab[t] + float(y)*sintab[t];
          ri := trunc(r) + %d;
          acc[t][ri] := acc[t][ri] + 1.0;
        end;
end.
`, n, n-1, n-1, 3*n-1, n+15)
	}, tables: func(p *ir.Program) {
		c, s := p.Array("costab"), p.Array("sintab")
		c.InitF, s.InitF = make([]float64, c.Size), make([]float64, s.Size)
		for i := range c.InitF {
			th := math.Pi * float64(i) / 32
			c.InitF[i], s.InitF[i] = math.Cos(th), math.Sin(th)
		}
	}},
	{name: "local-average", n: 230, src: func(n int) string {
		return fmt.Sprintf(`
program lsavg;
const n = %d;
var img: array [0..%d] of array [0..%d] of real;
    out: array [0..%d] of array [0..%d] of real;
    c, avg, thr: real;
    i, j: int;
begin
  thr := 0.3;
  for i := 0 to n-1 do
    for j := 0 to n-1 do begin
      c := img[i+1][j+1];
      avg := 0.25*(img[i][j+1] + img[i+2][j+1] + img[i+1][j] + img[i+1][j+2]);
      if abs(avg - c) < thr then
        out[i][j] := avg
      else
        out[i][j] := c;
    end;
end.
`, n, n+1, n+1, n-1, n-1)
	}},
	{name: "warshall", n: 48, src: func(n int) string {
		return fmt.Sprintf(`
program warshall;
const n = %d;
var d: array [0..%d] of array [0..%d] of real;
    dik: real;
    i, j, k: int;
begin
  for k := 0 to n-1 do
    for i := 0 to n-1 do begin
      dik := d[i][k];
      independent for j := 0 to n-1 do
        d[i][j] := min(d[i][j], dik + d[k][j]);
    end;
end.
`, n, n-1, n-1)
	}},
	{name: "roberts", n: 270, src: func(n int) string {
		return fmt.Sprintf(`
program roberts;
const n = %d;
var img: array [0..%d] of array [0..%d] of real;
    out: array [0..%d] of array [0..%d] of real;
    i, j: int;
begin
  for i := 0 to n-1 do
    for j := 0 to n-1 do
      out[i][j] := abs(img[i][j] - img[i+1][j+1]) + abs(img[i][j+1] - img[i+1][j]);
end.
`, n, n, n, n-1, n-1)
	}},
	{name: "k1-hydro", n: 160000, src: func(n int) string {
		return fmt.Sprintf(`
program kernel1;
const n = %d;
var x, y: array [0..%d] of real;
    z: array [0..%d] of real;
    q, r, t: real;
    k: int;
begin
  q := 0.5; r := 0.25; t := 0.125;
  for k := 0 to n-1 do
    x[k] := q + y[k]*(r*z[k+10] + t*z[k+11]);
end.
`, n, n-1, n+10)
	}},
	{name: "k3-inner-product", n: 70000, src: func(n int) string {
		return fmt.Sprintf(`
program kernel3;
const n = %d;
var x, z: array [0..%d] of real;
    q: real;
    k: int;
begin
  q := 0.0;
  for k := 0 to n-1 do
    q := q + z[k]*x[k];
end.
`, n, n-1)
	}},
	{name: "k5-tridiagonal", n: 28000, src: func(n int) string {
		return fmt.Sprintf(`
program kernel5;
const n = %d;
var x, y, z: array [0..%d] of real;
    i: int;
begin
  for i := 1 to n-1 do
    x[i] := z[i]*(y[i] - x[i-1]);
end.
`, n, n-1)
	}},
	{name: "k7-state-fragment", n: 50000, src: func(n int) string {
		return fmt.Sprintf(`
program kernel7;
const n = %d;
var x, y, z: array [0..%d] of real;
    u: array [0..%d] of real;
    q, r, t: real;
    k: int;
begin
  q := 0.5; r := 0.25; t := 0.125;
  for k := 0 to n-1 do
    x[k] := u[k] + r*(z[k] + r*y[k]) +
            t*(u[k+3] + r*(u[k+2] + r*u[k+1]) +
               t*(u[k+6] + q*(u[k+5] + q*u[k+4])));
end.
`, n, n-1, n+5)
	}},
}

// permFill presets a float array with a seeded permutation of the fixed
// ramp (i+0.5)/size.  Every seed gives different contents and the same
// multiset of values, so data-dependent work (hough's guarded inner
// loop) is the same size on every seed and simulated cycles repeat
// exactly.
func permFill(a *ir.ArrayDecl, rng *rand.Rand) {
	a.InitF = make([]float64, a.Size)
	for i, j := range rng.Perm(a.Size) {
		a.InitF[i] = (float64(j) + 0.5) / float64(a.Size)
	}
}

type simKernel struct {
	name string
	prog *ir.Program
	obj  *softpipe.Object
	// Latest results per engine, for the parity check.
	res [2]*softpipe.Result
	// Host nanoseconds spent per engine in traced passes.
	ns [2]int64
	// Compiled-program shape, read once in a traced pass.
	blocks, words int
}

var engines = [2]softpipe.Engine{softpipe.EngineInterp, softpipe.EngineCompiled}

// simWL is sim-steady: one operation is one run of a long kernel on one
// engine, alternating interp and compiled.
type simWL struct {
	mach    *machine.Machine
	kernels []*simKernel
}

func (w *simWL) setup(seed int64, scale float64) error {
	w.mach = machine.Warp()
	rng := rand.New(rand.NewSource(seed))
	for _, t := range simKernels {
		n := t.n
		if scale < 1 {
			// Smoke sizes: every kernel here costs at least linear in n.
			n = max(int(float64(n)*scale), 32)
		}
		p, err := lang.Compile(t.src(n))
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		for _, a := range p.Arrays {
			if a.Kind == ir.KindFloat {
				permFill(a, rng)
			}
		}
		if t.tables != nil {
			t.tables(p)
		}
		obj, err := softpipe.Compile(p, w.mach, softpipe.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		w.kernels = append(w.kernels, &simKernel{name: t.name, prog: p, obj: obj})
	}
	return nil
}

func (w *simWL) close() {}

func (w *simWL) pass(r *run, tr *tracer) {
	for _, k := range w.kernels {
		for e, eng := range engines {
			tr.nextOp()
			t0 := time.Now()
			var res *softpipe.Result
			var err error
			if tr == nil {
				res, err = k.obj.RunEngine(eng)
			} else {
				res, err = w.runTraced(k, e, tr)
			}
			d := time.Since(t0)
			if err != nil {
				err = fmt.Errorf("%s on %s: %w", k.name, eng, err)
			}
			r.observe(d, err)
			k.res[e] = res
			if tr != nil {
				k.ns[e] += int64(d)
			}
		}
	}
}

// runTraced is RunEngine with the compiled engine's build and run apart:
// compiled.Run is Build, NewCell and Cell.Run.
func (w *simWL) runTraced(k *simKernel, e int, tr *tracer) (*softpipe.Result, error) {
	bin := k.obj.Binary
	tr.begin("op")
	defer tr.end()
	if e == 0 {
		tr.begin("sim.interp")
		st, stats, err := sim.Run(bin, w.mach)
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.count("sim.interp_cycles", stats.Cycles)
		return &softpipe.Result{State: st, Cycles: stats.Cycles, Flops: stats.Flops}, nil
	}
	tr.begin("sim.compiled.build")
	cp, err := compiled.Build(bin, w.mach)
	tr.end()
	if err != nil {
		return nil, err
	}
	k.blocks, k.words = cp.Blocks(), cp.DistinctWords()
	cell := compiled.NewCell(cp)
	tr.begin("sim.compiled.run")
	st, err := cell.Run()
	tr.end()
	if err != nil {
		return nil, err
	}
	stats := cell.Stats()
	tr.count("sim.compiled_cycles", stats.Cycles)
	return &softpipe.Result{State: st, Cycles: stats.Cycles, Flops: stats.Flops}, nil
}

func (w *simWL) check(r *run) (cycles, words, seeded int64) {
	for _, k := range w.kernels {
		ri, rc := k.res[0], k.res[1]
		if ri == nil || rc == nil {
			continue // the failed run was already reported
		}
		r.violation(ri.Cycles == rc.Cycles, "%s: engines disagree on cycles: interp %d, compiled %d", k.name, ri.Cycles, rc.Cycles)
		d := ri.State.Diff(rc.State)
		r.violation(d == "", "%s: engines disagree on state: %s", k.name, d)
		// The reference interpreter, not Object.Verify: the concolic
		// verifier needs seconds and half a gigabyte per half-million-
		// cycle run, and verify-corpus already measures it.
		want, err := ir.Run(k.prog)
		r.violation(err == nil && want.Diff(ri.State) == "", "%s: simulation diverges from the reference interpreter", k.name)
		cycles += ri.Cycles
		words += int64(len(k.obj.Binary.Instrs))
	}
	return
}

func (w *simWL) layers(tr *tracer, out map[string]float64) {
	var blocks, words int
	logSpeedup := 0.0
	for _, k := range w.kernels {
		blocks += k.blocks
		words += k.words
		logSpeedup += math.Log(float64(k.ns[0]) / float64(k.ns[1]))
	}
	ic := float64(tr.counts["sim.interp_cycles"])
	cc := float64(tr.counts["sim.compiled_cycles"])
	out["sim.interp_ns_per_cycle"] = tr.ms("sim.interp") * 1e6 / ic
	out["sim.compiled.run_ns_per_cycle"] = tr.ms("sim.compiled.run") * 1e6 / cc
	out["sim.compiled.total_ns_per_cycle"] = (tr.ms("sim.compiled.build") + tr.ms("sim.compiled.run")) * 1e6 / cc
	out["sim.compiled.fast_blocks"] = float64(blocks)
	out["sim.compiled.distinct_words"] = float64(words)
	out["sim.compiled.speedup"] = math.Exp(logSpeedup / float64(len(w.kernels)))

	// Allocations of the interpreter per simulated cycle, one sweep.
	var m0, m1 runtime.MemStats
	var swept int64
	runtime.ReadMemStats(&m0)
	for _, k := range w.kernels {
		if _, st, err := sim.Run(k.obj.Binary, w.mach); err == nil {
			swept += st.Cycles
		}
	}
	runtime.ReadMemStats(&m1)
	out["sim.allocs_per_cycle"] = float64(m1.Mallocs-m0.Mallocs) / float64(swept)

	// Batch lanes: 16 independent lanes over one build of the first
	// kernel, the /run batch mode's shape.
	const lanes = 16
	if cp, err := compiled.Build(w.kernels[0].obj.Binary, w.mach); err == nil {
		b := compiled.NewBatch(cp, make([]compiled.Lane, lanes))
		t0 := time.Now()
		if _, err := b.Run(context.Background()); err == nil {
			out["sim.compiled.batch_lanes_per_s"] = lanes / time.Since(t0).Seconds()
		}
	}
}
