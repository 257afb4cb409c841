package softpipe_test

import (
	"fmt"
	"strings"
	"testing"

	"softpipe"
	"softpipe/internal/sim"
)

// countedBodies are loop bodies compiled at every trip count from 1 to
// three times what one kernel pass needs; %d is the trip count n.  The
// loops run from 1 so that the bound is no constant the program already
// holds (the front end would share it and shorten the preamble by a
// cycle at that one n).
var countedBodies = []struct {
	name string
	// liveOut marks the body whose expanded scalar is read after the loop:
	// its fix-up move is skipped when the last iteration used copy 0, so
	// consecutive counts may differ by that move and its drain.
	liveOut bool
	src     string
}{
	{name: "vmac", src: `
program vmac;
var x, z, y: array [0..99] of real;
    k: int;
begin
  for k := 1 to %d do
    y[k] := y[k] + z[k]*x[k];
end.
`},
	{name: "k7", src: `
program kernel7;
var x, y, z: array [0..99] of real;
    u: array [0..105] of real;
    q, r, t: real;
    k: int;
begin
  q := 0.5; r := 0.25; t := 0.125;
  for k := 1 to %d do
    x[k] := u[k] + r*(z[k] + r*y[k]) +
            t*(u[k+3] + r*(u[k+2] + r*u[k+1]) +
               t*(u[k+6] + q*(u[k+5] + q*u[k+4])));
end.
`},
	{name: "cond", src: `
program cond;
var a, c: array [0..99] of real;
    i: int;
begin
  for i := 1 to %d do
    if a[i] > 4.0 then
      c[i] := (a[i]*2.0 + 1.0)*a[i]
    else
      c[i] := a[i] + 1.5;
end.
`},
	{name: "liveout", liveOut: true, src: `
program liveout;
var a, c: array [0..99] of real;
    s, x: real;
    i: int;
begin
  s := 0.0;
  for i := 1 to %d do begin
    x := a[i];
    c[i] := (x*2.0 + 1.0)*x + x;
    s := s + x;
  end;
end.
`},
}

// TestCountedLoopCyclesAffine: with a compile-time trip count no iteration
// runs unpipelined, so once n reaches one kernel pass every further
// iteration costs exactly II cycles — cycles(n) is affine in n, with no
// saw-tooth of unpipelined remainder iterations every Unroll counts.
// Below that, where the loop is its flat schedule or unpipelined, cycles
// never fall as n grows and never exceed the unpipelined loop's.  The
// conditional body has two plans: below one pass of the plan with its
// arm-private operations lifted (9 stages) the whole-arm plan (2 stages)
// is kept, and the rule holds along each.  Every object passes the
// verifier and the state diff, and the fast path matches step-only.
func TestCountedLoopCyclesAffine(t *testing.T) {
	for _, mach := range []string{"warp", "gen:fa2,fm2,mem2,lat7/7/3,fr62,rot"} {
		m, err := softpipe.ParseMachine(mach)
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range countedBodies {
			t.Run(body.name+"/"+mach, func(t *testing.T) {
				run := func(n int, opts softpipe.Options) (*softpipe.Object, int64) {
					t.Helper()
					p, err := softpipe.ParseSource(fmt.Sprintf(body.src, n))
					if err != nil {
						t.Fatal(err)
					}
					initAll(func(i int) float64 { return float64(i%9) + 0.5 })(p)
					obj, err := softpipe.Compile(p, m, opts)
					if err != nil {
						t.Fatalf("n=%d: %v", n, err)
					}
					res, err := obj.Verify()
					if err != nil {
						t.Fatalf("n=%d: %v\n%s", n, err, obj.Disassemble())
					}
					st, ref, err := sim.Run(obj.Binary, m)
					if err != nil {
						t.Fatalf("n=%d: step-only run: %v", n, err)
					}
					if d := st.Diff(res.State); d != "" || ref.Cycles != res.Cycles {
						t.Fatalf("n=%d: fast path and step-only disagree (%d vs %d cycles): %s", n, res.Cycles, ref.Cycles, d)
					}
					return obj, res.Cycles
				}

				obj, _ := run(99, softpipe.Options{})
				lr := obj.Report.Loops[0]
				if !lr.Pipelined {
					t.Fatalf("loop not pipelined: %s", lr.Reason)
				}
				onePass := lr.Stages - 1 + lr.Unroll
				// A fix-up move and the drain behind it, present or not.
				slack := int64(0)
				if body.liveOut {
					slack = int64(m.MaxLatency())
				}
				cycles := make([]int64, 3*onePass+2)
				var split []string
				prev := lr
				for n := 1; n < len(cycles); n++ {
					obj, c := run(n, softpipe.Options{})
					cycles[n] = c
					at := obj.Report.Loops[0]
					split = append(split, fmt.Sprintf("%d:%d+%d/%v", n, at.Passes, at.Tail, at.Flat))
					if (at.Hoisted > 0) != (lr.Hoisted > 0 && n >= onePass) {
						t.Errorf("n=%d: hoisted %d; the plan at n=99 hoists %d and one pass of it is %d iterations", n, at.Hoisted, lr.Hoisted, onePass)
					}
					switch {
					case at.Passes > 0:
						if !at.Pipelined || at.Flat || int(at.Passes)*at.Unroll+int(at.Tail)+at.Stages-1 != n {
							t.Errorf("n=%d: passes %d × unroll %d + tail %d + %d prolog iterations, flat=%v", n, at.Passes, at.Unroll, at.Tail, at.Stages-1, at.Flat)
						}
						samePlan := prev.Passes > 0 && prev.II == at.II && prev.Stages == at.Stages && prev.Unroll == at.Unroll
						if d := c - cycles[n-1] - int64(at.II); samePlan && (d < -slack || d > slack) {
							t.Errorf("cycles(%d) - cycles(%d) = %d, want II = %d", n, n-1, c-cycles[n-1], at.II)
						}
					case n >= onePass:
						t.Errorf("n=%d: no kernel pass at or above the %d iterations one pass needs", n, onePass)
					default:
						if c < cycles[n-1]-slack {
							t.Errorf("cycles fall from %d at n=%d to %d at n=%d", cycles[n-1], n-1, c, n)
						}
						if _, base := run(n, softpipe.Options{Baseline: true}); c > base {
							t.Errorf("n=%d: %d cycles, the unpipelined loop takes %d", n, c, base)
						}
					}
					prev = at
				}
				t.Logf("II=%d stages=%d unroll=%d; n:passes+tail/flat %s", lr.II, lr.Stages, lr.Unroll, strings.Join(split, " "))
			})
		}
	}
}
