package codegen

import (
	"context"
	"strings"
	"testing"
	"time"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
)

// firProgram builds a w-tap FIR filter: for i, c[i] = Σj a[i+j]·w[j].
// The inner accumulation chain serializes the inner loop (a 7-cycle
// recurrence), but once the inner loop is unrolled the accumulator is
// re-initialized every outer iteration, so the outer loop pipelines at
// its resource bound.
func firProgram(n, w int64) *ir.Program {
	b := ir.NewBuilder("fir")
	a := b.Array("a", ir.KindFloat, int(n+w))
	wv := b.Array("w", ir.KindFloat, int(w))
	b.Array("c", ir.KindFloat, int(n))
	for i := int64(0); i < n+w; i++ {
		a.InitF = append(a.InitF, float64(i%9)*0.5-1)
	}
	for j := int64(0); j < w; j++ {
		wv.InitF = append(wv.InitF, float64(j+1)*0.25)
	}
	zero := b.FConst(0)
	b.ForN(n, func(outer *ir.LoopCtx) {
		base := outer.Pointer(0, 1)
		dst := outer.Pointer(0, 1)
		acc := b.FMov(zero)
		b.ForN(w, func(inner *ir.LoopCtx) {
			pa := inner.PointerFrom(base, 1)
			pw := inner.Pointer(0, 1)
			x := b.Load("a", pa, ir.Aff(outer.ID, 1, 0).With(inner.ID, 1))
			k := b.Load("w", pw, ir.Aff(inner.ID, 1, 0))
			b.FAddTo(acc, acc, b.FMul(x, k))
		})
		b.Store("c", dst, acc, ir.Aff(outer.ID, 1, 0))
	})
	return b.P
}

func runUnrolled(t *testing.T, build func() *ir.Program, trip int) (*Report, sim.Stats) {
	t.Helper()
	m := machine.Warp()
	p := build()
	want, err := ir.Run(p)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	prog, rep, err := Compile(p, m, Options{Mode: ModePipelined, UnrollInnerTrip: trip})
	if err != nil {
		t.Fatalf("compile (unroll %d): %v", trip, err)
	}
	got, st, err := sim.Run(prog, m)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if d := want.Diff(got); d != "" {
		t.Fatalf("unroll %d: state mismatch: %s", trip, d)
	}
	return rep, st
}

// TestUnrollInnerFIR: with the 4-tap inner loop unrolled, the nest
// collapses to one loop, it pipelines, and the outer-loop pipeline beats
// loop reduction by a wide margin (the inner accumulator recurrence no
// longer bounds the initiation rate).
func TestUnrollInnerFIR(t *testing.T) {
	rep, st := runUnrolled(t, func() *ir.Program { return firProgram(64, 4) }, 4)
	if len(rep.Loops) != 1 {
		t.Fatalf("expected a single collapsed loop, got %d reports: %+v", len(rep.Loops), rep.Loops)
	}
	lr := rep.Loops[0]
	if !lr.Pipelined {
		t.Fatalf("collapsed outer loop not pipelined: %+v", lr)
	}
	// The only cycles left are the pointer bumps (trivial
	// self-recurrences); the accumulator chain must not bound the II.
	if lr.RecMII > 2 || lr.II != lr.ResMII {
		t.Errorf("unrolled FIR should be resource bound, got %+v", lr)
	}
	_, base := runUnrolled(t, func() *ir.Program { return firProgram(64, 4) }, 0)
	if st.Cycles*2 > base.Cycles {
		t.Errorf("outer-loop pipelining should win big: unrolled %d cycles vs reduced %d",
			st.Cycles, base.Cycles)
	}
}

// TestUnrollAliasing: unrolled copies of c[i+j] += w[j] overlap across
// outer iterations (copy k of iteration i and copy k-1 of iteration i+1
// hit the same word), so the folded affine constants must produce exact
// loop-carried distances.  Bit-exact agreement with the interpreter is
// the proof.
func TestUnrollAliasing(t *testing.T) {
	build := func() *ir.Program {
		b := ir.NewBuilder("overlapadd")
		c := b.Array("c", ir.KindFloat, 40)
		wv := b.Array("w", ir.KindFloat, 3)
		for i := 0; i < 40; i++ {
			c.InitF = append(c.InitF, float64(i))
		}
		wv.InitF = []float64{1, 10, 100}
		b.ForN(32, func(outer *ir.LoopCtx) {
			base := outer.Pointer(0, 1)
			b.ForN(3, func(inner *ir.LoopCtx) {
				pc := inner.PointerFrom(base, 1)
				ps := inner.PointerFrom(base, 1)
				pw := inner.Pointer(0, 1)
				aff := ir.Aff(outer.ID, 1, 0).With(inner.ID, 1)
				v := b.Load("c", pc, aff)
				k := b.Load("w", pw, ir.Aff(inner.ID, 1, 0))
				b.Store("c", ps, b.FAdd(v, k), aff.Clone())
			})
		})
		return b.P
	}
	rep, _ := runUnrolled(t, build, 3)
	if len(rep.Loops) != 1 {
		t.Fatalf("nest did not collapse: %+v", rep.Loops)
	}
	if !rep.Loops[0].Pipelined {
		// The overlapping stores are a genuine loop-carried dependence;
		// the loop may still pipeline at a recurrence-bound II.
		t.Logf("collapsed loop unpipelined (%s) — correctness still verified", rep.Loops[0].Reason)
	}
}

// TestUnrollWithConditional: a conditional inside the unrolled body must
// survive cloning (each copy gets its own IfStmt) and still pipeline
// through hierarchical reduction.
func TestUnrollWithConditional(t *testing.T) {
	build := func() *ir.Program {
		b := ir.NewBuilder("condunroll")
		a := b.Array("a", ir.KindFloat, 64+2)
		b.Array("c", ir.KindFloat, 64)
		for i := 0; i < 66; i++ {
			a.InitF = append(a.InitF, float64(i%5)-2)
		}
		zero := b.FConst(0)
		two := b.FConst(2)
		b.ForN(64, func(outer *ir.LoopCtx) {
			base := outer.Pointer(0, 1)
			dst := outer.Pointer(0, 1)
			acc := b.FMov(zero)
			b.ForN(2, func(inner *ir.LoopCtx) {
				pa := inner.PointerFrom(base, 1)
				x := b.Load("a", pa, ir.Aff(outer.ID, 1, 0).With(inner.ID, 1))
				pos := b.FCmp(ir.PredGT, x, zero)
				b.If(pos, func() {
					b.FAddTo(acc, acc, b.FMul(x, two))
				}, func() {
					b.FSubTo(acc, acc, x)
				})
			})
			b.Store("c", dst, acc, ir.Aff(outer.ID, 1, 0))
		})
		return b.P
	}
	rep, _ := runUnrolled(t, build, 2)
	if len(rep.Loops) != 1 {
		t.Fatalf("nest did not collapse: %+v", rep.Loops)
	}
	if !rep.Loops[0].HasCond {
		t.Errorf("collapsed loop lost its conditionals: %+v", rep.Loops[0])
	}
}

// TestUnrollEligibility walks the pass's gating rules one by one.
func TestUnrollEligibility(t *testing.T) {
	m := machine.Warp()
	compileLoops := func(build func(b *ir.Builder), trip int) []LoopReport {
		t.Helper()
		b := ir.NewBuilder("gate")
		arr := b.Array("a", ir.KindFloat, 64)
		for i := 0; i < 64; i++ {
			arr.InitF = append(arr.InitF, float64(i))
		}
		build(b)
		want, err := ir.Run(b.P)
		if err != nil {
			t.Fatalf("interp: %v", err)
		}
		prog, rep, err := Compile(b.P, m, Options{Mode: ModePipelined, UnrollInnerTrip: trip})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		got, _, err := sim.Run(prog, m)
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		if d := want.Diff(got); d != "" {
			t.Fatalf("state mismatch: %s", d)
		}
		return rep.Loops
	}
	inc := func(b *ir.Builder, l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		b.Store("a", p, b.FAdd(v, b.FConst(1)), ir.Aff(l.ID, 1, 0))
	}

	// Trip 0: the inner loop disappears entirely.
	loops := compileLoops(func(b *ir.Builder) {
		b.ForN(8, func(outer *ir.LoopCtx) {
			_ = outer.Pointer(0, 1)
			b.ForN(0, func(inner *ir.LoopCtx) { inc(b, inner) })
			inc(b, outer)
		})
	}, 4)
	if len(loops) != 1 {
		t.Errorf("trip-0 inner loop should vanish, got %d loops", len(loops))
	}

	// Trip 1: replaced by a single body copy.
	loops = compileLoops(func(b *ir.Builder) {
		b.ForN(8, func(outer *ir.LoopCtx) {
			b.ForN(1, func(inner *ir.LoopCtx) { inc(b, inner) })
		})
	}, 4)
	if len(loops) != 1 {
		t.Errorf("trip-1 inner loop should unroll, got %d loops", len(loops))
	}

	// Runtime trip count: never unrolled.
	loops = compileLoops(func(b *ir.Builder) {
		n := b.IConst(4)
		b.ForN(8, func(outer *ir.LoopCtx) {
			b.ForReg(n, func(inner *ir.LoopCtx) { inc(b, inner) })
		})
	}, 4)
	if len(loops) != 2 {
		t.Errorf("runtime-count inner loop must survive, got %d loops", len(loops))
	}

	// Over the threshold: untouched.
	loops = compileLoops(func(b *ir.Builder) {
		b.ForN(8, func(outer *ir.LoopCtx) {
			b.ForN(5, func(inner *ir.LoopCtx) { inc(b, inner) })
		})
	}, 4)
	if len(loops) != 2 {
		t.Errorf("trip-5 loop above maxTrip 4 must survive, got %d loops", len(loops))
	}

	// NoPipeline pragma: untouched.
	loops = compileLoops(func(b *ir.Builder) {
		b.ForN(8, func(outer *ir.LoopCtx) {
			ls := b.ForN(2, func(inner *ir.LoopCtx) { inc(b, inner) })
			ls.NoPipeline = true
		})
	}, 4)
	if len(loops) != 2 {
		t.Errorf("nopipeline loop must survive, got %d loops", len(loops))
	}

	// Top-level loop (not nested): untouched.
	loops = compileLoops(func(b *ir.Builder) {
		b.ForN(2, func(l *ir.LoopCtx) { inc(b, l) })
	}, 4)
	if len(loops) != 1 {
		t.Fatalf("top-level loop reports: %d", len(loops))
	}
	if loops[0].TripCount != 2 {
		t.Errorf("top-level trip-2 loop must not unroll: %+v", loops[0])
	}

	// Triple nest: only the innermost loop unrolls (the middle loop
	// still contains a loop when first visited bottom-up, then becomes
	// unrollable — the pass runs inner-first, so both collapse).
	loops = compileLoops(func(b *ir.Builder) {
		b.ForN(4, func(o *ir.LoopCtx) {
			b.ForN(2, func(mid *ir.LoopCtx) {
				b.ForN(2, func(inner *ir.LoopCtx) { inc(b, inner) })
			})
		})
	}, 4)
	if len(loops) != 1 {
		t.Errorf("triple nest should collapse bottom-up to one loop, got %d", len(loops))
	}
}

// TestUnrollRandomized cross-checks the pass against the interpreter
// over a sweep of shapes: every (taps, rows) pair must stay bit-exact.
func TestUnrollRandomized(t *testing.T) {
	for w := int64(1); w <= 6; w++ {
		for _, n := range []int64{1, 3, 17} {
			rep, _ := runUnrolled(t, func() *ir.Program { return firProgram(n, w) }, int(w))
			if len(rep.Loops) != 1 {
				t.Fatalf("w=%d n=%d: %d loops", w, n, len(rep.Loops))
			}
		}
	}
}

// TestForceUnrollDirective: the per-loop ForceUnroll flag expands a loop
// the global threshold would skip — including at top level — while the
// cap and the NoPipeline conflict still gate it, and a loop kept in spite
// of the directive says why in its explain report.
func TestForceUnrollDirective(t *testing.T) {
	m := machine.Warp()
	compile := func(trip int64, mark func(*ir.LoopStmt)) []LoopReport {
		t.Helper()
		b := ir.NewBuilder("force")
		arr := b.Array("a", ir.KindFloat, 128)
		for i := 0; i < 128; i++ {
			arr.InitF = append(arr.InitF, float64(i))
		}
		one := b.FConst(1)
		ls := b.ForN(trip, func(l *ir.LoopCtx) {
			p := l.Pointer(0, 1)
			v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
			b.Store("a", p, b.FAdd(v, one), ir.Aff(l.ID, 1, 0))
		})
		mark(ls)
		want, err := ir.Run(b.P)
		if err != nil {
			t.Fatal(err)
		}
		prog, rep, err := Compile(b.P, m, Options{Mode: ModePipelined})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := sim.Run(prog, m)
		if err != nil {
			t.Fatal(err)
		}
		if d := want.Diff(got); d != "" {
			t.Fatalf("mismatch: %s", d)
		}
		return rep.Loops
	}
	// kept checks that the one loop left says why the directive was not
	// honoured, and that the reason for its outcome is untouched.
	kept := func(what string, loops []LoopReport, reason, why string) {
		t.Helper()
		if len(loops) != 1 {
			t.Fatalf("%s: %d reports, want the loop kept", what, len(loops))
		}
		lr := loops[0]
		if lr.Reason != reason {
			t.Errorf("%s: reason %q, want %q", what, lr.Reason, reason)
		}
		if want := "note: unroll directive not honoured: " + why + "\n"; !strings.Contains(lr.Explain.Format(), want) {
			t.Errorf("%s: report does not say %q:\n%s", what, want, lr.Explain.Format())
		}
	}

	// Marked: the top-level trip-6 loop expands with no option set.
	if loops := compile(6, func(l *ir.LoopStmt) { l.ForceUnroll = true }); len(loops) != 0 {
		t.Errorf("forced loop should vanish, got %d reports", len(loops))
	}
	// Unmarked: it survives, and has no directive to explain.
	loops := compile(6, func(l *ir.LoopStmt) {})
	if len(loops) != 1 || strings.Contains(loops[0].Explain.Format(), "unroll directive") {
		t.Errorf("unmarked loop must survive and say nothing of unrolling, got %+v", loops)
	}
	// Forced but nopipeline: the pragma conflict resolves to keeping it.
	kept("nopipeline", compile(6, func(l *ir.LoopStmt) { l.ForceUnroll = true; l.NoPipeline = true }),
		"nopipeline pragma", "nopipeline pragma")
	// Forced beyond the cap: kept, with the outcome the unmarked loop has.
	kept("trip 100", compile(100, func(l *ir.LoopStmt) { l.ForceUnroll = true }),
		compile(100, func(l *ir.LoopStmt) {})[0].Reason, "trip count 100 above the cap of 64")
}

// unrollNest builds depth loops of trip iterations each, nested, around
// a[k] += 1 on the innermost counter k; force marks every loop with the
// `unroll` directive.
func unrollNest(depth int, trip int64, force bool) *ir.Program {
	b := ir.NewBuilder("nest")
	arr := b.Array("a", ir.KindFloat, int(trip))
	for i := int64(0); i < trip; i++ {
		arr.InitF = append(arr.InitF, float64(i))
	}
	one := b.FConst(1)
	var level func(d int)
	level = func(d int) {
		ls := b.ForN(trip, func(l *ir.LoopCtx) {
			if d < depth-1 {
				level(d + 1)
				return
			}
			p := l.Pointer(0, 1)
			v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
			b.Store("a", p, b.FAdd(v, one), ir.Aff(l.ID, 1, 0))
		})
		ls.ForceUnroll = force
	}
	level(0)
	return b.P
}

// TestUnrollInnerTripBounded: the cap bounds the copies a nest makes, not
// each loop's trip count, because expansions multiply.  Three nested
// 64-trip loops carrying the directive (262,144 copies of the body
// unbounded) keep the outer two, each saying why, and so does a four-deep
// nest under UnrollInnerTrip 64; an 8×8 nest, 64 copies, still expands
// whole.  Every compile finishes well inside a 5 s deadline.
func TestUnrollInnerTripBounded(t *testing.T) {
	for _, c := range []struct {
		name         string
		p            *ir.Program
		trip         int
		loops, notes int
	}{
		{"three 64-trip directives", unrollNest(3, 64, true), 0, 2, 2},
		{"four deep, UnrollInnerTrip 64", unrollNest(4, 64, false), 64, 3, 0},
		{"8×8 directives", unrollNest(2, 8, true), 0, 0, 0},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, rep, err := Compile(c.p, machine.Warp(), Options{Ctx: ctx, UnrollInnerTrip: c.trip})
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		notes := 0
		for _, lr := range rep.Loops {
			if strings.Contains(lr.Explain.Format(), "note: unroll directive not honoured: ") {
				notes++
			}
		}
		if len(rep.Loops) != c.loops || notes != c.notes {
			t.Errorf("%s: %d loops, %d saying why the directive was not honoured; want %d and %d",
				c.name, len(rep.Loops), notes, c.loops, c.notes)
		}
	}
	runUnrolled(t, func() *ir.Program { return unrollNest(2, 8, true) }, 0)
}
