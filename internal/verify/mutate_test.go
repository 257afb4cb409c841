package verify_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/verify"
	"softpipe/internal/vliw"
)

// TestMutationKillRate is the verifier's own acceptance test: perturb a
// known-good pipelined schedule one slot/operand at a time and demand
// that ≥ 95% of the perturbations are rejected (acceptance criterion),
// over the Warp schedules and over the rotating objects separately, and
// over the rotation mutants of the latter by themselves.  A mutation can
// legitimately survive only when it is semantics-preserving (e.g.
// bumping a truly dead register, or an operand of code the trip count
// never reaches).
//
// The verdicts are pinned, not just the rate: killed/total per object,
// and for the Warp schedules the survivors by name.  A verifier change
// that conflates two terms flips some verdict, and the 5% margin must
// not be where it hides.  A code generator change that moves these
// objects moves the numbers with it; re-record them from the log.
func TestMutationKillRate(t *testing.T) {
	groups := map[string]tally{}
	for _, tc := range []struct {
		prog      string
		p         *ir.Program
		mach      string
		tail      int64 // iterations some loop starts in its tail; 0: not checked
		all, rot  tally // recorded: every mutant, and the rotation mutants among them
		survivors string
	}{
		// Two Warp schedules of different character: a memory-bound
		// parallel loop and an adder-bound accumulator recurrence.
		{"k1", livermore(t, 1), "warp", 0, tally{887, 861}, tally{}, k1Survivors},
		{"k3", livermore(t, 3), "warp", 0, tally{61, 52}, tally{}, k3Survivors},
		// Two whose trip counts leave a remainder, so iterations start in
		// the tail: 500 = 6 + 3·164 + 2 emitted directly, and k21's inner
		// loop, 25 = 5 + 4·4 + 1, emitted through loop reduction.
		{"vmac", vmacProgram(), "warp", 2, tally{336, 321}, tally{}, vmacSurvivors},
		{"k21", livermore(t, 21), "warp", 1, tally{425, 398}, tally{}, k21Survivors},
		// Rotating objects: ring rotations and the Rotate mark join the
		// operand perturbations.
		{"k1", livermore(t, 1), rotMachine, 0, tally{498, 476}, tally{25, 25}, ""},
		{"k7", livermore(t, 7), rotMachine, 0, tally{776, 747}, tally{81, 81}, ""},
		{"k9", livermore(t, 9), rotMachine, 0, tally{772, 748}, tally{97, 97}, ""},
	} {
		name := tc.prog + "/" + tc.mach
		p := tc.p
		obj, m := compileOn(t, p, tc.mach)
		if err := verify.Program(p, obj, m); err != nil {
			t.Fatalf("%s: pristine schedule rejected: %v", name, err)
		}
		if tc.tail > 0 {
			_, rep, err := codegen.Compile(p, m, codegen.Options{})
			if err != nil || !slices.ContainsFunc(rep.Loops, func(lr codegen.LoopReport) bool { return lr.Tail == tc.tail }) {
				t.Fatalf("%s: no loop starts %d iterations in its tail: %v %+v", name, tc.tail, err, rep)
			}
		}
		muts := verify.Mutations(obj)
		if len(muts) < 50 {
			t.Fatalf("%s: only %d mutations enumerated; expected a real schedule", name, len(muts))
		}
		// A broken loop counter shows up as non-termination; a tight
		// cycle bound keeps those rejections fast.
		opts := verify.Options{MaxCycles: 2_000_000}
		var all, rot tally
		var survivors []string
		for _, mu := range muts {
			mut := verify.CloneProgram(obj)
			mu.Apply(mut)
			dead := verify.ProgramOpts(p, mut, m, opts) != nil
			all.count(dead)
			if strings.Contains(mu.Desc, "rotate") {
				rot.count(dead)
			}
			if !dead {
				survivors = append(survivors, mu.Desc)
			}
		}
		t.Logf("%s: killed %d/%d = %.1f%% (rotation mutants %d/%d)", name, all.killed, all.total,
			100*float64(all.killed)/float64(all.total), rot.killed, rot.total)
		for _, s := range survivors {
			t.Logf("%s: survived: %s", name, s)
		}
		if all != tc.all || rot != tc.rot {
			t.Errorf("%s: killed %d of %d mutants (rotation %d of %d), recorded %d of %d (%d of %d)", name,
				all.killed, all.total, rot.killed, rot.total, tc.all.killed, tc.all.total, tc.rot.killed, tc.rot.total)
		}
		if tc.survivors != "" && strings.Join(survivors, "\n") != strings.TrimSpace(tc.survivors) {
			t.Errorf("%s: survivor list moved from the recorded one (see the log)", name)
		}
		if (tc.mach == rotMachine) != (rot.total > 0) {
			t.Errorf("%s: %d rotation mutants", name, rot.total)
		}
		groups[tc.mach] = groups[tc.mach].plus(all)
		groups["rotation mutants"] = groups["rotation mutants"].plus(rot)
	}
	for name, c := range groups {
		if float64(c.killed) < 0.95*float64(c.total) {
			t.Errorf("%s: kill rate %d/%d below the 95%% acceptance bar", name, c.killed, c.total)
		}
	}
}

// TestTailMutantsKilled: the iterations a compile-time trip count leaves
// over start in the epilog, and the live-out fix-up move reads the copy of
// the last of them.  A wrong register copy there is a wrong answer only
// the last few iterations show, so every float-operand mutant of a tail
// row and of the fix-up move must be rejected by the verifier itself, not
// left to a state diff.
func TestTailMutantsKilled(t *testing.T) {
	p, err := lang.Compile(`
program tailfix;
var a, c: array [0..99] of real;
    x: real;
    j: int;
begin
  for j := 0 to 36 do begin
    x := a[j];
    c[j] := (x*2.0 + 1.0)*x + x;
  end;
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Warp()
	obj, rep, err := codegen.Compile(p, m, codegen.Options{Mode: codegen.ModePipelined})
	if err != nil {
		t.Fatal(err)
	}
	if lr := rep.Loops[0]; !lr.Pipelined || lr.Tail == 0 || lr.CopyRegsF == 0 {
		t.Fatalf("want a pipelined loop with a tail and expanded registers, got %+v", lr)
	}
	kernelEnd, fixup := -1, -1
	for pc, in := range obj.Instrs {
		if in.Ctl.Kind == vliw.CtlDBNZ {
			kernelEnd = pc
		}
		for _, o := range in.Ops {
			if o.Class == machine.ClassFMov && kernelEnd >= 0 && int(o.Dst) == obj.Results[0].Reg {
				fixup = pc
			}
		}
	}
	if obj.Results[0].Name != "x" || kernelEnd < 0 || fixup < kernelEnd {
		t.Fatalf("no fix-up move of x after the kernel (kernel ends @%d, fix-up @%d):\n%s", kernelEnd, fixup, obj)
	}
	tail, fix := 0, 0
	for _, mu := range verify.Mutations(obj) {
		var pc int
		if _, err := fmt.Sscanf(mu.Desc, "@%d", &pc); err != nil {
			t.Fatalf("mutation %q names no instruction", mu.Desc)
		}
		float := strings.Contains(mu.Desc, "(fmov)") || strings.Contains(mu.Desc, "(fmul)") || strings.Contains(mu.Desc, "(fadd)")
		if pc <= kernelEnd || !float {
			continue
		}
		if pc == fixup {
			fix++
		} else {
			tail++
		}
		mut := verify.CloneProgram(obj)
		mu.Apply(mut)
		if verify.Program(p, mut, m) == nil {
			t.Errorf("survived: %s", mu.Desc)
		}
	}
	t.Logf("killed %d tail-row and %d fix-up operand mutants", tail, fix)
	if tail == 0 || fix == 0 {
		t.Errorf("mutated %d tail operands and %d fix-up operands, want some of each", tail, fix)
	}
}

// tally counts mutants and the ones the verifier rejected.
type tally struct{ total, killed int }

func (c *tally) count(dead bool) {
	c.total++
	if dead {
		c.killed++
	}
}

func (c tally) plus(d tally) tally { return tally{c.total + d.total, c.killed + d.killed} }

// vmacProgram is testdata/golden's vmac, y[k] += z[k+1]*x[k+2] over 500
// iterations — 7 stages, unroll 3 on warp, so two iterations start in the
// tail.  The operands are skewed so that no two pointers hold the same
// value: with all three at k, every pointer-for-pointer mutant preserves
// the semantics and says nothing about the verifier.
func vmacProgram() *ir.Program {
	b := ir.NewBuilder("vmac")
	b.Array("x", ir.KindFloat, 502)
	b.Array("z", ir.KindFloat, 502)
	b.Array("y", ir.KindFloat, 502)
	b.ForN(500, func(l *ir.LoopCtx) {
		px, pz, py := l.Pointer(2, 1), l.Pointer(1, 1), l.Pointer(0, 1)
		x := b.Load("x", px, ir.Aff(l.ID, 1, 2))
		z := b.Load("z", pz, ir.Aff(l.ID, 1, 1))
		y := b.Load("y", py, ir.Aff(l.ID, 1, 0))
		b.Store("y", l.Pointer(0, 1), b.FAdd(y, b.FMul(z, x)), ir.Aff(l.ID, 1, 0))
	})
	return b.P
}

const k1Survivors = `
@0 slot 0 (iconst): dst 2 -> 3
@2 slot 1 (iconst): dst 1 -> 2
@3 slot 0 (fconst): dst 3 -> 4
@4 slot 0 (fconst): dst 4 -> 5
@5 slot 0 (fconst): dst 5 -> 6
@5 slot 1 (isub): src0 1 -> 2
@5 slot 1 (isub): src1 3 -> 4
@5 slot 1 (isub): dst 0 -> 1
@6 slot 0 (imov): dst 4 -> 5
@8 slot 1 (imov): dst 6 -> 7
@9 slot 1 (imov): dst 7 -> 0
@16 slot 0 (load): src0 6 -> 7
@17 slot 0 (load): src0 6 -> 7
@17 slot 1 (adradd): src0 6 -> 7
@18 slot 1 (adradd): src1 5 -> 6
@20 slot 2 (adradd): src1 5 -> 6
@21 slot 0 (load): src0 4 -> 5
@21 slot 1 (adradd): src0 4 -> 5
@80 slot 3 (adradd): src0 6 -> 7
@80 slot 3 (adradd): src1 5 -> 6
@81 slot 3 (adradd): src0 4 -> 5
@81 slot 3 (adradd): src1 5 -> 6
@113 slot 0 (store): src0 7 -> 0
@113 slot 1 (adradd): src0 7 -> 0
@113 slot 1 (adradd): src1 5 -> 6
@113 slot 1 (adradd): dst 7 -> 0
`

const k3Survivors = `
@0 slot 0 (iconst): dst 2 -> 3
@1 slot 0 (fconst): dst 1 -> 2
@2 slot 0 (iconst): dst 1 -> 2
@5 slot 0 (isub): src0 1 -> 2
@5 slot 0 (isub): src1 3 -> 4
@5 slot 0 (isub): dst 0 -> 1
@6 slot 0 (imov): dst 4 -> 5
@7 slot 0 (fmov): dst 1 -> 2
@8 slot 0 (imov): dst 6 -> 0
`

// TestCloneProgramCopiesRings: mutating a clone's rotation rings must
// leave the pristine object as it was, or one mutant corrupts the source
// of every later one.
func TestCloneProgramCopiesRings(t *testing.T) {
	obj, _ := compileOn(t, livermore(t, 7), rotMachine)
	// A forking branch on a rotating condition, which k7 does not have.
	obj.Instrs[0].Ctl = vliw.Ctl{Kind: vliw.CtlJNZ, Reg: 1, Target: 1, RegRing: &[]int32{1, 2, 3}}
	before := obj.String()
	clone := verify.CloneProgram(obj)
	if clone.String() != before {
		t.Fatal("clone disassembles differently from its source")
	}
	touched := 0
	for pc := range clone.Instrs {
		in := &clone.Instrs[pc]
		for oi := range in.Ops {
			o := &in.Ops[oi]
			if o.Rings == nil {
				continue
			}
			for _, ring := range append([][]int32{o.Rings.Dst}, o.Rings.Src[:]...) {
				for i := range ring {
					ring[i]++
					touched++
				}
			}
		}
		ring := in.Ctl.Ring()
		for i := range ring {
			ring[i]++
			touched++
		}
	}
	if touched == 0 {
		t.Fatal("object has no rotation ring to mutate")
	}
	if clone.String() == before {
		t.Fatal("mutating the clone's rings did not change its disassembly")
	}
	if obj.String() != before {
		t.Error("mutating a clone's rings changed the source object")
	}
	// Every rotation mutant, applied to its own clone, leaves the source
	// alone too.
	for _, mu := range verify.Mutations(obj) {
		mu.Apply(verify.CloneProgram(obj))
	}
	if obj.String() != before {
		t.Error("applying the mutations to clones changed the source object")
	}
}

const vmacSurvivors = `
@3 slot 0 (iconst): dst 3 -> 4
@4 slot 0 (iconst): dst 4 -> 5
@5 slot 1 (adradd): src1 1 -> 2
@6 slot 1 (adradd): src1 1 -> 2
@7 slot 0 (load): src0 3 -> 4
@7 slot 1 (adradd): src0 3 -> 4
@35 slot 2 (adradd): src0 0 -> 1
@35 slot 2 (adradd): src1 1 -> 2
@36 slot 2 (adradd): src0 2 -> 3
@36 slot 2 (adradd): src1 1 -> 2
@37 slot 2 (adradd): src0 3 -> 4
@37 slot 2 (adradd): src1 1 -> 2
@53 slot 1 (adradd): src0 4 -> 5
@53 slot 1 (adradd): src1 1 -> 2
@53 slot 1 (adradd): dst 4 -> 5
`

const k21Survivors = `
@0 slot 0 (iconst): dst 3 -> 4
@4 slot 0 (iconst): dst 1 -> 2
@5 slot 0 (iconst): dst 2 -> 3
@6 slot 0 (isub): src0 5 -> 6
@6 slot 0 (isub): src1 6 -> 7
@6 slot 0 (isub): dst 0 -> 1
@7 slot 0 (imov): dst 3 -> 4
@9 slot 0 (isub): src0 5 -> 6
@9 slot 0 (isub): src1 6 -> 7
@9 slot 0 (isub): dst 7 -> 8
@11 slot 0 (imul): src1 5 -> 6
@13 slot 0 (imul): src1 5 -> 6
@14 slot 0 (isub): src0 5 -> 6
@14 slot 0 (isub): src1 6 -> 7
@18 slot 0 (iadd): src0 16 -> 17
@23 slot 0 (load): src0 10 -> 11
@23 slot 1 (adradd): src0 10 -> 11
@27 slot 3 (imul): dst 15 -> 16
@31 slot 3 (isub): src0 5 -> 6
@31 slot 3 (isub): src1 6 -> 7
@46 slot 2 (adradd): src0 8 -> 9
@46 slot 2 (adradd): src1 9 -> 10
@46 slot 3 (iadd): src0 2 -> 3
@47 slot 3 (adradd): src0 10 -> 11
@47 slot 3 (adradd): src1 9 -> 10
@63 slot 1 (adradd): src0 11 -> 12
@63 slot 1 (adradd): src1 9 -> 10
`
