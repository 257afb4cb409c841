package verify_test

import (
	"fmt"
	"strings"
	"testing"

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
		kernel    int // Livermore kernel number
		mach      string
		all, rot  tally // recorded: every mutant, and the rotation mutants among them
		survivors string
	}{
		// Two Warp schedules of different character: a memory-bound
		// parallel loop and an adder-bound accumulator recurrence.
		{1, "warp", tally{732, 711}, tally{}, k1Survivors},
		{3, "warp", tally{61, 52}, tally{}, k3Survivors},
		// Rotating objects: ring rotations and the Rotate mark join the
		// operand perturbations.
		{1, rotMachine, tally{498, 476}, tally{25, 25}, ""},
		{7, rotMachine, tally{776, 747}, tally{81, 81}, ""},
		{9, rotMachine, tally{772, 748}, tally{97, 97}, ""},
	} {
		name := fmt.Sprintf("k%d/%s", tc.kernel, tc.mach)
		p := livermore(t, tc.kernel)
		obj, m := compileOn(t, p, tc.mach)
		if err := verify.Program(p, obj, m); err != nil {
			t.Fatalf("%s: pristine schedule rejected: %v", name, err)
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

// tally counts mutants and the ones the verifier rejected.
type tally struct{ total, killed int }

func (c *tally) count(dead bool) {
	c.total++
	if dead {
		c.killed++
	}
}

func (c tally) plus(d tally) tally { return tally{c.total + d.total, c.killed + d.killed} }

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
@17 slot 0 (load): src0 6 -> 7
@18 slot 0 (load): src0 6 -> 7
@18 slot 1 (adradd): src0 6 -> 7
@57 slot 0 (load): src0 6 -> 7
@58 slot 0 (load): src0 6 -> 7
@58 slot 1 (adradd): src0 6 -> 7
@139 slot 0 (store): src0 7 -> 0
@139 slot 1 (adradd): src0 7 -> 0
@139 slot 1 (adradd): src1 5 -> 6
@139 slot 1 (adradd): dst 7 -> 0
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
	obj.Instrs[0].Ctl = vliw.Ctl{Kind: vliw.CtlJNZ, Reg: 1, Target: 1, RegRing: []int{1, 2, 3}}
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
			for i := range o.DstRing {
				o.DstRing[i]++
				touched++
			}
			for _, ring := range o.SrcRings {
				for i := range ring {
					ring[i]++
					touched++
				}
			}
		}
		for i := range in.Ctl.RegRing {
			in.Ctl.RegRing[i]++
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
