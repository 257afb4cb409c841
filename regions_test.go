package softpipe_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"softpipe"
	"softpipe/internal/codegen"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// emptyWordsAfter counts the empty instruction words (no operation, no
// sequencer field) that directly follow word i.
func emptyWordsAfter(instrs []vliw.Instr, i int) int {
	n := 0
	for i++; i < len(instrs) && len(instrs[i].Ops) == 0 && instrs[i].Ctl.Kind == vliw.CtlNone; i++ {
		n++
	}
	return n
}

func hasClass(in vliw.Instr, c machine.Class) bool {
	return slices.ContainsFunc(in.Ops, func(op vliw.SlotOp) bool { return op.Class == c })
}

// TestRegionsCloseOnWhatIsInFlight: a region is followed by one empty word
// for every cycle its last register write-back is still in flight, and by
// nothing else — no word for a store, no barrier of the machine's longest
// latency behind a block, a loop, an arm of a conditional or the program.
func TestRegionsCloseOnWhatIsInFlight(t *testing.T) {
	m := softpipe.Warp()
	faddTail := m.Latency(machine.ClassFAdd) - 1
	cases := []struct {
		name, src string
		// ends picks the last word of each region under test; every such
		// word is followed by exactly `empty` empty words.
		ends  func(vliw.Instr) bool
		empty int
	}{
		{name: "block ending in a store", empty: 0,
			ends: func(in vliw.Instr) bool { return hasClass(in, machine.ClassStore) },
			src: `
program blockstore;
var a, c: array [0..9] of real;
begin
  c[0] := a[1] + a[2];
end.
`},
		{name: "block ending in an fadd", empty: faddTail,
			ends: func(in vliw.Instr) bool { return hasClass(in, machine.ClassFAdd) },
			src: `
program blockfadd;
var a: array [0..9] of real;
    x: real;
begin
  x := a[1] + a[2];
end.
`},
		{name: "nopipeline loop ending in its store", empty: 0,
			ends: func(in vliw.Instr) bool { return in.Ctl.Kind == vliw.CtlDBNZ },
			src: `
program loopstore;
var a, c: array [0..99] of real;
    i: int;
begin
  nopipeline for i := 0 to 9 do
    c[i] := a[i] + 1.0;
end.
`},
		{name: "conditional whose arms end in stores", empty: 0,
			ends: func(in vliw.Instr) bool { return hasClass(in, machine.ClassStore) },
			src: `
program armstores;
var a, c: array [0..9] of real;
    x: real;
begin
  x := a[1];
  if x > 0.5 then
    c[0] := x
  else
    c[1] := x;
end.
`},
	}
	for _, c := range cases {
		for _, opts := range []softpipe.Options{{}, {Baseline: true}} {
			t.Run(fmt.Sprintf("%s/baseline=%v", c.name, opts.Baseline), func(t *testing.T) {
				obj, err := softpipe.CompileSource(c.src, m, opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := obj.Verify(); err != nil {
					t.Fatalf("%v\n%s", err, obj.Disassemble())
				}
				instrs, regions := obj.Binary.Instrs, 0
				for i, in := range instrs {
					if !c.ends(in) {
						continue
					}
					regions++
					if got := emptyWordsAfter(instrs, i); got != c.empty {
						t.Errorf("word %d ends a region and is followed by %d empty words, want %d\n%s",
							i, got, c.empty, obj.Disassemble())
					}
				}
				if regions == 0 {
					t.Fatalf("no region of the expected shape\n%s", obj.Disassemble())
				}
				// The word before halt is empty only when the last region's
				// last write-back needs it.
				halt := slices.IndexFunc(instrs, func(in vliw.Instr) bool { return in.Ctl.Kind == vliw.CtlHalt })
				if before := instrs[halt-1]; (len(before.Ops) == 0 && before.Ctl.Kind == vliw.CtlNone) != (c.empty > 0) {
					t.Errorf("word before halt: %q, want empty = %v", before.String(), c.empty > 0)
				}
			})
		}
	}
}

// TestOverlappedLoopBackClearsConstructWindows: an outer loop whose
// conditional inner body ends the merged rows in a construct window
// (apps/local-average and shape/nest-cond-inner).  The outer loop-back must
// come after the window, which holds the sequencer to its last row; a
// fixed barrier between regions used to push it there by accident.
func TestOverlappedLoopBackClearsConstructWindows(t *testing.T) {
	for _, dp := range digestPrograms(t) {
		if dp.name != "apps/local-average" && dp.name != "shape/nest-cond-inner" {
			continue
		}
		for _, mach := range []string{"warp", "gen:fa2,fm2,mem2,lat7/7/3,fr62,rot"} {
			t.Run(dp.name+"/"+mach, func(t *testing.T) {
				m, err := softpipe.ParseMachine(mach)
				if err != nil {
					t.Fatal(err)
				}
				obj, err := softpipe.Compile(dp.prog, m, softpipe.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := obj.Verify(); err != nil {
					t.Fatalf("%v\n%s", err, obj.Disassemble())
				}
				if !m.RotatingRegs && !slices.ContainsFunc(obj.Report.Loops, func(lr softpipe.LoopInfo) bool {
					return strings.Contains(lr.Reason, "reduced inner loops")
				}) {
					t.Errorf("outer loop did not go through loop reduction: %+v", obj.Report.Loops)
				}
			})
		}
	}
}

// TestLoopReductionNeverLosesToItsAblation: on warp, every corpus nest
// whose object the DisableLoopReduction switch changes runs in no more
// cycles with §3.2's reduction than without.  Only half the barrier
// between regions made exact — the closing drain but not what a reduced
// loop tells the enclosing schedule about its writes — loses on 14 of
// them.
func TestLoopReductionNeverLosesToItsAblation(t *testing.T) {
	nests := []string{
		"apps/conv3x3", "apps/local-average", "apps/matmul-100", "apps/roberts", "apps/warshall",
		"livermore/k4-banded-linear", "livermore/k18-2d-hydro", "livermore/k21-matmul", "livermore/k23-implicit-hydro",
		"golden/fir", "golden/fir-unrolled", "golden/edges",
		"shape/nest-scale", "shape/nest-remainder", "shape/nest-two-inner", "shape/nest-cond-inner", "shape/nest-three",
		"draw/1000", "draw/1040", "draw/1076",
	}
	m := softpipe.Warp()
	seen := 0
	for _, dp := range digestPrograms(t) {
		if !slices.Contains(nests, dp.name) {
			continue
		}
		seen++
		run := func(adjust func(*codegen.Options)) (*softpipe.Object, int64) {
			obj, err := softpipe.CompileWith(dp.prog, m, softpipe.Options{}, adjust)
			if err != nil {
				t.Fatalf("%s: %v", dp.name, err)
			}
			res, err := obj.Run()
			if err != nil {
				t.Fatalf("%s: %v", dp.name, err)
			}
			return obj, res.Cycles
		}
		with, cycles := run(nil)
		without, ablated := run(func(o *codegen.Options) { o.DisableLoopReduction = true })
		if with.Disassemble() == without.Disassemble() {
			t.Errorf("%s: the switch no longer changes the object", dp.name)
		}
		if cycles > ablated {
			t.Errorf("%s: %d cycles with loop reduction, %d without", dp.name, cycles, ablated)
		}
	}
	if seen != len(nests) {
		t.Errorf("found %d of %d nests in the corpus", seen, len(nests))
	}
}

// TestLiftNeverLosesToWholeArms: on warp, wide2 and the first rotating
// grid point, every fixed program of the corpus and four draws — draw/1012
// (the lifted body's stages outnumber an inner loop's 4 iterations),
// draw/1026 (the lifted II is higher), draw/1050 (the lifted body trips
// the 99% rule and would run as control flow) and draw/1054 (lifted
// everywhere, the largest growth in words among the draws) — run in no
// more cycles with arm-private operations lifted out of their reduced
// conditionals than with Lam's whole arms.  Lifting with no way back to
// the whole-arm form fails it on the first three.
func TestLiftNeverLosesToWholeArms(t *testing.T) {
	machines := digestMachines(t)
	rot := slices.IndexFunc(machines, func(m *softpipe.Machine) bool { return m.RotatingRegs })
	machines = []*softpipe.Machine{machines[0], machines[1], machines[rot]}
	draws := []string{"draw/1012", "draw/1026", "draw/1050", "draw/1054"}
	progs := slices.DeleteFunc(digestPrograms(t), func(dp digestProgram) bool {
		kind, _, _ := strings.Cut(dp.name, "/")
		return !slices.Contains([]string{"suite", "livermore", "apps", "golden", "shape"}, kind) && !slices.Contains(draws, dp.name)
	})
	moved := make([]int, len(progs))
	eachProgram(len(progs), func(i int) {
		dp := progs[i]
		for _, m := range machines {
			run := func(opts codegen.Options) (string, int64) {
				bin, _, err := codegen.Compile(dp.prog, m, opts)
				if err != nil {
					t.Errorf("%s | %s: %v", dp.name, m.Name, err)
					return "", 0
				}
				res, err := (&softpipe.Object{Binary: bin, Machine: m}).Run()
				if err != nil {
					if !corpusRefusal(dp.name, m, err) {
						t.Errorf("%s | %s: %v", dp.name, m.Name, err)
					}
					return "", 0
				}
				return bin.String(), res.Cycles
			}
			lifted, cycles := run(codegen.Options{})
			whole, wholeCycles := run(codegen.Options{WholeArms: true})
			if lifted != whole {
				moved[i]++
			}
			if cycles > wholeCycles {
				t.Errorf("%s | %s: %d cycles with operations lifted, %d with whole arms", dp.name, m.Name, cycles, wholeCycles)
			}
		}
	})
	total := 0
	for _, n := range moved {
		total += n
	}
	if total < 100 {
		t.Errorf("the whole-arm switch changes %d objects; it changed 100 and more when this was written", total)
	}
	t.Logf("%d programs x %d machines: the switch changes %d objects", len(progs), len(machines), total)
}

// TestRotationNeverLoses: on warp, wide2 and the first rotating grid point,
// every fixed program of the corpus runs in no more cycles with the pure
// setup of its outer bodies rotated into the previous iteration than with
// every outer body in program order.  Rotating whatever qualifies, without
// comparing the rotated body's cycles and its peeled copy against the
// plain body's, is slower on apps/warshall, shape/nest-two-inner,
// shape/nest-fill-invariant and, on wide2, k4.
func TestRotationNeverLoses(t *testing.T) {
	machines := digestMachines(t)
	rot := slices.IndexFunc(machines, func(m *softpipe.Machine) bool { return m.RotatingRegs })
	machines = []*softpipe.Machine{machines[0], machines[1], machines[rot]}
	progs := slices.DeleteFunc(digestPrograms(t), func(dp digestProgram) bool {
		kind, _, _ := strings.Cut(dp.name, "/")
		return !slices.Contains([]string{"suite", "livermore", "apps", "golden", "shape"}, kind)
	})
	moved := make([]int, len(progs))
	eachProgram(len(progs), func(i int) {
		dp := progs[i]
		for _, m := range machines {
			run := func(opts codegen.Options) (string, int64) {
				bin, _, err := codegen.Compile(dp.prog, m, opts)
				if err != nil {
					t.Errorf("%s | %s: %v", dp.name, m.Name, err)
					return "", 0
				}
				res, err := (&softpipe.Object{Binary: bin, Machine: m}).Run()
				if err != nil {
					if !corpusRefusal(dp.name, m, err) {
						t.Errorf("%s | %s: %v", dp.name, m.Name, err)
					}
					return "", 0
				}
				return bin.String(), res.Cycles
			}
			rotated, cycles := run(codegen.Options{})
			plain, plainCycles := run(codegen.Options{NoRotation: true})
			if rotated != plain {
				moved[i]++
			}
			if cycles > plainCycles {
				t.Errorf("%s | %s: %d cycles with setup rotated, %d with every outer body in order", dp.name, m.Name, cycles, plainCycles)
			}
		}
	})
	total := 0
	for _, n := range moved {
		total += n
	}
	if total < 40 {
		t.Errorf("the rotation switch changes %d objects; it changed 40 and more when this was written", total)
	}
	t.Logf("%d programs x %d machines: the switch changes %d objects", len(progs), len(machines), total)
}
