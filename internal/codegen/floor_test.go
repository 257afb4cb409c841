package codegen_test

import (
	"fmt"
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/workloads"
)

// TestWholeArmFloorIsSound: planBody plans a loop's whole-arm body only
// where the lifted II is above that body's floor, so the floor must be a
// true lower bound.  Every whole-arm body the back end builds is planned
// here anyway, and its II must be at least its floor, which must be at
// least the one sequencer's bound (its construct windows and the
// loop-back).  The compiles cover the digest's RandomProgram draws and
// the Livermore kernels on the sixteen digest machines, then the Livermore
// kernels on Warp and on the compile-exact grid points, and the
// compile-exact pool on Warp.  Enough plans must have been skipped in each
// part that the test says something.
func TestWholeArmFloorIsSound(t *testing.T) {
	// The compiles run one at a time, so the probe needs no lock.
	var probed, skipped int
	at := ""
	restore := codegen.ProbeWholeArms(func(w codegen.WholeArm) {
		probed++
		if w.Skipped {
			skipped++
		}
		switch {
		case w.Err != nil:
			t.Errorf("%s loop %d: floor: %v", at, w.Loop, w.Err)
		case w.ResourceFloor < w.Windows:
			t.Errorf("%s loop %d: resource floor %d below the sequencer's bound %d", at, w.Loop, w.ResourceFloor, w.Windows)
		case w.Floor < w.ResourceFloor:
			t.Errorf("%s loop %d: floor %d below the resource floor %d", at, w.Loop, w.Floor, w.ResourceFloor)
		case w.II != 0 && w.II < w.Floor:
			t.Errorf("%s loop %d: whole-arm plan lands on II %d, below its floor %d", at, w.Loop, w.II, w.Floor)
		}
	})
	defer restore()

	type program struct {
		name string
		p    *ir.Program
	}
	var draws, kernels, pool []program
	for seed := int64(1000); seed < 1080; seed++ {
		draws = append(draws, program{fmt.Sprintf("draw/%d", seed), workloads.RandomProgram(seed)})
	}
	for _, k := range workloads.Livermore() {
		p, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, program{k.Name, p})
	}
	for _, seed := range workloads.ExactSeeds() {
		pool = append(pool, program{fmt.Sprintf("fuzz%d", seed), workloads.RandomProgram(seed)})
	}
	compile := func(progs []program, m *machine.Machine, opts codegen.Options) {
		for _, pr := range progs {
			at = pr.name + "@" + m.Name
			// A refused compile (the 24-register machines run out of
			// float registers for some) has probed its bodies all the same.
			codegen.Compile(pr.p, m, opts)
		}
	}

	warp := machine.Warp()
	for _, m := range digestMachines(t) {
		compile(append(draws, kernels...), m, codegen.Options{})
	}
	digest := skipped
	for _, m := range exactMachines(t) {
		compile(kernels, m, codegen.Options{})
	}
	compile(pool, warp, codegen.Options{})
	t.Logf("%d whole-arm bodies, %d plans skipped (%d on the digest machines, %d on the compile-exact ones)",
		probed, skipped, digest, skipped-digest)
	if digest < minSkippedDigest || skipped-digest < minSkippedExact {
		t.Errorf("skipped %d whole-arm plans on the digest machines and %d on the compile-exact ones, want at least %d and %d",
			digest, skipped-digest, minSkippedDigest, minSkippedExact)
	}
}

// The whole-arm plans TestWholeArmFloorIsSound must see skipped, a little
// under the counts it logs.
const (
	minSkippedDigest = 250
	minSkippedExact  = 15
)

// digestMachines are the sixteen machines of the corpus digest: Warp, the
// doubled Warp, the sweep grid with its rotating twins, and a 24-register
// pair where the copy budget binds.
func digestMachines(t *testing.T) []*machine.Machine {
	t.Helper()
	ms := []*machine.Machine{machine.Warp(), machine.Wide(2)}
	grid := append(machine.DefaultGrid(),
		machine.Gen{FAdds: 2, FMuls: 2, MemPorts: 2, FloatRegs: 24},
		machine.Gen{FAdds: 2, FMuls: 2, MemPorts: 2, FloatRegs: 24, RotatingRegs: true})
	for _, g := range grid {
		m, err := g.Machine()
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// exactMachines are Warp and the grid points the compile-exact benchmark
// draws from: the rotating point at width 1 and the MVE points at widths
// 2 and 4, each with one and with two memory ports.
func exactMachines(t *testing.T) []*machine.Machine {
	t.Helper()
	ms := []*machine.Machine{machine.Warp()}
	for _, g := range []machine.Gen{
		{FAdds: 1, FMuls: 1, RotatingRegs: true}, {FAdds: 2, FMuls: 2}, {FAdds: 4, FMuls: 4},
	} {
		for ports := 1; ports <= 2; ports++ {
			g.MemPorts = ports
			m, err := g.Machine()
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, m)
		}
	}
	return ms
}
