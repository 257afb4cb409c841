package softpipe

import (
	"fmt"
	"os"
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/workloads"
)

// compileAllocCeilings bound the allocations of one softpipe.Compile on
// Warp: what each program takes (211, 296, 2,529 and 731), plus a tenth.
// Before the compile carved nodes, operand lists and rows from slabs,
// kept its list-scheduling tables flat and pooled, and built each loop
// body's graph once, the same compiles made 931 (saxpy), 2,255 (k7),
// 11,990 (k18) and 3,198 (the suite's first program, which has a
// conditional) allocations.
var compileAllocCeilings = map[string]float64{
	"saxpy":       233,
	"k7":          326,
	"k18":         2782,
	"suite-cond0": 805,
}

// raceAllocSlack widens the ceilings under the race detector, whose
// sync.Pool drops a share of what is put back (race_test.go).
var raceAllocSlack = 1.0

// TestCompileAllocBudget: a compile's allocation count does not creep
// back up.  The compile allocates what it returns and little else: nodes,
// operand lists and rows come from slabs, the list scheduler's tables
// from a pool.
func TestCompileAllocBudget(t *testing.T) {
	progs := map[string]*ir.Program{}
	src, err := os.ReadFile("testdata/saxpy.w2")
	if err != nil {
		t.Fatal(err)
	}
	if progs["saxpy"], err = lang.Compile(string(src)); err != nil {
		t.Fatal(err)
	}
	for _, k := range workloads.Livermore() {
		if k.ID == 7 || k.ID == 18 {
			if progs[fmt.Sprintf("k%d", k.ID)], err = k.Build(); err != nil {
				t.Fatal(err)
			}
		}
	}
	progs["suite-cond0"] = workloads.Suite()[0].Prog
	m := machine.Warp()
	for name, ceiling := range compileAllocCeilings {
		p := progs[name]
		if p == nil {
			t.Fatalf("no program %s", name)
		}
		compile := func() {
			if _, err := Compile(p, m, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		compile()
		got := testing.AllocsPerRun(20, compile)
		t.Logf("%s: %.0f allocations", name, got)
		if got > ceiling*raceAllocSlack {
			t.Errorf("%s: a compile makes %.0f allocations, ceiling %.0f", name, got, ceiling*raceAllocSlack)
		}
	}
}
