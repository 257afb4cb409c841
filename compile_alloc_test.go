package softpipe

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/partition"
	"softpipe/internal/verify"
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

// verifyAllocCeilings bound the bytes and allocations of one
// verify.Program on the objects BenchmarkVerifyProgram measures, compiled
// pipelined: what each run takes (21,776 bytes in 63 allocations, 52,160
// in 66, 71,123 in 67 and 68,000 in 67), plus a tenth.  Before leaves were
// numbered outside the hash table, one term store was kept between runs
// and the resource check stopped formatting a string per folded row,
// the same runs took 85 KB / 195 (saxpy), 254 KB / 376 (k1), 768 KB /
// 505 (k7 on Warp) and 759 KB / 348 (k7 on the rotating point).
var verifyAllocCeilings = map[string]struct{ bytes, allocs float64 }{
	"saxpy":  {23_954, 69},
	"k1":     {57_376, 73},
	"k7":     {78_235, 74},
	"k7/rot": {74_800, 74},
}

// TestVerifyAllocBudget: a verification allocates about what it proves —
// the two machines' registers and memory, and the term store only when
// the kept one is too small — and does not creep back up.
func TestVerifyAllocBudget(t *testing.T) {
	src, err := os.ReadFile("testdata/saxpy.w2")
	if err != nil {
		t.Fatal(err)
	}
	saxpy, err := lang.Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]*ir.Program{"saxpy": saxpy}
	for _, k := range workloads.Livermore() {
		if k.ID == 1 || k.ID == 7 {
			if progs[fmt.Sprintf("k%d", k.ID)], err = k.Build(); err != nil {
				t.Fatal(err)
			}
		}
	}
	progs["k7/rot"] = progs["k7"]
	for name, ceiling := range verifyAllocCeilings {
		mach := "warp"
		if name == "k7/rot" {
			mach = "gen:fa1,fm1,mem1,lat7/7/3,fr62,rot"
		}
		m, err := machine.Parse(mach)
		if err != nil {
			t.Fatal(err)
		}
		p := progs[name]
		obj, _, err := codegen.Compile(p, m, codegen.Options{Mode: codegen.ModePipelined})
		if err != nil {
			t.Fatal(err)
		}
		bytes, allocs := allocsPerRun(20, func() {
			if err := verify.Program(p, obj, m); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f bytes, %.0f allocations", name, bytes, allocs)
		if bytes > ceiling.bytes*raceAllocSlack || allocs > ceiling.allocs*raceAllocSlack {
			t.Errorf("%s: a verification takes %.0f bytes in %.0f allocations, ceiling %.0f in %.0f",
				name, bytes, allocs, ceiling.bytes*raceAllocSlack, ceiling.allocs*raceAllocSlack)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun that also reports bytes: the mean
// over runs calls of f, after one warm-up call, on one OS thread.
func allocsPerRun(runs int, f func()) (bytes, allocs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// partitionAllocCeiling bounds the allocations of one
// partition.PartitionContext of k7 on four Warp cells, the widest split
// search of the corpus: what it takes (1,046), plus a tenth.  While every
// candidate stage built its own dependence graph, the same plan made
// 16,098.
const partitionAllocCeiling = 1151

// TestPartitionAllocBudget: the split search costs a candidate stage
// without allocating, so a plan allocates what it builds once — the
// body's graph and clusters per machine, the tables of the search, the
// fragments it returns — and does not creep back up.
func TestPartitionAllocBudget(t *testing.T) {
	var k7 *ir.Program
	for _, k := range workloads.Livermore() {
		if k.ID == 7 {
			var err error
			if k7, err = k.Build(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ms := Machines(machine.Warp(), 4)
	plan := func() {
		if _, err := partition.PartitionContext(context.Background(), k7, ms); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(20, plan)
	t.Logf("k7 on 4 cells: %.0f allocations", got)
	if got > partitionAllocCeiling*raceAllocSlack {
		t.Errorf("k7 on 4 cells: a plan makes %.0f allocations, ceiling %.0f", got, partitionAllocCeiling*raceAllocSlack)
	}
}
