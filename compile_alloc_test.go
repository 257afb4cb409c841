package softpipe

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/partition"
	"softpipe/internal/sim"
	"softpipe/internal/trace"
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

// readMostlySrc is an all-float kernel that reads a 4,096-word table and
// writes 64 words.
const readMostlySrc = `
program readmostly;
var x: array [0..4095] of real;
    y: array [0..63] of real;
    i: int;
begin
  for i := 0 to 63 do
    y[i] := x[i] * x[i+2048] + x[i+4000];
end.
`

// runAllocSlack is what the first run of readmostly allocates besides
// y's words: the decoded program (its op stream is most of it), the
// fast-path blocks, registers, write-back ring, array table, state maps
// and Result.  The first Object.Run takes 26,648 bytes of it (64 are the
// object), the step-only sim.Run 14,664 (33,960 and 22,184 while a run
// also copied y out, 54,280 and 41,256 while a decoded slot op was 232
// bytes, not 72).  A later run of the same object starts from the program
// its first run decoded and takes rerunAllocSlack besides y: the cell,
// its registers, ring and array table, the state maps and Result, 4,032
// bytes; it took the first run's 26,584 while every run decoded the
// binary again.
const (
	runAllocSlack   = 60_000
	rerunAllocSlack = 8_000
)

// TestRunAllocBudget: a run allocates memory only for the arrays its
// program writes and hands those words to its result.  On readmostly that
// is y's words once, 64 × 8 bytes, plus runAllocSlack: the first
// Object.Run of an object takes 27,160 bytes and sim.Run 15,176.
// Allocating the float span, x included, and copying y out made them take
// 67,752 and 55,976; allocating every memory word twice and copying every
// array out, 161,768 and 148,744.  A second Object.Run of an object
// decodes nothing: y's words plus rerunAllocSlack.
func TestRunAllocBudget(t *testing.T) {
	obj := compileReadMostly(t, nil)
	for _, run := range []struct {
		name  string
		slack float64
		f     func() error
	}{
		{"first Object.Run", runAllocSlack, func() error {
			_, err := (&Object{Binary: obj.Binary, Machine: obj.Machine}).Run()
			return err
		}},
		{"second Object.Run", rerunAllocSlack, func() error { _, err := obj.Run(); return err }},
		{"sim.Run", runAllocSlack, func() error { _, _, err := sim.Run(obj.Binary, obj.Machine); return err }},
	} {
		bytes, _ := allocsPerRun(20, func() {
			if err := run.f(); err != nil {
				t.Fatal(err)
			}
		})
		ceiling := (64*8 + run.slack) * raceAllocSlack
		t.Logf("%s: %.0f bytes", run.name, bytes)
		if bytes > ceiling {
			t.Errorf("%s: a run of readmostly takes %.0f bytes, ceiling %.0f", run.name, bytes, ceiling)
		}
	}
}

// compileReadMostly compiles readmostly on Warp with x preset in full.
func compileReadMostly(t *testing.T, tr *Tracer) *Object {
	t.Helper()
	p, err := ParseSource(readMostlySrc)
	if err != nil {
		t.Fatal(err)
	}
	x := p.Array("x")
	x.InitF = make([]float64, x.Size)
	for i := range x.InitF {
		x.InitF[i] = float64(i) / 64
	}
	obj, err := Compile(p, machine.Warp(), Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestRunSpanCountsWords: Object.Run's "sim.run" span holds its
// "sim.decode" span and says how many memory words the cell allocated
// (y: x, which no store writes, is read in place) and how many the result
// copied (none: a halted cell hands its words over).
func TestRunSpanCountsWords(t *testing.T) {
	tr := NewTracer("run")
	if _, err := compileReadMostly(t, tr).Run(); err != nil {
		t.Fatal(err)
	}
	var run, dec *trace.Event
	for _, e := range tr.Events() {
		switch e.Name {
		case "sim.run":
			run = &e
		case "sim.decode":
			dec = &e
		}
	}
	if run == nil || dec == nil {
		t.Fatalf("sim.run %v, sim.decode %v: want both spans", run, dec)
	}
	if dec.TS < run.TS || dec.TS+dec.Dur > run.TS+run.Dur {
		t.Errorf("sim.decode [%d, +%d] is not inside sim.run [%d, +%d]", dec.TS, dec.Dur, run.TS, run.Dur)
	}
	args := map[string]int64{}
	for _, a := range run.Args {
		args[a.Key] = a.Val
	}
	if args["mem_words"] != 64 || args["copied_words"] != 0 || args["cycles"] == 0 {
		t.Errorf("sim.run args %v, want mem_words 64, copied_words 0 and the cycles", args)
	}
}

// TestConcurrentRunsShareInitialData: concurrent runs of one object read
// its input table x in place at once — eight goroutines each run
// Object.Run and a cell of one decoded program, while a 4-lane batch runs
// on that program too, the daemon's concurrent /runs on one cache entry —
// and every result is the step-only reference's.  Under the race
// detector it also shows that no run writes the shared table.
func TestConcurrentRunsShareInitialData(t *testing.T) {
	obj := compileReadMostly(t, nil)
	want, wantStats, err := sim.Run(obj.Binary, obj.Machine)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sim.Decode(obj.Binary, obj.Machine)
	if err != nil {
		t.Fatal(err)
	}
	check := func(who string, st *State, cycles, flops int64, err error) {
		switch {
		case err != nil:
			t.Errorf("%s: %v", who, err)
		case cycles != wantStats.Cycles || flops != wantStats.Flops:
			t.Errorf("%s: %d cycles, %d flops; want %d, %d", who, cycles, flops, wantStats.Cycles, wantStats.Flops)
		default:
			if d := want.Diff(st); d != "" {
				t.Errorf("%s differs from step-only: %s", who, d)
			}
		}
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := obj.Run(); err != nil {
				check(fmt.Sprintf("goroutine %d Object.Run", g), nil, 0, 0, err)
			} else {
				check(fmt.Sprintf("goroutine %d Object.Run", g), res.State, res.Cycles, res.Flops, nil)
			}
			cell := sim.NewCell(prog)
			st, err := cell.Run()
			check(fmt.Sprintf("goroutine %d cell", g), st, cell.Stats().Cycles, cell.Stats().Flops, err)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := sim.NewBatch(prog, make([]sim.Lane, 4)).Run(context.Background())
		if err != nil {
			t.Error(err)
			return
		}
		for i, r := range res {
			check(fmt.Sprintf("lane %d", i), r.State, r.Stats.Cycles, r.Stats.Flops, r.Err)
		}
	}()
	wg.Wait()
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
// body's graph and clusters, the tables of the search, the
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
