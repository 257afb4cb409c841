package compiled

import (
	"context"
	"fmt"
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/vliw"
	"softpipe/internal/workloads"
)

// diffEngines runs prog step-only (sim.Run) and on the fast path (Run) and
// demands bit-identical final state, stats, and error behavior.  Returns
// the step-only outcome for further checks.
func diffEngines(t *testing.T, name string, prog *vliw.Program, m *machine.Machine) (*ir.State, sim.Stats) {
	t.Helper()
	wantSt, wantStats, wantErr := sim.Run(prog, m)
	gotSt, gotStats, gotErr := Run(prog, m)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error divergence: interp=%v compiled=%v", name, wantErr, gotErr)
	}
	if wantErr != nil {
		return nil, wantStats
	}
	if d := wantSt.Diff(gotSt); d != "" {
		t.Fatalf("%s: state diverges: %s", name, d)
	}
	if wantStats != gotStats {
		t.Fatalf("%s: stats diverge: interp=%+v compiled=%+v", name, wantStats, gotStats)
	}
	return wantSt, wantStats
}

// TestDifferentialLivermore: every Livermore kernel, pipelined and
// unpipelined, must agree bit-exactly between engines (the pipelined
// binaries exercise the fast path on real modulo-scheduled kernels).
func TestDifferentialLivermore(t *testing.T) {
	m := machine.Warp()
	for _, k := range workloads.Livermore() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			p, err := k.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []codegen.Mode{codegen.ModePipelined, codegen.ModeUnpipelined} {
				prog, _, err := codegen.Compile(p, m, codegen.Options{Mode: mode})
				if err != nil {
					t.Fatalf("compile mode %v: %v", mode, err)
				}
				diffEngines(t, fmt.Sprintf("%s/mode%v", k.Name, mode), prog, m)
			}
		})
	}
}

// TestDifferentialFuzzCorpus replays the checked-in fuzz corpus seeds
// (plus a contiguous range covering all four generator shape families)
// through every compilation configuration on both engines.
func TestDifferentialFuzzCorpus(t *testing.T) {
	m := machine.Warp()
	seeds := []int64{0, 1, 2, 3, 64, 101, 202, 303}
	for s := int64(4); s < 40; s++ {
		seeds = append(seeds, s)
	}
	configs := []codegen.Options{
		{Mode: codegen.ModeUnpipelined},
		{Mode: codegen.ModePipelined},
		{Mode: codegen.ModePipelined, UnrollInnerTrip: 5},
		{Mode: codegen.ModePipelined, DisableHier: true},
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			p := workloads.RandomProgram(seed)
			for ci, opts := range configs {
				prog, _, err := codegen.Compile(p, m, opts)
				if err != nil {
					t.Fatalf("cfg %d: compile: %v", ci, err)
				}
				diffEngines(t, fmt.Sprintf("seed%d/cfg%d", seed, ci), prog, m)
			}
		})
	}
}

// TestDifferentialArray: queue-coupled programs (the systolic matmul and
// a backpressured producer/consumer) must produce identical outputs,
// final state, stats, and stall patterns with compiled cells in the
// array.
func TestDifferentialArray(t *testing.T) {
	m := machine.Warp()
	src := workloads.SystolicMatmulSource(8, 4)
	cellProg := compileW2(t, src, m)
	n := 8
	a := make([]float64, n*n)
	bm := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.25
		bm[i] = float64(i%5)*0.5 - 1
	}
	input := make([]float64, 0, 2*n*n)
	input = append(input, bm...)
	input = append(input, a...)

	runBoth := func(t *testing.T, mk func() *sim.Sim, cells int, input []float64) {
		t.Helper()
		ref := sim.NewHomogeneousArray(cellProg, m, cells, input)
		wantOut, wantSt, wantErr := ref.Run()

		cc := make([]*sim.Sim, cells)
		for i := range cc {
			cc[i] = mk()
		}
		arr := sim.NewArrayCells(cc, input)
		gotOut, gotSt, gotErr := arr.Run()

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error divergence: interp=%v compiled=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if len(wantOut) != len(gotOut) {
			t.Fatalf("output length %d vs %d", len(wantOut), len(gotOut))
		}
		for i := range wantOut {
			if wantOut[i] != gotOut[i] {
				t.Fatalf("output[%d] = %v vs %v", i, wantOut[i], gotOut[i])
			}
		}
		if d := wantSt.Diff(gotSt); d != "" {
			t.Fatalf("last-cell state diverges: %s", d)
		}
		wantStats, gotStats := ref.Stats(), arr.Stats()
		if wantStats != gotStats {
			t.Fatalf("array stats diverge: %+v vs %+v", wantStats, gotStats)
		}
	}

	cp, err := Build(cellProg, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("systolic", func(t *testing.T) {
		runBoth(t, func() *sim.Sim { return NewCell(cp) }, 4, input)
	})
	t.Run("mixed-engines", func(t *testing.T) {
		// Interleave interpreter and compiled cells in one array: the
		// Cell interface promises they are interchangeable mid-pipeline.
		ref := sim.NewHomogeneousArray(cellProg, m, 4, input)
		wantOut, wantSt, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}
		cells := []*sim.Sim{sim.New(cellProg, m), NewCell(cp), sim.New(cellProg, m), NewCell(cp)}
		arr := sim.NewArrayCells(cells, input)
		gotOut, gotSt, err := arr.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(wantOut) != len(gotOut) {
			t.Fatalf("output length %d vs %d", len(wantOut), len(gotOut))
		}
		for i := range wantOut {
			if wantOut[i] != gotOut[i] {
				t.Fatalf("output[%d] = %v vs %v", i, wantOut[i], gotOut[i])
			}
		}
		if d := wantSt.Diff(gotSt); d != "" {
			t.Fatalf("state diverges: %s", d)
		}
	})
}

// TestStallParityLockstep steps an interpreter cell and a compiled cell
// against identical queues cycle by cycle and demands the same stall
// decision (and BlockedOn report) at every step — the stall behavior is
// part of the timing contract, not just the final state.
func TestStallParityLockstep(t *testing.T) {
	m := machine.Warp()
	// recv → fadd → send loop; starved input and a tiny output queue
	// force both kinds of stall.
	p := &vliw.Program{
		Name: "relay", NumFRegs: 4, NumIRegs: 2,
		Instrs: []vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 2, FImm: 10}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: 6}}},
			{}, {}, {}, {}, {}, {},
			{Ops: []vliw.SlotOp{{Class: machine.ClassRecv, Dst: 0}}},
			{}, {},
			{Ops: []vliw.SlotOp{{Class: machine.ClassFAdd, Dst: 1, Src: []int{0, 2}}}},
			{}, {}, {}, {}, {}, {}, {},
			{Ops: []vliw.SlotOp{{Class: machine.ClassSend, Src: []int{1}}},
				Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 0, Target: 8}},
			{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}},
		},
	}
	cp, err := Build(p, m)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(p, m)
	cc := NewCell(cp)
	inR, outR := sim.NewQueue(0), sim.NewQueue(2)
	inC, outC := sim.NewQueue(0), sim.NewQueue(2)
	ref.SetQueues(inR, outR)
	cc.SetQueues(inC, outC)

	feed := []float64{1, 2, 3, 4, 5, 6}
	fed, drained := 0, 0
	for cycle := 0; cycle < 10_000 && (!ref.Halted() || !cc.Halted()); cycle++ {
		// Trickle input and drain output on a fixed pattern so both
		// cells see identical queue dynamics.
		if cycle%37 == 0 && fed < len(feed) {
			inR.Push(feed[fed])
			inC.Push(feed[fed])
			fed++
		}
		if cycle%53 == 0 && !outR.Empty() && !outC.Empty() {
			a, b := outR.Pop(), outC.Pop()
			if a != b {
				t.Fatalf("cycle %d: output value %v vs %v", cycle, a, b)
			}
			drained++
		}
		sR, errR := ref.Step()
		sC, errC := cc.Step()
		if (errR == nil) != (errC == nil) {
			t.Fatalf("cycle %d: error divergence: %v vs %v", cycle, errR, errC)
		}
		if sR != sC {
			t.Fatalf("cycle %d: stall divergence: interp=%v compiled=%v", cycle, sR, sC)
		}
		if sR {
			clR, pcR, tR, _ := ref.BlockedOn()
			clC, pcC, tC, _ := cc.BlockedOn()
			if clR != clC || pcR != pcC || tR != tC {
				t.Fatalf("cycle %d: BlockedOn (%v,%d,%d) vs (%v,%d,%d)",
					cycle, clR, pcR, tR, clC, pcC, tC)
			}
		}
	}
	if !ref.Halted() || !cc.Halted() {
		t.Fatal("cells did not halt in lockstep run")
	}
	if ref.Stats() != cc.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", ref.Stats(), cc.Stats())
	}
}

// kernelProg mirrors internal/sim/bench_test.go: a steady-state saxpy-
// like kernel in one wide word with a DBNZ self-loop — the shape the fast
// path must engage.
func kernelProg(iters int64) *vliw.Program {
	const n = 64
	init := make([]float64, n)
	for i := range init {
		init[i] = float64(i) * 0.5
	}
	return &vliw.Program{
		Name:     "kernel",
		NumFRegs: 8,
		NumIRegs: 8,
		MemWords: n,
		Arrays:   []vliw.ArrayInfo{{Name: "a", Kind: ir.KindFloat, Base: 0, Size: n}},
		InitF:    map[string][]float64{"a": init},
		Results:  []vliw.Result{{Name: "acc", Kind: ir.KindFloat, Reg: 5}},
		Instrs: []vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: iters}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 1, IImm: 0}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 2, IImm: 1}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 3, IImm: n - 1}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 1, FImm: 1.000001}}},
			{}, {}, {}, {}, {}, {},
			{Ops: []vliw.SlotOp{
				{Class: machine.ClassLoad, Dst: 2, Src: []int{1}, Array: "a"},
				{Class: machine.ClassFMul, Dst: 4, Src: []int{2, 1}},
				{Class: machine.ClassFAdd, Dst: 5, Src: []int{5, 4}},
				{Class: machine.ClassStore, Src: []int{1, 4}, Array: "a"},
				{Class: machine.ClassIAdd, Dst: 4, Src: []int{1, 2}},
				{Class: machine.ClassIAnd, Dst: 1, Src: []int{4}, IImm: n - 1},
			}, Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 0, Target: 11}},
			{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}},
		},
	}
}

// TestFastPathEngages pins that the steady-state kernel actually takes
// the fast path (a regression here silently voids the perf win) and
// still matches the interpreter bit-for-bit across trip counts that
// cover warm-up-only runs, the engagement boundary, and deep steady
// state.
func TestFastPathEngages(t *testing.T) {
	m := machine.Warp()
	cp, err := Build(kernelProg(50_000), m)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Blocks() != 1 {
		t.Fatalf("Blocks() = %d, want 1 (fast path not eligible?)", cp.Blocks())
	}
	for _, iters := range []int64{1, 2, 3, 7, 8, 9, 20, 64, 1000, 50_000} {
		diffEngines(t, fmt.Sprintf("kernel-%d", iters), kernelProg(iters), m)
	}
}

// TestFastPathBudgetParity: MaxCycles overruns must be reported at the
// identical cycle and pc whether or not the fast path was engaged when
// the budget ran out.
func TestFastPathBudgetParity(t *testing.T) {
	m := machine.Warp()
	for _, max := range []int64{5, 11, 12, 100, 101, 500} {
		p := kernelProg(1 << 40) // effectively infinite
		ref := sim.New(p, m)
		ref.MaxCycles = max
		_, errR := ref.Run()
		cp, err := Build(p, m)
		if err != nil {
			t.Fatal(err)
		}
		cc := NewCell(cp)
		cc.MaxCycles = max
		_, errC := cc.Run()
		if errR == nil || errC == nil {
			t.Fatalf("max=%d: expected overrun from both engines (interp=%v compiled=%v)", max, errR, errC)
		}
		if errR.Error() != errC.Error() {
			t.Fatalf("max=%d: overrun differs:\n  interp:   %v\n  compiled: %v", max, errR, errC)
		}
	}
}

// TestCompiledCtx: both Run and Drain honor the context, like the
// interpreter after the satellite fix.
func TestCompiledCtx(t *testing.T) {
	m := machine.Warp()
	cp, err := Build(kernelProg(1<<40), m)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCell(cp)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.Ctx = ctx
	if _, err := c.Run(); err == nil || ctx.Err() == nil {
		t.Fatalf("Run with canceled ctx: err=%v", err)
	}
}

// TestBatchDifferential runs N lanes with per-lane inputs and array
// overrides; every lane must match a fresh interpreter run with the same
// parameters.
func TestBatchDifferential(t *testing.T) {
	m := machine.Warp()
	prog := kernelProg(5000)
	cp, err := Build(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	lanes := make([]Lane, n)
	for i := range lanes {
		vals := make([]float64, 64)
		for j := range vals {
			vals[j] = float64(i+1) + float64(j)*0.125
		}
		lanes[i] = Lane{FloatArrays: map[string][]float64{"a": vals}}
	}
	b := NewBatch(cp, lanes)
	results, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("lane %d: %v", i, res.Err)
		}
		ref := sim.New(prog, m)
		// Rebuild the same override through a fresh interpreter run.
		refProg := kernelProg(5000)
		refProg.InitF = map[string][]float64{"a": lanes[i].FloatArrays["a"]}
		ref = sim.New(refProg, m)
		wantSt, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}
		if d := wantSt.Diff(res.State); d != "" {
			t.Fatalf("lane %d diverges: %s", i, d)
		}
		if ref.Stats() != res.Stats {
			t.Fatalf("lane %d stats: %+v vs %+v", i, ref.Stats(), res.Stats)
		}
	}
	// Lanes must be isolated: distinct overrides produce distinct sums.
	if results[0].State.Scalars["acc"] == results[1].State.Scalars["acc"] {
		t.Fatal("lanes 0 and 1 computed identical state from different inputs")
	}
}

// TestWordDedup: repeated identical instruction words share one compiled
// word, so build work is bounded by the distinct-word count.
func TestWordDedup(t *testing.T) {
	m := machine.Warp()
	base := kernelProg(10)
	if got := mustBuild(t, base, m).DistinctWords(); got >= len(base.Instrs) {
		// the empty filler words dedup to one
		t.Fatalf("DistinctWords() = %d for %d instrs; empty words should share", got, len(base.Instrs))
	}
	// 8× replication of the same body must not multiply distinct words.
	rep := kernelProg(10)
	var instrs []vliw.Instr
	for i := 0; i < 8; i++ {
		instrs = append(instrs, rep.Instrs[:len(rep.Instrs)-1]...)
	}
	instrs = append(instrs, vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}})
	rep.Instrs = instrs
	one := mustBuild(t, base, m).DistinctWords()
	eight := mustBuild(t, rep, m).DistinctWords()
	if eight != one {
		t.Fatalf("distinct words grew under replication: %d vs %d", eight, one)
	}
}

func mustBuild(t *testing.T, p *vliw.Program, m *machine.Machine) *Program {
	t.Helper()
	cp, err := Build(p, m)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// compileW2 compiles W2 source text to a cell binary (array tests).
func compileW2(t *testing.T, src string, m *machine.Machine) *vliw.Program {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	bin, _, err := codegen.Compile(p, m, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return bin
}
