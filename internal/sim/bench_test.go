package sim

import (
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// kernelProg builds a small pipelined-kernel-shaped object program: a
// counted loop whose body loads, multiplies, accumulates and stores every
// cycle — the steady-state shape the simulator spends nearly all of its
// time in during the paper's experiments.
func kernelProg(iters int64) *vliw.Program {
	const n = 64
	initF := make([]float64, n)
	for i := range initF {
		initF[i] = float64(i%7) * 0.25
	}
	instrs := []vliw.Instr{
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: iters}}}, // count
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 1, IImm: 0}}},     // ptr
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 2, IImm: 1}}},     // stride
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 3, IImm: 63}}},    // mask
		{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 0, FImm: 0}}},     // acc
		{}, {}, {}, {}, {}, {},
		// Loop body: one wide instruction doing load/fmul/fadd/store plus
		// pointer arithmetic, looped back by DBNZ.
		{
			Ops: []vliw.SlotOp{
				{Class: machine.ClassLoad, Dst: 1, Src: [3]int32{1}, Array: "a"},
				{Class: machine.ClassFMul, Dst: 2, Src: [3]int32{1, 1}},
				{Class: machine.ClassFAdd, Dst: 0, Src: [3]int32{0, 2}},
				{Class: machine.ClassStore, Src: [3]int32{1, 2}, Array: "a"},
				{Class: machine.ClassIAdd, Dst: 4, Src: [3]int32{1, 2}},
				{Class: machine.ClassIAnd, Dst: 1, Src: [3]int32{4}, IImm: 63},
			},
			Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 0, Target: 11},
		},
		{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}},
	}
	return &vliw.Program{
		Name:     "simbench",
		Instrs:   instrs,
		NumFRegs: 8,
		NumIRegs: 8,
		MemWords: n,
		Arrays:   []vliw.ArrayInfo{{Name: "a", Kind: ir.KindFloat, Base: 0, Size: n}},
		InitF:    map[string][]float64{"a": initF},
		InitI:    map[string][]int64{},
	}
}

// BenchmarkSimSteadyState measures the per-cycle cost of the simulator's
// hot loop (ns/cycle and allocs/op); the steady-state loop must allocate
// nothing (see TestSimSteadyStateZeroAllocs for the hard assertion).
func BenchmarkSimSteadyState(b *testing.B) {
	m := machine.Warp()
	p := kernelProg(int64(b.N) + 64) // slack for the warm-up steps
	s := New(p, m)
	// Warm up: run the loop once so ring slots and the store buffer have
	// their steady-state capacity.
	for i := 0; i < 16; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s.Halted() {
		b.Fatal("program halted inside the measured region")
	}
}

// BenchmarkFastSteadyState is the fast path's counterpart of
// BenchmarkSimSteadyState: ns/op is ns/cycle inside an engaged block.
func BenchmarkFastSteadyState(b *testing.B) {
	m := machine.Warp()
	p, err := Decode(kernelProg(int64(b.N)+1_000_000_000), m)
	if err != nil {
		b.Fatal(err)
	}
	s := NewCell(p)
	// Warm up past the preamble so the ring holds the steady pattern.
	for i := 0; i < 64; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	blk := p.blocks[s.pc]
	if blk == nil || !s.tryEngage(blk) {
		b.Fatal("fast path did not engage")
	}
	ii := int64(blk.ii)
	iters := (int64(b.N) + ii - 1) / ii
	b.ResetTimer()
	if _, err := s.fastChunk(blk, 0, iters); err != nil {
		b.Fatal(err)
	}
}

// TestDecodeAllocsIndependentOfLength pins decode (Decode before it builds
// fast-path blocks) at O(1) allocations: the program header, the word
// table and the flat op stream, however many instruction words there are.
func TestDecodeAllocsIndependentOfLength(t *testing.T) {
	m := machine.Warp()
	base := kernelProg(10)
	rep := kernelProg(10)
	body := rep.Instrs[:len(rep.Instrs)-1]
	rep.Instrs = nil
	for i := 0; i < 8; i++ {
		rep.Instrs = append(rep.Instrs, body...)
	}
	rep.Instrs = append(rep.Instrs, base.Instrs[len(base.Instrs)-1])

	allocs := func(p *vliw.Program) float64 {
		return testing.AllocsPerRun(5, func() {
			if d := decode(p, m); d.err != nil {
				t.Fatal(d.err)
			}
		})
	}
	one, eight := allocs(base), allocs(rep)
	if one != eight || one > 3 {
		t.Fatalf("decode allocations: %.0f for %d words, %.0f for %d words; want the same ≤ 3",
			one, len(base.Instrs), eight, len(rep.Instrs))
	}
}

// TestSimSteadyStateZeroAllocs asserts the acceptance criterion directly:
// zero allocations per simulated cycle once the loop is warm.
func TestSimSteadyStateZeroAllocs(t *testing.T) {
	m := machine.Warp()
	p := kernelProg(100_000)
	s := New(p, m)
	for i := 0; i < 16; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10_000, func() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.2f allocs/cycle, want 0", allocs)
	}
}

// BenchmarkSimWholeRun prices a complete Run (decode + execute + state
// snapshot) of a longer loop, the unit of work the parallel harness
// fans out.
func BenchmarkSimWholeRun(b *testing.B) {
	m := machine.Warp()
	p := kernelProg(10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(p, m); err != nil {
			b.Fatal(err)
		}
	}
}
