package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// prog builds a minimal program skeleton with one float and one int array.
func prog(instrs []vliw.Instr) *vliw.Program {
	return &vliw.Program{
		Name:     "t",
		Instrs:   instrs,
		NumFRegs: 8,
		NumIRegs: 8,
		MemWords: 16,
		Arrays: []vliw.ArrayInfo{
			{Name: "f", Kind: ir.KindFloat, Base: 0, Size: 8},
			{Name: "n", Kind: ir.KindInt, Base: 8, Size: 8},
		},
		InitF: map[string][]float64{"f": {1, 2, 3, 4, 5, 6, 7, 8}},
		InitI: map[string][]int64{"n": {10, 20, 30, 0, 0, 0, 0, 0}},
	}
}

func halt() vliw.Instr { return vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}} }

func TestWriteBackLatency(t *testing.T) {
	m := machine.Warp()
	// fconst f0=2 at cycle 0 lands at cycle 7; an fadd issued at cycle 1
	// must still read the OLD f0 (zero), while one at cycle 7 reads 2.
	p := prog([]vliw.Instr{
		{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 0, FImm: 2}}},           // t0
		{Ops: []vliw.SlotOp{{Class: machine.ClassFAdd, Dst: 1, Src: [3]int32{0, 0}}}}, // t1: f1 = 0+0
		{}, {}, {}, {}, {}, // t2..t6
		{Ops: []vliw.SlotOp{{Class: machine.ClassFAdd, Dst: 2, Src: [3]int32{0, 0}}}}, // t7: f2 = 2+2
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: 0}}},           // addr
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 1, IImm: 1}}},           //
		{}, {}, {}, {}, {},
		{Ops: []vliw.SlotOp{{Class: machine.ClassStore, Src: [3]int32{0, 1}, Array: "f"}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassStore, Src: [3]int32{1, 2}, Array: "f", Disp: 0}}},
		halt(),
	})
	st, _, err := Run(p, m)
	if err != nil {
		t.Fatal(err)
	}
	if st.FloatArrays["f"][0] != 0 {
		t.Errorf("early fadd saw the in-flight write: f[0]=%v", st.FloatArrays["f"][0])
	}
	if st.FloatArrays["f"][1] != 4 {
		t.Errorf("late fadd missed the landed write: f[1]=%v", st.FloatArrays["f"][1])
	}
}

func TestStoreAfterLoadSameCycle(t *testing.T) {
	m := machine.Warp()
	// In one instruction: load f0 <- f[0] and store f[0] <- f1.  The load
	// must see the OLD value.
	p := prog([]vliw.Instr{
		{Ops: []vliw.SlotOp{
			{Class: machine.ClassIConst, Dst: 0, IImm: 0},
		}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 1, FImm: 42}}},
		{}, {}, {}, {}, {}, {},
		{Ops: []vliw.SlotOp{
			{Class: machine.ClassLoad, Dst: 0, Src: [3]int32{0}, Array: "f"},
			{Class: machine.ClassStore, Src: [3]int32{0, 1}, Array: "f"},
		}},
		{}, {}, {},
		// store the loaded value to f[1]
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 1, IImm: 1}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassStore, Src: [3]int32{1, 0}, Array: "f"}}},
		halt(),
	})
	st, _, err := Run(p, m)
	if err != nil {
		t.Fatal(err)
	}
	if st.FloatArrays["f"][0] != 42 {
		t.Errorf("store lost: f[0]=%v", st.FloatArrays["f"][0])
	}
	if st.FloatArrays["f"][1] != 1 {
		t.Errorf("same-cycle load must see the old value, got %v", st.FloatArrays["f"][1])
	}
}

func TestDBNZLoop(t *testing.T) {
	m := machine.Warp()
	// Count 5 iterations: i1 += 1 each pass.
	p := prog([]vliw.Instr{
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: 5}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 1, IImm: 0}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 2, IImm: 1}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassIAdd, Dst: 1, Src: [3]int32{1, 2}}},
			Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 0, Target: 3}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 3, IImm: 8}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassStore, Src: [3]int32{3, 1}, Array: "n"}}},
		halt(),
	})
	st, stats, err := Run(p, m)
	if err != nil {
		t.Fatal(err)
	}
	if st.IntArrays["n"][0] != 5 {
		t.Errorf("loop ran %d times, want 5", st.IntArrays["n"][0])
	}
	if stats.Instrs != 3+5+2+1 {
		t.Errorf("executed %d instruction words", stats.Instrs)
	}
}

func TestConditionalBranches(t *testing.T) {
	m := machine.Warp()
	// JZ taken and not taken.
	p := prog([]vliw.Instr{
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: 0}}}, // i0 = 0
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 1, IImm: 8}}}, // addr
		{Ctl: vliw.Ctl{Kind: vliw.CtlJZ, Reg: 0, Target: 5}},                // taken
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 2, IImm: 111}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassStore, Src: [3]int32{1, 2}, Array: "n"}}},
		{Ctl: vliw.Ctl{Kind: vliw.CtlJNZ, Reg: 0, Target: 8}}, // not taken
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 3, IImm: 7}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassStore, Src: [3]int32{1, 3}, Array: "n"}}},
		halt(),
	})
	st, _, err := Run(p, m)
	if err != nil {
		t.Fatal(err)
	}
	if st.IntArrays["n"][0] != 7 {
		t.Errorf("branching wrong: n[0]=%d, want 7 (skip 111, write 7)", st.IntArrays["n"][0])
	}
}

func TestWriteBackConflictDetected(t *testing.T) {
	m := machine.Warp()
	// Two fconsts to the same register in the same cycle.
	p := prog([]vliw.Instr{
		{Ops: []vliw.SlotOp{
			{Class: machine.ClassFConst, Dst: 0, FImm: 1},
		}},
		halt(),
	})
	// Force conflict: issue a second write landing the same cycle via a
	// 7-cycle op at t0 and another at t0 in the same slot list.
	p.Instrs[0].Ops = append(p.Instrs[0].Ops, vliw.SlotOp{Class: machine.ClassFMov, Dst: 0, Src: [3]int32{1}})
	_, _, err := Run(p, m)
	if err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("want write-back conflict, got %v", err)
	}
}

func TestOutOfBoundsDetected(t *testing.T) {
	m := machine.Warp()
	p := prog([]vliw.Instr{
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: 99}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassLoad, Dst: 0, Src: [3]int32{0}, Array: "f"}}},
		halt(),
	})
	_, _, err := Run(p, m)
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("want bounds error, got %v", err)
	}
}

func TestRunawayGuard(t *testing.T) {
	m := machine.Warp()
	p := prog([]vliw.Instr{
		{Ctl: vliw.Ctl{Kind: vliw.CtlJump, Target: 0}},
		halt(),
	})
	s := New(p, m)
	s.MaxCycles = 1000
	if _, err := s.Run(); err == nil {
		t.Fatal("want cycle-limit error")
	}
}

func TestMFLOPSAccounting(t *testing.T) {
	m := machine.Warp()
	p := prog([]vliw.Instr{
		{Ops: []vliw.SlotOp{
			{Class: machine.ClassFAdd, Dst: 0, Src: [3]int32{1, 2}},
			{Class: machine.ClassFMul, Dst: 3, Src: [3]int32{1, 2}},
		}},
		halt(),
	})
	_, stats, err := Run(p, m)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Flops != 2 {
		t.Errorf("flops = %d, want 2", stats.Flops)
	}
	// 2 flops over (2 cycles + 6 drain) at 5 MHz.
	want := 2.0 * 5 / float64(stats.Cycles)
	if got := stats.MFLOPS(m, 1); got != want {
		t.Errorf("MFLOPS = %v, want %v", got, want)
	}
	if got := stats.MFLOPS(m, 10); got != 10*want {
		t.Errorf("array MFLOPS = %v, want %v", got, 10*want)
	}
}

func TestTraceOutput(t *testing.T) {
	m := machine.Warp()
	p := prog([]vliw.Instr{
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: 2}}},
		{Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 0, Target: 1}},
		halt(),
	})
	var buf strings.Builder
	s := New(p, m)
	s.Trace = &buf
	s.TraceCycles = 3
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "iconst 2") || !strings.Contains(out, "dbnz") {
		t.Errorf("trace missing content:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n != 3 {
		t.Errorf("trace has %d lines, want 3 (TraceCycles)", n)
	}
}

func TestSelectAndSeedsInSim(t *testing.T) {
	m := machine.Warp()
	p := prog([]vliw.Instr{
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: 1}}}, // cond true
		{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 0, FImm: 4}}}, // f0 = 4
		{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 1, FImm: 9}}}, // f1 = 9
		{}, {}, {}, {}, {}, {},
		// float select (FImm=1 marks float), picks f0
		{Ops: []vliw.SlotOp{{Class: machine.ClassISelect, Dst: 2, Src: [3]int32{0, 0, 1}, FImm: 1}}},
		// int select, cond=1 picks i0
		{Ops: []vliw.SlotOp{{Class: machine.ClassISelect, Dst: 1, Src: [3]int32{0, 0, 0}}}},
		// seeds and conversions
		{Ops: []vliw.SlotOp{{Class: machine.ClassFRecipSeed, Dst: 3, Src: [3]int32{0}}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassFRsqrtSeed, Dst: 4, Src: [3]int32{0}}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassF2I, Dst: 2, Src: [3]int32{0}}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassI2F, Dst: 5, Src: [3]int32{0}}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassFNeg, Dst: 6, Src: [3]int32{1}}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassFSub, Dst: 7, Src: [3]int32{1, 0}}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassIMul, Dst: 3, Src: [3]int32{0, 0}}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassISub, Dst: 4, Src: [3]int32{0, 3}}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassFCmp, Dst: 5, Src: [3]int32{0, 1}, IImm: int64(ir.PredLT)}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassIShr, Dst: 6, Src: [3]int32{0}, IImm: 0}}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassIAnd, Dst: 7, Src: [3]int32{0}, IImm: 1}}},
		{}, {}, {}, {}, {}, {}, {},
		{Ops: []vliw.SlotOp{
			{Class: machine.ClassIConst, Dst: 0, IImm: 8},
		}},
		{Ops: []vliw.SlotOp{{Class: machine.ClassStore, Src: [3]int32{0, 1}, Array: "n"}}}, // n[0] = isel
		halt(),
	})
	st, _, err := Run(p, m)
	if err != nil {
		t.Fatal(err)
	}
	if st.IntArrays["n"][0] != 1 {
		t.Errorf("int select picked %d, want 1", st.IntArrays["n"][0])
	}
}

func TestUnknownArrayRejected(t *testing.T) {
	m := machine.Warp()
	p := prog([]vliw.Instr{
		{Ops: []vliw.SlotOp{{Class: machine.ClassLoad, Dst: 0, Src: [3]int32{0}, Array: "ghost"}}},
		halt(),
	})
	if _, _, err := Run(p, m); err == nil {
		t.Fatal("unknown array must fail at runtime")
	}
}

func TestPCOutOfRange(t *testing.T) {
	m := machine.Warp()
	p := prog([]vliw.Instr{{}}) // falls off the end
	if _, _, err := Run(p, m); err == nil || !strings.Contains(err.Error(), "pc") {
		t.Fatalf("want pc error, got %v", err)
	}
}

func TestDrainHonorsContext(t *testing.T) {
	m := machine.Warp()
	p := prog([]vliw.Instr{halt()})
	s := New(p, m)
	ctx, cancel := context.WithCancel(context.Background())
	s.Ctx = ctx
	// A pending write-back with the context already canceled: Drain must
	// abort with the ctx error instead of landing it.
	s.wb(s.t+3, 0, true, 0, 1.0, 0)
	cancel()
	err := s.Drain(1000)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain err = %v, want context.Canceled", err)
	}
	// Run's drain phase goes through the same path: a live context still
	// drains normally.
	s2 := New(p, m)
	s2.Ctx = context.Background()
	s2.wb(s2.t+3, 0, true, 0, 1.0, 0)
	if err := s2.Drain(1000); err != nil {
		t.Fatal(err)
	}
}
