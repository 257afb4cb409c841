package sim

import (
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// Rotation in the cell core on hand-built programs: ring operands
// resolve at the current rotating register base (RRB), a Rotate-marked
// DBNZ advances it taken or not, CtlRotClear resets it, and JZ/JNZ read
// their condition through RegRing.  (The compiler's rotating output is
// covered end to end; these pin each piece of the mechanism alone.)

func rotMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.Parse("gen:rot")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func nops(n int) []vliw.Instr { return make([]vliw.Instr, n) }

func join(parts ...[]vliw.Instr) []vliw.Instr {
	var out []vliw.Instr
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func TestRingOperandsResolveAtRRB(t *testing.T) {
	m := rotMachine(t)
	lat := m.Latency(machine.ClassFConst)
	// Three passes of "f{1,2,3}[rrb] = fmov f{4,5,6}[rrb]" under a
	// rotating DBNZ: pass p must copy f(4+p) into f(1+p) — the static
	// Dst/Src indices (0 and 7) are never touched.
	p := prog(join(
		[]vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: 3}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 4, FImm: 40}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 5, FImm: 50}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 6, FImm: 60}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 7, FImm: -1}}},
		},
		nops(lat),
		[]vliw.Instr{
			{
				Ops: []vliw.SlotOp{{
					Class: machine.ClassFMov, Dst: 0, Src: [3]int32{7},
					Rings: &vliw.Rings{Dst: []int32{1, 2, 3}, Src: [3][]int32{{4, 5, 6}}},
				}},
				Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 0, Target: int32(5 + lat), Rotate: true},
			},
			halt(),
		},
	))
	p.Results = []vliw.Result{
		{Name: "static", Kind: ir.KindFloat, Reg: 0},
		{Name: "a", Kind: ir.KindFloat, Reg: 1},
		{Name: "b", Kind: ir.KindFloat, Reg: 2},
		{Name: "c", Kind: ir.KindFloat, Reg: 3},
	}
	st, _, err := Run(p, m)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"static": 0, "a": 40, "b": 50, "c": 60}
	for k, v := range want {
		if st.Scalars[k] != v {
			t.Errorf("%s = %v, want %v (all: %v)", k, st.Scalars[k], v, st.Scalars)
		}
	}
}

func TestRotateDBNZAdvancesTakenAndNotTaken(t *testing.T) {
	m := rotMachine(t)
	s := New(prog([]vliw.Instr{
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: 2}}},
		{},
		{Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 0, Target: 2, Rotate: true}},
		{Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 1, Target: 3}}, // plain DBNZ: no rotation
		halt(),
	}), m)
	step := func() {
		t.Helper()
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	step()
	step()
	if s.rrb != 0 {
		t.Fatalf("rrb = %d before any rotating loop-back", s.rrb)
	}
	step() // counter 2 -> 1: taken
	if s.rrb != 1 || s.pc != 2 {
		t.Fatalf("after taken rotating DBNZ: rrb=%d pc=%d, want 1 and 2", s.rrb, s.pc)
	}
	step() // counter 1 -> 0: falls through, still rotates
	if s.rrb != 2 || s.pc != 3 {
		t.Fatalf("after not-taken rotating DBNZ: rrb=%d pc=%d, want 2 and 3", s.rrb, s.pc)
	}
	s.iregs[1] = 1
	step() // non-rotating DBNZ leaves the base alone
	if s.rrb != 2 {
		t.Fatalf("plain DBNZ moved rrb to %d", s.rrb)
	}
}

func TestRotClearResetsBase(t *testing.T) {
	m := rotMachine(t)
	lat := m.Latency(machine.ClassIConst)
	// Two rotating passes leave rrb = 2; after rotclear a ring write must
	// land on ring[0] again.
	p := prog(join(
		[]vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: 2}}},
		},
		nops(lat),
		[]vliw.Instr{
			{Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 0, Target: int32(1 + lat), Rotate: true}},
			{Ctl: vliw.Ctl{Kind: vliw.CtlRotClear}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 7, IImm: 9, Rings: &vliw.Rings{Dst: []int32{1, 2, 3}}}}},
			halt(),
		},
	))
	p.Results = []vliw.Result{
		{Name: "r1", Kind: ir.KindInt, Reg: 1},
		{Name: "r3", Kind: ir.KindInt, Reg: 3},
	}
	s := New(p, m)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.rrb != 0 {
		t.Fatalf("rrb = %d after rotclear", s.rrb)
	}
	if st.Scalars["r1"] != 9 || st.Scalars["r3"] != 0 {
		t.Fatalf("ring write after rotclear landed off ring[0]: %v", st.Scalars)
	}
}

func TestCondBranchesThroughRegRing(t *testing.T) {
	m := rotMachine(t)
	// i1 = 0, i2 = 1; the fork reads {i1,i2}[rrb].  Run the same fork at
	// rrb 0 and rrb 1 for both JZ and JNZ and record which way it went.
	for _, tc := range []struct {
		kind      vliw.CtlKind
		rrb       int64
		wantTaken bool
	}{
		{vliw.CtlJZ, 0, true},
		{vliw.CtlJZ, 1, false},
		{vliw.CtlJNZ, 0, false},
		{vliw.CtlJNZ, 1, true},
	} {
		s := New(prog([]vliw.Instr{
			{Ctl: vliw.Ctl{Kind: tc.kind, Reg: 5, RegRing: &[]int32{1, 2}, Target: 2}},
			halt(),
			halt(),
		}), m)
		s.iregs[2] = 1
		s.iregs[5] = 1 - s.iregs[int(1+tc.rrb)] // the static index would branch the other way
		s.rrb = tc.rrb
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if taken := s.pc == 2; taken != tc.wantTaken {
			t.Errorf("kind %v at rrb %d: taken=%v, want %v", tc.kind, tc.rrb, taken, tc.wantTaken)
		}
	}
}

// TestRingOperandKeepsLoopOffFastPath: a plain (non-Rotate) DBNZ
// self-loop is a fast-path block unless one of its operands rotates —
// the delay buffers assume an operand names the same register each pass.
func TestRingOperandKeepsLoopOffFastPath(t *testing.T) {
	m := rotMachine(t)
	loop := func(ring []int32) *vliw.Program {
		return prog([]vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: 4}}},
			{
				Ops: []vliw.SlotOp{{Class: machine.ClassFMov, Dst: 1, Src: [3]int32{2}, Rings: &vliw.Rings{Dst: ring}}},
				Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 0, Target: 1},
			},
			halt(),
		})
	}
	for _, tc := range []struct {
		ring []int32
		want int
	}{{nil, 1}, {[]int32{1, 3}, 0}} {
		p, err := Decode(loop(tc.ring), m)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Blocks(); got != tc.want {
			t.Errorf("ring %v: Blocks() = %d, want %d", tc.ring, got, tc.want)
		}
	}
}
