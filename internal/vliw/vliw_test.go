package vliw

import (
	"strings"
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

func base() *Program {
	return &Program{
		Name:     "t",
		NumFRegs: 4,
		NumIRegs: 4,
		MemWords: 8,
		Arrays:   []ArrayInfo{{Name: "a", Kind: ir.KindFloat, Base: 0, Size: 8}},
		InitF:    map[string][]float64{"a": nil},
	}
}

func TestValidateResourceOversubscription(t *testing.T) {
	m := machine.Warp()
	p := base()
	p.Instrs = []Instr{
		{Ops: []SlotOp{
			{Class: machine.ClassFAdd, Dst: 0, Src: [3]int32{1, 2}},
			{Class: machine.ClassFSub, Dst: 1, Src: [3]int32{1, 2}},
		}},
		{Ctl: Ctl{Kind: CtlHalt}},
	}
	err := p.Validate(m)
	if err == nil || !strings.Contains(err.Error(), "oversubscribed") {
		t.Fatalf("two adder ops in one word must fail, got %v", err)
	}
}

func TestValidateBranchTargets(t *testing.T) {
	m := machine.Warp()
	p := base()
	p.Instrs = []Instr{
		{Ctl: Ctl{Kind: CtlJump, Target: 99}},
	}
	if err := p.Validate(m); err == nil {
		t.Fatal("out-of-range branch target must fail")
	}
}

func TestValidateUnknownArray(t *testing.T) {
	m := machine.Warp()
	p := base()
	p.Instrs = []Instr{
		{Ops: []SlotOp{{Class: machine.ClassLoad, Dst: 0, Src: [3]int32{0}, Array: "nope"}}},
	}
	if err := p.Validate(m); err == nil {
		t.Fatal("unknown array must fail")
	}
}

func TestDisassemblyReadable(t *testing.T) {
	p := base()
	p.Instrs = []Instr{
		{Ops: []SlotOp{
			{Class: machine.ClassLoad, Dst: 2, Src: [3]int32{1}, Array: "a", Disp: 3},
			{Class: machine.ClassFAdd, Dst: 0, Src: [3]int32{2, 2}},
		}, Ctl: Ctl{Kind: CtlDBNZ, Reg: 1, Target: 0}},
		{Ctl: Ctl{Kind: CtlHalt}},
	}
	s := p.String()
	for _, want := range []string{"load", "[a+3]", "fadd", "dbnz i1 @0", "halt"} {
		if !strings.Contains(s, want) {
			t.Errorf("disassembly missing %q:\n%s", want, s)
		}
	}
}

func TestValidateWriteBackCollision(t *testing.T) {
	m := machine.Warp()

	// Two latency-1 ALU/AGU ops writing i0 in one instruction: fatal.
	p := base()
	p.Instrs = []Instr{
		{Ops: []SlotOp{
			{Class: machine.ClassIAdd, Dst: 0, Src: [3]int32{0, 0}},
			{Class: machine.ClassAdrAdd, Dst: 0, Src: [3]int32{0, 0}},
		}},
		{Ctl: Ctl{Kind: CtlHalt}},
	}
	if err := p.Validate(m); err == nil {
		t.Error("same-latency double write must be rejected")
	}

	// Same register, different latencies (fmov lat 7 vs recv lat < 7):
	// write-backs land on different cycles, so the pattern is legal.
	p = base()
	p.Instrs = []Instr{
		{Ops: []SlotOp{
			{Class: machine.ClassFMov, Dst: 0, Src: [3]int32{1}},
			{Class: machine.ClassRecv, Dst: 0},
		}},
		{Ctl: Ctl{Kind: CtlHalt}},
	}
	if m.Latency(machine.ClassFMov) == m.Latency(machine.ClassRecv) {
		t.Skip("machine gives fmov and recv equal latency")
	}
	if err := p.Validate(m); err != nil {
		t.Errorf("different-latency writes are legal: %v", err)
	}

	// A float select (FImm=1) and an integer op may share a register
	// index: they write different files.
	p = base()
	p.Instrs = []Instr{
		{Ops: []SlotOp{
			{Class: machine.ClassISelect, Dst: 0, Src: [3]int32{1, 2, 3}, FImm: 1},
			{Class: machine.ClassAdrAdd, Dst: 0, Src: [3]int32{0, 0}},
		}},
		{Ctl: Ctl{Kind: CtlHalt}},
	}
	if err := p.Validate(m); err != nil {
		t.Errorf("float select + int op on the same index are distinct registers: %v", err)
	}

	// An int select (FImm=0) against the same int op: fatal again.
	p = base()
	p.Instrs = []Instr{
		{Ops: []SlotOp{
			{Class: machine.ClassISelect, Dst: 0, Src: [3]int32{1, 2, 3}},
			{Class: machine.ClassAdrAdd, Dst: 0, Src: [3]int32{0, 0}},
		}},
		{Ctl: Ctl{Kind: CtlHalt}},
	}
	if err := p.Validate(m); err == nil {
		t.Error("int select + int op double write must be rejected")
	}
}

// TestValidateStateDoesNotLeakBetweenWords: the collision and resource
// checks are per instruction word.  Two ops that collide in one word are
// legal in consecutive words — what one word wrote or reserved is
// forgotten at the next — for static writes, for a ring write against a
// static write, and for unit reservations.
func TestValidateStateDoesNotLeakBetweenWords(t *testing.T) {
	rot, err := machine.Parse("gen:rot")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    *machine.Machine
		a, b SlotOp
	}{
		{"static writes to one register at one latency", machine.Warp(),
			SlotOp{Class: machine.ClassIAdd, Dst: 0, Src: [3]int32{0, 0}},
			SlotOp{Class: machine.ClassAdrAdd, Dst: 0, Src: [3]int32{0, 0}}},
		{"ring write against a static write", rot,
			SlotOp{Class: machine.ClassIAdd, Dst: 0, Rings: &Rings{Dst: []int32{0, 1}}, Src: [3]int32{2, 2}},
			SlotOp{Class: machine.ClassAdrAdd, Dst: 1, Src: [3]int32{2, 2}}},
		{"static write against a ring write", rot,
			SlotOp{Class: machine.ClassAdrAdd, Dst: 1, Src: [3]int32{2, 2}},
			SlotOp{Class: machine.ClassIAdd, Dst: 0, Rings: &Rings{Dst: []int32{0, 1}}, Src: [3]int32{2, 2}}},
		{"two ops on one unit", machine.Warp(),
			SlotOp{Class: machine.ClassFAdd, Dst: 0, Src: [3]int32{1, 2}},
			SlotOp{Class: machine.ClassFSub, Dst: 1, Src: [3]int32{1, 2}}},
	}
	for _, c := range cases {
		if la, lb := c.m.Latency(c.a.Class), c.m.Latency(c.b.Class); la != lb {
			t.Fatalf("%s: latencies %d and %d differ, the ops would never collide", c.name, la, lb)
		}
		p := base()
		p.Instrs = []Instr{{Ops: []SlotOp{c.a, c.b}}, {Ctl: Ctl{Kind: CtlHalt}}}
		if err := p.Validate(c.m); err == nil {
			t.Errorf("%s: accepted in one word", c.name)
		}
		p = base()
		p.Instrs = []Instr{{Ops: []SlotOp{c.a}}, {Ops: []SlotOp{c.b}}, {Ctl: Ctl{Kind: CtlHalt}}}
		if err := p.Validate(c.m); err != nil {
			t.Errorf("%s: rejected across two words: %v", c.name, err)
		}
	}
}
