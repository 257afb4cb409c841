package sim

import (
	"testing"

	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// relayProgram hand-builds "loop n times: recv f0; f1 = f0 + f2; send f1"
// with the timing the compiler would produce at II=3 (unpipelined).
func relayProgram(n int64, add float64) *vliw.Program {
	return &vliw.Program{
		Name:     "relay",
		NumFRegs: 4,
		NumIRegs: 2,
		MemWords: 0,
		Instrs: []vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 2, FImm: add}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: n}}},
			{}, {}, {}, {}, {}, {},
			// loop body: recv (lat 2) -> fadd (lat 7) -> send
			{Ops: []vliw.SlotOp{{Class: machine.ClassRecv, Dst: 0}}},
			{}, {},
			{Ops: []vliw.SlotOp{{Class: machine.ClassFAdd, Dst: 1, Src: [3]int32{0, 2}}}},
			{}, {}, {}, {}, {}, {}, {},
			{Ops: []vliw.SlotOp{{Class: machine.ClassSend, Src: [3]int32{1}}},
				Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 0, Target: 8}},
			{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}},
		},
	}
}

func TestSingleCellTapes(t *testing.T) {
	m := machine.Warp()
	s := New(relayProgram(4, 10), m)
	s.InputTape = []float64{1, 2, 3, 4}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 12, 13, 14}
	if len(s.OutputTape) != len(want) {
		t.Fatalf("output %v", s.OutputTape)
	}
	for i, v := range want {
		if s.OutputTape[i] != v {
			t.Errorf("out[%d] = %v, want %v", i, s.OutputTape[i], v)
		}
	}
}

func TestTapeUnderflowDetected(t *testing.T) {
	m := machine.Warp()
	s := New(relayProgram(5, 1), m)
	s.InputTape = []float64{1, 2}
	if _, err := s.Run(); err == nil {
		t.Fatal("reading past the input tape must fail")
	}
}

// stepArray is NewArrayCells over a step-only cell of each program.
func stepArray(progs []*vliw.Program, m *machine.Machine, input []float64) *Array {
	cells := make([]*Sim, len(progs))
	for i, p := range progs {
		cells[i] = New(p, m)
	}
	return NewArrayCells(cells, input)
}

func TestArrayRelayChain(t *testing.T) {
	m := machine.Warp()
	// Three cells each add 10; input 1..5 → output 31..35.
	progs := []*vliw.Program{relayProgram(5, 10), relayProgram(5, 10), relayProgram(5, 10)}
	a := stepArray(progs, m, []float64{1, 2, 3, 4, 5})
	out, _, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{31, 32, 33, 34, 35}
	if len(out) != len(want) {
		t.Fatalf("output %v", out)
	}
	for i, v := range want {
		if out[i] != v {
			t.Errorf("out[%d] = %v, want %v", i, out[i], v)
		}
	}
	// Downstream cells stall during the fill skew, then stream: the
	// array finishes far sooner than 3 sequential cells would.
	st := a.Stats()
	if st.Cycles <= 0 {
		t.Fatal("no cycles counted")
	}
	seq := int64(0)
	for _, c := range a.Cells {
		seq += c.Stats().Instrs
	}
	if st.Cycles >= seq {
		t.Errorf("array wall clock %d not overlapped (sum of instrs %d)", st.Cycles, seq)
	}
}

func TestArrayDeadlockDetected(t *testing.T) {
	m := machine.Warp()
	// A cell that only receives, fed by nothing.
	p := &vliw.Program{
		Name: "sink", NumFRegs: 1, NumIRegs: 1,
		Instrs: []vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassRecv, Dst: 0}}},
			{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}},
		},
	}
	a := stepArray([]*vliw.Program{p}, m, nil)
	if _, _, err := a.Run(); err == nil {
		t.Fatal("empty-input receive must deadlock, not hang")
	}
}

func TestQueueBackpressure(t *testing.T) {
	m := machine.Warp()
	// Producer sends 600 values; consumer drains them slowly.  The
	// 512-entry queue must apply back-pressure, and everything must
	// still arrive in order.
	producer := &vliw.Program{
		Name: "prod", NumFRegs: 2, NumIRegs: 1,
		Instrs: []vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: 600}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 0, FImm: 1}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 1, FImm: 0}}},
			{}, {}, {}, {}, {},
			// f1 += 1; send f1
			{Ops: []vliw.SlotOp{{Class: machine.ClassFAdd, Dst: 1, Src: [3]int32{1, 0}}}},
			{}, {}, {}, {}, {}, {},
			{Ops: []vliw.SlotOp{{Class: machine.ClassSend, Src: [3]int32{1}}},
				Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 0, Target: 8}},
			{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}},
		},
	}
	consumer := relayProgram(600, 0)
	a := stepArray([]*vliw.Program{producer, consumer}, m, nil)
	out, _, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 600 {
		t.Fatalf("got %d outputs", len(out))
	}
	for i, v := range out {
		if v != float64(i+1) {
			t.Fatalf("out[%d] = %v", i, v)
		}
	}
}
