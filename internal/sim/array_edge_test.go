package sim

import (
	"math"
	"strings"
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// storeProgram hand-builds "loop n times: recv f0; a[i] = f0; i++" with
// compiler-accurate latency spacing (recv lat 2).
func storeProgram(n int64) *vliw.Program {
	return &vliw.Program{
		Name:     "acc",
		NumFRegs: 2,
		NumIRegs: 4,
		MemWords: int(n),
		Arrays:   []vliw.ArrayInfo{{Name: "a", Kind: ir.KindFloat, Base: 0, Size: int(n)}},
		InitF:    map[string][]float64{"a": make([]float64, n)},
		Instrs: []vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: n}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 1, IImm: 0}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 2, IImm: 1}}},
			{}, {},
			// loop: recv f0 (lat 2) ... store a[i1] f0, i1 += 1
			{Ops: []vliw.SlotOp{{Class: machine.ClassRecv, Dst: 0}}},
			{}, {},
			{Ops: []vliw.SlotOp{
				{Class: machine.ClassStore, Src: [3]int32{1, 0}, Array: "a"},
				{Class: machine.ClassIAdd, Dst: 1, Src: [3]int32{1, 2}},
			}, Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 0, Target: 5}},
			{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}},
		},
	}
}

// TestArraySingleCellIdentity: an N=1 array must be bit-identical to the
// plain single-cell run — same memory, same output tape, no stalls
// besides what the tape imposes.
func TestArraySingleCellIdentity(t *testing.T) {
	m := machine.Warp()
	input := []float64{1.5, -2.25, 3.125, 4.0625}

	single := New(storeProgram(4), m)
	single.InputTape = input
	sst, err := single.Run()
	if err != nil {
		t.Fatal(err)
	}

	a := stepArray([]*vliw.Program{storeProgram(4)}, m, input)
	out, ast, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(single.OutputTape) {
		t.Fatalf("array output %v, single-cell %v", out, single.OutputTape)
	}
	want := sst.FloatArrays["a"]
	got := ast.FloatArrays["a"]
	if len(got) != len(want) {
		t.Fatalf("array a: %v vs %v", got, want)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("a[%d] = %v, single-cell has %v", i, got[i], want[i])
		}
	}
	ms := a.Metrics()
	if len(ms) != 1 {
		t.Fatalf("metrics: %v", ms)
	}
	if ms[0].StallCycles != 0 {
		t.Errorf("lone cell with preloaded input stalled %d cycles", ms[0].StallCycles)
	}
	if ms[0].MaxInQueue > len(input) {
		t.Errorf("input queue high-water %d > preload %d", ms[0].MaxInQueue, len(input))
	}
}

// TestArrayStallForeverNamesCell: a fragment that waits for words that
// never come must surface a deadlock diagnostic naming the blocked cell
// and its queue operation.
func TestArrayStallForeverNamesCell(t *testing.T) {
	m := machine.Warp()
	// Producer sends 5 words and halts; consumer wants 10.
	a := stepArray([]*vliw.Program{relayProgram(5, 0), relayProgram(10, 0)}, m, []float64{1, 2, 3, 4, 5})
	_, _, err := a.Run()
	if err == nil {
		t.Fatal("starved consumer must deadlock")
	}
	msg := err.Error()
	if !strings.Contains(msg, "cell 1 blocked on recv") {
		t.Fatalf("diagnostic does not name the blocked cell: %v", msg)
	}
	if !strings.Contains(msg, "cell 0 halted") {
		t.Fatalf("diagnostic does not show the halted producer: %v", msg)
	}
}

// TestArrayHostQueueBudget: a runaway sender must trip the host
// collection queue budget with a diagnostic, not grow memory until the
// cycle bound.
func TestArrayHostQueueBudget(t *testing.T) {
	m := machine.Warp()
	runaway := &vliw.Program{
		Name: "runaway", NumFRegs: 1, NumIRegs: 1,
		Instrs: []vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 0, FImm: 1}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassSend, Src: [3]int32{0}}},
				Ctl: vliw.Ctl{Kind: vliw.CtlJump, Target: 1}},
		},
	}
	a := stepArray([]*vliw.Program{runaway}, m, nil)
	a.HostQueueBudget = 1000
	_, _, err := a.Run()
	if err == nil {
		t.Fatal("runaway sender must trip the host queue budget")
	}
	if !strings.Contains(err.Error(), "host collection queue") {
		t.Fatalf("expected budget diagnostic, got: %v", err)
	}
}
