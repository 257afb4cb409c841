package compiled

import (
	"context"
	"math"
	"strings"
	"testing"

	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/vliw"
)

// relay hand-builds "loop n times: recv f0; f1 = f0 + add; send f1" with
// compiler-accurate spacing (recv lat 2, fadd lat 7).
func relay(n int64, add float64) *vliw.Program {
	return &vliw.Program{
		Name:     "relay",
		NumFRegs: 4,
		NumIRegs: 2,
		Instrs: []vliw.Instr{
			{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 2, FImm: add}}},
			{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: n}}},
			{}, {}, {}, {}, {}, {},
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

// TestArrayMixedEngines: interp and compiled cells interoperate in one
// array, produce the tape the homogeneous interp array produces, and the
// stall metrics show the downstream cell waiting out the fill skew.
func TestArrayMixedEngines(t *testing.T) {
	m := machine.Warp()
	input := []float64{1, 2, 3, 4, 5}

	ref := sim.NewArrayCells([]*sim.Sim{sim.New(relay(5, 10), m), sim.New(relay(5, 10), m)}, input)
	wantOut, _, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	cp, err := Build(relay(5, 10), m)
	if err != nil {
		t.Fatal(err)
	}
	mixed := sim.NewArrayCells([]*sim.Sim{sim.New(relay(5, 10), m), NewCell(cp)}, input)
	out, _, err := mixed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(wantOut) {
		t.Fatalf("mixed output %v, interp output %v", out, wantOut)
	}
	for i := range out {
		if math.Float64bits(out[i]) != math.Float64bits(wantOut[i]) {
			t.Fatalf("out[%d] = %v, interp array has %v", i, out[i], wantOut[i])
		}
	}
	ms := mixed.Metrics()
	if ms[1].StallCycles == 0 {
		t.Error("downstream cell reported no stalls across the fill skew")
	}
}

// TestArrayCtxCancelMidSkew: cancellation lands while the downstream
// compiled cell is still waiting on its first word, and Run reports the
// abort instead of hanging or mislabeling it a deadlock.
func TestArrayCtxCancelMidSkew(t *testing.T) {
	m := machine.Warp()
	cp, err := Build(relay(100000, 1), m)
	if err != nil {
		t.Fatal(err)
	}
	// No input at all: cell 0 blocks on its first receive forever, so
	// without the context the run would end in a deadlock report.
	a := sim.NewArrayCells([]*sim.Sim{sim.New(relay(100000, 1), m), NewCell(cp)}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a.Ctx = ctx
	_, _, err = a.Run()
	if err == nil {
		t.Fatal("canceled context must abort the run")
	}
	if !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("expected abort error, got: %v", err)
	}
}
