package compiled

import (
	"strings"
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/vliw"
)

// TestOutOfRangeRegisterRejected: a register index outside its file —
// as a destination, any source, a ring entry, or a sequencer register —
// is a decode error on both engines, never an index panic in the cycle
// loop.  (vliw.Program.Validate does not check these; artifacts reach the
// simulator from disk and over HTTP.)
func TestOutOfRangeRegisterRejected(t *testing.T) {
	m := machine.Warp()
	halt := vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}}
	op := func(o vliw.SlotOp) vliw.Instr { return vliw.Instr{Ops: []vliw.SlotOp{o}} }
	for _, tc := range []struct {
		name  string
		instr vliw.Instr
		want  string
	}{
		{"dst", op(vliw.SlotOp{Class: machine.ClassFAdd, Dst: 77, Src: []int{0, 1}}), "register f77 out of range (file has 2)"},
		{"src0", op(vliw.SlotOp{Class: machine.ClassFAdd, Dst: 0, Src: []int{99, 1}}), "register f99 out of range (file has 2)"},
		{"src1", op(vliw.SlotOp{Class: machine.ClassIAdd, Dst: 0, Src: []int{1, 3}}), "register i3 out of range (file has 3)"},
		{"src2", op(vliw.SlotOp{Class: machine.ClassISelect, Dst: 0, Src: []int{0, 1, 2}, FImm: 1}), "register f2 out of range (file has 2)"},
		{"negative", op(vliw.SlotOp{Class: machine.ClassIMov, Dst: 0, Src: []int{-1}}), "register i-1 out of range (file has 3)"},
		{"int-load-dst", op(vliw.SlotOp{Class: machine.ClassLoad, Dst: 3, Src: []int{0}, Array: "n"}), "register i3 out of range (file has 3)"},
		{"float-store-value", op(vliw.SlotOp{Class: machine.ClassStore, Src: []int{0, 2}, Array: "a"}), "register f2 out of range (file has 2)"},
		{"dst-ring", op(vliw.SlotOp{Class: machine.ClassFMov, Dst: 0, Src: []int{1}, DstRing: []int{0, 5}}), "register f5 out of range (file has 2)"},
		{"src-ring", op(vliw.SlotOp{Class: machine.ClassFMov, Dst: 0, Src: []int{1}, SrcRings: [][]int{{1, 8}}}), "register f8 out of range (file has 2)"},
		{"ctl-reg", vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 9, Target: 0}}, "register i9 out of range (file has 3)"},
		{"ctl-reg-ring", vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlJNZ, Reg: 0, RegRing: []int{1, 4}, Target: 0}}, "register i4 out of range (file has 3)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &vliw.Program{
				Name: tc.name, NumFRegs: 2, NumIRegs: 3, MemWords: 8,
				Arrays: []vliw.ArrayInfo{
					{Name: "a", Kind: ir.KindFloat, Base: 0, Size: 4},
					{Name: "n", Kind: ir.KindInt, Base: 4, Size: 4},
				},
				Instrs: []vliw.Instr{tc.instr, halt},
			}
			want := "sim: @0: " + tc.want
			_, _, errI := sim.Run(p, m)
			_, _, errC := Run(p, m)
			_, errB := Build(p, m)
			for name, err := range map[string]error{"sim.Run": errI, "compiled.Run": errC, "compiled.Build": errB} {
				if err == nil || err.Error() != want {
					t.Errorf("%s: err = %v, want %q", name, err, want)
				}
			}
			// The deferred form: New succeeds, the first Step reports it.
			if _, err := sim.New(p, m).Step(); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("Step: err = %v", err)
			}
		})
	}
}
