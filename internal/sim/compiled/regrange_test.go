package compiled

import (
	"fmt"
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
// loop.  (vliw.Program.Validate does not check these; sim.Decode is the
// simulator's own guard, and FuzzSimDecode drives it with hostile
// programs.)
func TestOutOfRangeRegisterRejected(t *testing.T) {
	m := machine.Warp()
	halt := vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}}
	op := func(o vliw.SlotOp) vliw.Instr { return vliw.Instr{Ops: []vliw.SlotOp{o}} }
	for _, tc := range []struct {
		name  string
		instr vliw.Instr
		want  string
	}{
		{"dst", op(vliw.SlotOp{Class: machine.ClassFAdd, Dst: 77, Src: [3]int32{0, 1}}), "register f77 out of range (file has 2)"},
		{"src0", op(vliw.SlotOp{Class: machine.ClassFAdd, Dst: 0, Src: [3]int32{99, 1}}), "register f99 out of range (file has 2)"},
		{"src1", op(vliw.SlotOp{Class: machine.ClassIAdd, Dst: 0, Src: [3]int32{1, 3}}), "register i3 out of range (file has 3)"},
		{"src2", op(vliw.SlotOp{Class: machine.ClassISelect, Dst: 0, Src: [3]int32{0, 1, 2}, FImm: 1}), "register f2 out of range (file has 2)"},
		{"negative", op(vliw.SlotOp{Class: machine.ClassIMov, Dst: 0, Src: [3]int32{-1}}), "register i-1 out of range (file has 3)"},
		{"int-load-dst", op(vliw.SlotOp{Class: machine.ClassLoad, Dst: 3, Src: [3]int32{0}, Array: "n"}), "register i3 out of range (file has 3)"},
		{"float-store-value", op(vliw.SlotOp{Class: machine.ClassStore, Src: [3]int32{0, 2}, Array: "a"}), "register f2 out of range (file has 2)"},
		{"dst-ring", op(vliw.SlotOp{Class: machine.ClassFMov, Dst: 0, Src: [3]int32{1}, Rings: &vliw.Rings{Dst: []int32{0, 5}}}), "register f5 out of range (file has 2)"},
		{"src-ring", op(vliw.SlotOp{Class: machine.ClassFMov, Dst: 0, Src: [3]int32{1}, Rings: &vliw.Rings{Src: [3][]int32{{1, 8}}}}), "register f8 out of range (file has 2)"},
		{"ctl-reg", vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 9, Target: 0}}, "register i9 out of range (file has 3)"},
		{"ctl-reg-ring", vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlJNZ, Reg: 0, RegRing: &[]int32{1, 4}, Target: 0}}, "register i4 out of range (file has 3)"},
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

// TestOutOfRangeRegisterRejectedEveryClass drives the same check from the
// class table: for every slot class (and each array kind and select kind
// it can take), the well-formed op its row describes decodes, and moving
// any one operand — static register or a ring entry — one past its file or
// below zero is a decode error naming that file.
func TestOutOfRangeRegisterRejectedEveryClass(t *testing.T) {
	m := machine.Warp()
	const fileSize = 4
	halt := vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}}
	for c := machine.Class(0); c < machine.Class(machine.NumClasses()); c++ {
		row := c.Info()
		if c.IsBranch() {
			continue // the sequencer's view of control flow; never in a slot
		}
		for _, arrFloat := range []bool{true, false} {
			for _, selFloat := range []bool{true, false} {
				if (!row.UsesArray() && !arrFloat) || (row.Dst != machine.FileSelect && !selFloat) {
					continue // the class has one form only
				}
				good := vliw.SlotOp{Class: c}
				if row.UsesArray() {
					good.Array = map[bool]string{true: "a", false: "n"}[arrFloat]
				}
				if row.Dst == machine.FileSelect && selFloat {
					good.FImm = 1
				}
				decode := func(o vliw.SlotOp) error {
					p := &vliw.Program{
						Name: c.String(), NumFRegs: fileSize, NumIRegs: fileSize, MemWords: 8,
						Arrays: []vliw.ArrayInfo{
							{Name: "a", Kind: ir.KindFloat, Base: 0, Size: 4},
							{Name: "n", Kind: ir.KindInt, Base: 4, Size: 4},
						},
						Instrs: []vliw.Instr{{Ops: []vliw.SlotOp{o}}, halt},
					}
					_, err := sim.Decode(p, m)
					return err
				}
				name := fmt.Sprintf("%v/arrFloat=%v/selFloat=%v", c, arrFloat, selFloat)
				if err := decode(good); err != nil {
					t.Errorf("%s: well-formed op rejected: %v", name, err)
					continue
				}
				// Every operand position, dst first (-1).
				for pos := -1; pos < row.NSrc(); pos++ {
					f := row.Dst
					if pos >= 0 {
						f = row.Src[pos]
					}
					file := map[machine.File]string{machine.FileFloat: "f", machine.FileInt: "i"}[f.Resolve(arrFloat, selFloat)]
					if file == "" {
						continue // the class has no destination
					}
					for _, r := range []int32{fileSize, -1} {
						static, ring := good, good
						ring.Rings = &vliw.Rings{}
						if pos < 0 {
							static.Dst = r
							ring.Rings.Dst = []int32{0, r}
						} else {
							static.Src[pos] = r
							ring.Rings.Src[pos] = []int32{0, r}
						}
						want := fmt.Sprintf("sim: @0: register %s%d out of range (file has %d)", file, r, fileSize)
						for form, o := range map[string]vliw.SlotOp{"static": static, "ring": ring} {
							if err := decode(o); err == nil || err.Error() != want {
								t.Errorf("%s/operand %d/%s: err = %v, want %q", name, pos, form, err, want)
							}
						}
					}
				}
			}
		}
	}
}
