package verify

import (
	"strings"
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// TestEncodingRulesAgreeWithClassTable: the verifier restates operand
// arity and files on purpose (a second derivation inside the trust root,
// not an import of what it checks).  This holds the restatement to the
// class table for every slot class, over both array kinds and both select
// kinds, so the two derivations can only drift apart loudly.
func TestEncodingRulesAgreeWithClassTable(t *testing.T) {
	p := &vliw.Program{Arrays: []vliw.ArrayInfo{
		{Name: "a", Kind: ir.KindFloat, Size: 4},
		{Name: "n", Kind: ir.KindInt, Base: 4, Size: 4},
	}}
	for c := machine.Class(0); c < machine.Class(machine.NumClasses()); c++ {
		row := c.Info()
		n, slot := nSrc(c)
		if slot == c.IsBranch() {
			t.Errorf("%v: verifier says slot operation = %v, table says sequencer class = %v", c, slot, c.IsBranch())
		}
		if !slot {
			continue
		}
		if n != row.NSrc() {
			t.Errorf("%v: verifier expects %d sources, table has %d", c, n, row.NSrc())
		}
		for _, arrFloat := range []bool{true, false} {
			for _, selFloat := range []bool{true, false} {
				o := &vliw.SlotOp{Class: c, Array: map[bool]string{true: "a", false: "n"}[arrFloat]}
				if selFloat {
					o.FImm = 1
				}
				for k := 0; k < n; k++ {
					want := row.Src[k].Resolve(arrFloat, selFloat) == machine.FileFloat
					if got := srcIsFloat(p, o, k); got != want {
						t.Errorf("%v (arrFloat=%v selFloat=%v): source %d float = %v, table says %v", c, arrFloat, selFloat, k, got, want)
					}
				}
				want := row.Dst.Resolve(arrFloat, selFloat)
				isFloat, wb := writesBack(p, o)
				if wb != (want != machine.FileNone) || (wb && isFloat != (want == machine.FileFloat)) {
					t.Errorf("%v (arrFloat=%v selFloat=%v): writesBack = (%v, %v), table says file %d", c, arrFloat, selFloat, isFloat, wb, want)
				}
			}
		}
	}
}

// TestNegativeSizesRefused: a register file or a data memory of negative
// size is refused by the structure check — by Static and by Program,
// which would otherwise allocate it — with the size named.
func TestNegativeSizesRefused(t *testing.T) {
	m := machine.Warp()
	src := &ir.Program{Name: "empty", Body: &ir.Block{}}
	for _, tc := range []struct {
		name string
		edit func(p *vliw.Program)
		want string
	}{
		{"float file", func(p *vliw.Program) { p.NumFRegs = -1 }, "-1 float registers"},
		{"int file", func(p *vliw.Program) { p.NumIRegs = -2 }, "-2 int registers"},
		{"data memory", func(p *vliw.Program) { p.MemWords = -3 }, "-3 data memory words"},
	} {
		p := &vliw.Program{NumFRegs: 1, NumIRegs: 1, MemWords: 1, Instrs: []vliw.Instr{{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}}}}
		if err := ProgramOpts(src, p, m, Options{}); err != nil {
			t.Fatalf("%s: the unedited program is refused: %v", tc.name, err)
		}
		tc.edit(p)
		for check, err := range map[string]error{"Static": Static(p, m), "Program": Program(src, p, m)} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s = %v, want a refusal naming %q", tc.name, check, err, tc.want)
			}
		}
	}
}
