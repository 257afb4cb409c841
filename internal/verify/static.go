package verify

import (
	"fmt"
	"slices"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// nSrc gives the source-operand arity each class must carry in a slot.
// Deliberately restated here rather than imported from the emitter: the
// verifier is a second derivation of the encoding rules.
func nSrc(c machine.Class) (int, bool) {
	switch c {
	case machine.ClassNop, machine.ClassFConst, machine.ClassIConst, machine.ClassRecv:
		return 0, true
	case machine.ClassFNeg, machine.ClassFMov, machine.ClassIMov, machine.ClassIShr,
		machine.ClassIAnd, machine.ClassFRecipSeed, machine.ClassFRsqrtSeed,
		machine.ClassF2I, machine.ClassI2F, machine.ClassSend, machine.ClassLoad:
		return 1, true
	case machine.ClassFAdd, machine.ClassFSub, machine.ClassFMul, machine.ClassFCmp,
		machine.ClassIAdd, machine.ClassISub, machine.ClassIMul, machine.ClassICmp,
		machine.ClassAdrAdd, machine.ClassStore:
		return 2, true
	case machine.ClassISelect:
		return 3, true
	}
	return 0, false
}

// dstIsFloat resolves which register file a slot op's destination lives
// in: the class decides, except loads (the array's kind) and selects
// (the code generator marks float selects with FImm = 1).
func dstIsFloat(p *vliw.Program, o *vliw.SlotOp) bool {
	switch o.Class {
	case machine.ClassLoad:
		if a := p.Array(o.Array); a != nil {
			return a.Kind == ir.KindFloat
		}
		return false
	case machine.ClassISelect:
		return o.FImm != 0
	}
	return o.Class.IsFloat()
}

// srcIsFloat resolves the register file of source operand i of o.
func srcIsFloat(p *vliw.Program, o *vliw.SlotOp, i int) bool {
	switch o.Class {
	case machine.ClassFAdd, machine.ClassFSub, machine.ClassFMul, machine.ClassFNeg,
		machine.ClassFMov, machine.ClassFCmp, machine.ClassSend,
		machine.ClassFRecipSeed, machine.ClassFRsqrtSeed, machine.ClassF2I:
		return true
	case machine.ClassISelect:
		if i == 0 {
			return false // condition
		}
		return o.FImm != 0
	case machine.ClassStore:
		if i == 0 {
			return false // address
		}
		if a := p.Array(o.Array); a != nil {
			return a.Kind == ir.KindFloat
		}
		return false
	}
	// Load address, I2F operand, and all integer classes read the int file.
	return false
}

// writesFloat reports whether o writes back a register and to which file.
func writesBack(p *vliw.Program, o *vliw.SlotOp) (isFloat bool, ok bool) {
	switch o.Class {
	case machine.ClassNop, machine.ClassStore, machine.ClassSend:
		return false, false
	}
	if o.Class.IsBranch() {
		return false, false
	}
	return dstIsFloat(p, o), true
}

// checkStructure validates the program's static encoding against the
// machine: supported classes, register indices within the declared files
// (and the declared files within the machine's), branch targets and
// registers, array layout within data memory, and no negative size among
// the files and the memory.  (A slot holds three sources and at most one
// ring per operand, so an op cannot lack a source or carry a ring list
// out of step with its sources.)
func checkStructure(p *vliw.Program, m *machine.Machine) error {
	for _, size := range []struct {
		n    int
		what string
	}{{p.NumFRegs, "float registers"}, {p.NumIRegs, "int registers"}, {p.MemWords, "data memory words"}} {
		if size.n < 0 {
			return fmt.Errorf("verify: program declares %d %s", size.n, size.what)
		}
	}
	if p.NumFRegs > m.FloatRegs {
		return fmt.Errorf("verify: program declares %d float registers, machine %s has %d", p.NumFRegs, m.Name, m.FloatRegs)
	}
	if p.NumIRegs > m.IntRegs {
		return fmt.Errorf("verify: program declares %d int registers, machine %s has %d", p.NumIRegs, m.Name, m.IntRegs)
	}
	for i := range p.Arrays {
		a := &p.Arrays[i]
		if a.Base < 0 || a.Size < 0 || a.Base+a.Size > p.MemWords {
			return fmt.Errorf("verify: array %s [%d,%d) outside the %d-word data memory", a.Name, a.Base, a.Base+a.Size, p.MemWords)
		}
		for j := 0; j < i; j++ {
			b := &p.Arrays[j]
			if a.Base < b.Base+b.Size && b.Base < a.Base+a.Size {
				return fmt.Errorf("verify: arrays %s and %s overlap in data memory", a.Name, b.Name)
			}
		}
	}
	regOK := func(isFloat bool, r int32) bool {
		if isFloat {
			return r >= 0 && int(r) < p.NumFRegs
		}
		return r >= 0 && int(r) < p.NumIRegs
	}
	file := func(isFloat bool) string {
		if isFloat {
			return "f"
		}
		return "i"
	}
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		for oi := range in.Ops {
			o := &in.Ops[oi]
			if m.Desc(o.Class) == nil {
				return fmt.Errorf("verify: @%d: class %v unsupported on %s", pc, o.Class, m.Name)
			}
			n, ok := nSrc(o.Class)
			if !ok {
				return fmt.Errorf("verify: @%d: class %v is not a slot operation", pc, o.Class)
			}
			for i := 0; i < n; i++ {
				f := srcIsFloat(p, o, i)
				if !regOK(f, o.Src[i]) {
					return fmt.Errorf("verify: @%d: %s operand %d reads %s%d outside the %s file", pc, o.Class, i, file(f), o.Src[i], file(f))
				}
			}
			if f, wb := writesBack(p, o); wb {
				if !regOK(f, o.Dst) {
					return fmt.Errorf("verify: @%d: %s writes %s%d outside the %s file", pc, o.Class, file(f), o.Dst, file(f))
				}
			}
			if o.Class == machine.ClassLoad || o.Class == machine.ClassStore {
				a := p.Array(o.Array)
				if a == nil {
					return fmt.Errorf("verify: @%d: unknown array %q", pc, o.Array)
				}
			}
			if o.Rotating() {
				if !m.RotatingRegs {
					return fmt.Errorf("verify: @%d: %s has rotating operands but %s has no rotating register file", pc, o.Class, m.Name)
				}
				if f, wb := writesBack(p, o); wb {
					for _, r := range o.DstRing() {
						if !regOK(f, r) {
							return fmt.Errorf("verify: @%d: %s destination ring entry %s%d outside the %s file", pc, o.Class, file(f), r, file(f))
						}
					}
				} else if len(o.DstRing()) > 0 {
					return fmt.Errorf("verify: @%d: %s has a destination ring but writes no register", pc, o.Class)
				}
				for i, ring := range o.Rings.Src {
					if i >= n && len(ring) > 0 {
						return fmt.Errorf("verify: @%d: %s has a ring on unused operand %d", pc, o.Class, i)
					}
					f := srcIsFloat(p, o, i)
					for _, r := range ring {
						if !regOK(f, r) {
							return fmt.Errorf("verify: @%d: %s operand %d ring entry %s%d outside the %s file", pc, o.Class, i, file(f), r, file(f))
						}
					}
				}
			}
		}
		switch in.Ctl.Kind {
		case vliw.CtlJump, vliw.CtlDBNZ, vliw.CtlJZ, vliw.CtlJNZ:
			if in.Ctl.Target < 0 || int(in.Ctl.Target) >= len(p.Instrs) {
				return fmt.Errorf("verify: @%d: branch target %d out of range", pc, in.Ctl.Target)
			}
		}
		if in.Ctl.Kind == vliw.CtlDBNZ || in.Ctl.Kind == vliw.CtlJZ || in.Ctl.Kind == vliw.CtlJNZ {
			if !regOK(false, in.Ctl.Reg) {
				return fmt.Errorf("verify: @%d: sequencer reads i%d outside the int file", pc, in.Ctl.Reg)
			}
		}
		if in.Ctl.Rotate {
			if !m.RotatingRegs {
				return fmt.Errorf("verify: @%d: rotating loop-back on %s, which has no rotating register file", pc, m.Name)
			}
			if in.Ctl.Kind != vliw.CtlDBNZ {
				return fmt.Errorf("verify: @%d: Rotate on non-DBNZ sequencer field", pc)
			}
		}
		if ring := in.Ctl.Ring(); len(ring) > 0 {
			if !m.RotatingRegs {
				return fmt.Errorf("verify: @%d: sequencer register ring on %s, which has no rotating register file", pc, m.Name)
			}
			if in.Ctl.Kind != vliw.CtlJZ && in.Ctl.Kind != vliw.CtlJNZ {
				return fmt.Errorf("verify: @%d: sequencer register ring on a non-JZ/JNZ field", pc)
			}
			for _, r := range ring {
				if !regOK(false, r) {
					return fmt.Errorf("verify: @%d: sequencer ring entry i%d outside the int file", pc, r)
				}
			}
		}
		if in.Ctl.Kind == vliw.CtlRotClear && !m.RotatingRegs {
			return fmt.Errorf("verify: @%d: rotclear on %s, which has no rotating register file", pc, m.Name)
		}
	}
	return nil
}

// checkResources proves no execution cycle oversubscribes a resource.
// Usage per issue row is rebuilt from the machine's reservation tables
// (the sequencer field counts one Branch use).  Three views cover the
// ways reservations can collide:
//
//   - every row's offset-0 usage must fit (exact for machines whose
//     tables only reserve at offset 0, like the Warp cell);
//   - along straight-line fall-through runs, offset->0 reservations of
//     earlier rows spill onto later rows and must still fit;
//   - inside every cyclic region ending in a single backward branch —
//     the kernel of a pipelined loop re-issues its rows every L cycles —
//     usage folds modulo the region length L, which is exactly Lam's
//     modulo resource constraint restated on object code.
func checkResources(p *vliw.Program, m *machine.Machine) error {
	nRes := len(m.ResourceCount)
	maxOff := 0
	for pc := range p.Instrs {
		for oi := range p.Instrs[pc].Ops {
			o := &p.Instrs[pc].Ops[oi]
			d := m.Desc(o.Class)
			if d == nil {
				return fmt.Errorf("verify: @%d: class %v unsupported on %s", pc, o.Class, m.Name)
			}
			for _, r := range d.Reservation {
				maxOff = max(maxOff, r.Offset)
			}
		}
	}
	// uses adds row pc's reservations — its ops' tables and, when it has
	// a control field, one Branch use — into the nRes-wide rows of acc,
	// a reservation at offset f going to row (base+f) % period.
	uses := func(acc []int, pc, base, period int) {
		in := &p.Instrs[pc]
		for oi := range in.Ops {
			for _, r := range m.Desc(in.Ops[oi].Class).Reservation {
				if int(r.Resource) < nRes {
					acc[(base+r.Offset)%period*nRes+int(r.Resource)]++
				}
			}
		}
		if in.Ctl.Kind != vliw.CtlNone && int(machine.ResBranch) < nRes {
			acc[base%period*nRes+int(machine.ResBranch)]++
		}
	}
	// check reports the first resource row pc oversubscribes, naming the
	// cyclic region [T..end] it was folded in unless T < 0.
	check := func(row []int, pc, T, end int) error {
		for r := 0; r < nRes; r++ {
			if row[r] > m.ResourceCount[r] {
				where := ""
				if T >= 0 {
					where = fmt.Sprintf(" in cyclic region [%d..%d] mod %d", T, end, end-T+1)
				}
				return fmt.Errorf("verify: @%d: resource %v oversubscribed (%d > %d)%s: %s",
					pc, machine.Resource(r), row[r], m.ResourceCount[r], where, p.Instrs[pc].String())
			}
		}
		return nil
	}

	// Straight-line view: rows execute on consecutive cycles until an
	// unconditional transfer, so an offset-f reservation at row q lands
	// on row q+f of the same run.  (With maxOff == 0 this is the plain
	// per-row check.)
	W := maxOff + 1
	window := make([]int, W*nRes)
	for pc := range p.Instrs {
		uses(window, pc, pc, W)
		cur := window[pc%W*nRes:][:nRes]
		if err := check(cur, pc, -1, 0); err != nil {
			return err
		}
		clear(cur)
		if k := p.Instrs[pc].Ctl.Kind; k == vliw.CtlJump || k == vliw.CtlHalt {
			clear(window)
		}
	}

	// Modulo view: a region [T..pc] closed by its only backward branch
	// re-issues with period L = pc-T+1, so all reservations fold mod L.
	var rows []int
	for pc := range p.Instrs {
		ctl := p.Instrs[pc].Ctl
		if !(ctl.Kind == vliw.CtlJump || ctl.Kind == vliw.CtlDBNZ || ctl.Kind == vliw.CtlJZ || ctl.Kind == vliw.CtlJNZ) || int(ctl.Target) > pc {
			continue
		}
		T := int(ctl.Target)
		L := pc - T + 1
		nested := false
		for q := T; q < pc; q++ {
			k := p.Instrs[q].Ctl.Kind
			if (k == vliw.CtlJump || k == vliw.CtlDBNZ || k == vliw.CtlJZ || k == vliw.CtlJNZ) && int(p.Instrs[q].Ctl.Target) <= q {
				nested = true // outer loop around inner kernels: rows are not all co-resident
				break
			}
		}
		if nested {
			continue
		}
		rows = slices.Grow(rows[:0], L*nRes)[:L*nRes]
		clear(rows)
		for q := T; q <= pc; q++ {
			uses(rows, q, q-T, L)
		}
		for i := 0; i < L; i++ {
			if err := check(rows[i*nRes:][:nRes], T+i, T, pc); err != nil {
				return err
			}
		}
	}
	return nil
}
