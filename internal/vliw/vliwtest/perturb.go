// Package vliwtest holds what the object-program fuzz tests share: the
// perturbation a fuzz input applies to a compiled program.
package vliwtest

import (
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// Perturb applies edits to p, four bytes an edit: what to change, two
// selectors and a signed value.  Each edit moves one field a well-formed
// program keeps consistent — a register, a ring entry, a control target,
// a class, the array layout — to where it may no longer be.
func Perturb(p *vliw.Program, edits []byte) {
	for len(edits) >= 4 {
		kind, a, b, v := edits[0], int(edits[1]), int(edits[2]), int(int8(edits[3]))
		edits = edits[4:]
		if len(p.Instrs) == 0 {
			return
		}
		in := &p.Instrs[a%len(p.Instrs)]
		var op *vliw.SlotOp
		if len(in.Ops) > 0 {
			op = &in.Ops[b%len(in.Ops)]
		}
		switch kind % 13 {
		case 0: // a destination register
			if op != nil {
				op.Dst = int32(v)
			}
		case 1: // a source register, past the op's arity if need be
			if op != nil {
				op.Src[b%len(op.Src)] = int32(v)
			}
		case 2: // a destination ring of b%4 entries
			if op != nil {
				ring := make([]int32, b%4)
				for i := range ring {
					ring[i] = int32(v + i)
				}
				rings(op).Dst = ring
			}
		case 3: // a source ring entry, past the op's arity if need be
			if op != nil {
				r := rings(op)
				k := b % len(r.Src)
				r.Src[k] = append(r.Src[k], int32(v))
			}
		case 4: // the class, in or out of the table
			if op != nil {
				op.Class = machine.Class(v)
			}
		case 5: // the sequencer's kind and target
			in.Ctl.Kind = vliw.CtlKind(b % 8)
			in.Ctl.Target = int32(v)
		case 6: // the sequencer's register, its ring and the rotate flag
			in.Ctl.Reg = int32(v)
			if b%3 == 0 {
				ring := append(in.Ctl.Ring(), int32(v))
				in.Ctl.RegRing = &ring
			}
			in.Ctl.Rotate = b%2 == 0
		case 7: // one array's placement and kind
			if len(p.Arrays) > 0 {
				arr := &p.Arrays[a%len(p.Arrays)]
				switch b % 3 {
				case 0:
					arr.Base += v
				case 1:
					arr.Size += v
				default:
					arr.Kind = ir.Kind(v)
				}
			}
		case 8: // the memory size and the register files
			switch b % 3 {
			case 0:
				p.MemWords += v
			case 1:
				p.NumFRegs += v
			default:
				p.NumIRegs += v
			}
		case 9: // the array an op names, its displacement and immediates
			if op != nil {
				switch b % 4 {
				case 0:
					op.Array = "?"
					if len(p.Arrays) > 0 && v >= 0 {
						op.Array = p.Arrays[v%len(p.Arrays)].Name
					}
				case 1:
					op.Disp += int32(v)
				case 2:
					op.IImm = int64(v)
				default:
					op.FImm = float64(v)
				}
			}
		case 10: // a result's register and kind
			if len(p.Results) > 0 {
				r := &p.Results[b%len(p.Results)]
				r.Reg = v
				if v < 0 {
					r.Kind = ir.Kind(-v)
				}
			}
		case 11: // initial data of a length that need not match
			if len(p.Arrays) > 0 && v >= 0 {
				name := p.Arrays[a%len(p.Arrays)].Name
				if p.InitF == nil {
					p.InitF = map[string][]float64{}
				}
				if p.InitI == nil {
					p.InitI = map[string][]int64{}
				}
				p.InitF[name] = make([]float64, v)
				p.InitI[name] = make([]int64, v)
			}
		default: // the shape: drop a word, repeat one, or empty its slots
			switch b % 3 {
			case 0:
				p.Instrs = append(p.Instrs[:a%len(p.Instrs)], p.Instrs[a%len(p.Instrs)+1:]...)
			case 1:
				p.Instrs = append(p.Instrs, *in)
			default:
				in.Ops = nil
			}
		}
	}
}

// rings returns op's rings, giving it empty ones first if it has none.
func rings(op *vliw.SlotOp) *vliw.Rings {
	if op.Rings == nil {
		op.Rings = &vliw.Rings{}
	}
	return op.Rings
}
