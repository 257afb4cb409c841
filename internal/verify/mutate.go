package verify

import (
	"fmt"
	"slices"

	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// Mutation is one single-point perturbation of an object program, used
// to demonstrate that the verifier rejects broken schedules rather than
// rubber-stamping whatever the compiler emits.
type Mutation struct {
	// Desc says what was perturbed, for test diagnostics.
	Desc string
	// Apply perturbs p in place.  Apply it to a private clone.
	Apply func(p *vliw.Program)
}

// CloneProgram deep-copies the instruction stream (the part mutations
// touch), rotation rings included; layout, initial data and result
// descriptors are shared.
func CloneProgram(p *vliw.Program) *vliw.Program {
	q := *p
	q.Instrs = make([]vliw.Instr, len(p.Instrs))
	for i := range p.Instrs {
		in := p.Instrs[i]
		in.Ops = slices.Clone(in.Ops)
		for j := range in.Ops {
			if r := in.Ops[j].Rings; r != nil {
				c := &vliw.Rings{Dst: slices.Clone(r.Dst)}
				for k := range r.Src {
					c.Src[k] = slices.Clone(r.Src[k])
				}
				in.Ops[j].Rings = c
			}
		}
		if in.Ctl.RegRing != nil {
			ring := slices.Clone(*in.Ctl.RegRing)
			in.Ctl.RegRing = &ring
		}
		q.Instrs[i] = in
	}
	return &q
}

// rotateRing turns a rotation ring by one position in place: what a
// pre-rotation off by one would have emitted.
func rotateRing(ring []int32) {
	first := ring[0]
	copy(ring, ring[1:])
	ring[len(ring)-1] = first
}

// Mutations enumerates every single-slot/operand perturbation of p:
// bump each source operand to the next register of its file, bump each
// written destination, bump each memory displacement, and flip each
// compare predicate.  Every mutation models a real scheduler or
// allocator bug class (stale operand, live-range clobber, mis-addressed
// access, inverted guard).
//
// A program with rotating operands also gets each ring of two or more
// entries turned by one position (a mis-rotated ring; bumping one entry
// would not do — outside the kernel most entries are never selected, and
// such a mutant survives legitimately) and each rotating loop-back
// stripped of its Rotate mark.  A program without rings gets exactly the
// list above.
func Mutations(p *vliw.Program) []Mutation {
	var muts []Mutation
	hasRing := false
	for pc := range p.Instrs {
		for oi := range p.Instrs[pc].Ops {
			hasRing = hasRing || p.Instrs[pc].Ops[oi].Rotating()
		}
		hasRing = hasRing || len(p.Instrs[pc].Ctl.Ring()) > 0
	}
	bump := func(r int32, isFloat bool) int32 {
		size := p.NumIRegs
		if isFloat {
			size = p.NumFRegs
		}
		if size <= 1 {
			return r
		}
		return int32((int(r) + 1) % size)
	}
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		for oi := range in.Ops {
			o := &in.Ops[oi]
			n, ok := nSrc(o.Class)
			if !ok {
				continue
			}
			for si := 0; si < n; si++ {
				if len(o.SrcRing(si)) > 0 {
					continue // the ring, not Src[si], names the register
				}
				pc, oi, si := pc, oi, si
				isF := srcIsFloat(p, o, si)
				if nr := bump(o.Src[si], isF); nr != o.Src[si] {
					muts = append(muts, Mutation{
						Desc: fmt.Sprintf("@%d slot %d (%s): src%d %d -> %d", pc, oi, o.Class, si, o.Src[si], nr),
						Apply: func(p *vliw.Program) {
							o := &p.Instrs[pc].Ops[oi]
							o.Src[si] = bump(o.Src[si], isF)
						},
					})
				}
			}
			if isF, wb := writesBack(p, o); wb && len(o.DstRing()) == 0 {
				pc, oi := pc, oi
				if nr := bump(o.Dst, isF); nr != o.Dst {
					muts = append(muts, Mutation{
						Desc: fmt.Sprintf("@%d slot %d (%s): dst %d -> %d", pc, oi, o.Class, o.Dst, nr),
						Apply: func(p *vliw.Program) {
							o := &p.Instrs[pc].Ops[oi]
							o.Dst = bump(o.Dst, isF)
						},
					})
				}
			}
			if o.Class == machine.ClassLoad || o.Class == machine.ClassStore {
				pc, oi := pc, oi
				muts = append(muts, Mutation{
					Desc: fmt.Sprintf("@%d slot %d (%s %s): disp %d -> %d", pc, oi, o.Class, o.Array, o.Disp, o.Disp+1),
					Apply: func(p *vliw.Program) {
						p.Instrs[pc].Ops[oi].Disp++
					},
				})
			}
			if o.Class == machine.ClassFCmp || o.Class == machine.ClassICmp {
				pc, oi := pc, oi
				muts = append(muts, Mutation{
					Desc: fmt.Sprintf("@%d slot %d (%s): negate predicate", pc, oi, o.Class),
					Apply: func(p *vliw.Program) {
						o := &p.Instrs[pc].Ops[oi]
						// eq<->ne, lt<->ge, le<->gt
						neg := [...]int64{1, 0, 5, 4, 3, 2}
						if o.IImm >= 0 && o.IImm < int64(len(neg)) {
							o.IImm = neg[o.IImm]
						}
					},
				})
			}
			if ring := o.DstRing(); len(ring) >= 2 {
				pc, oi := pc, oi
				muts = append(muts, Mutation{
					Desc:  fmt.Sprintf("@%d slot %d (%s): rotate dst ring %v", pc, oi, o.Class, ring),
					Apply: func(p *vliw.Program) { rotateRing(p.Instrs[pc].Ops[oi].DstRing()) },
				})
			}
			for si := 0; si < n; si++ {
				if ring := o.SrcRing(si); len(ring) >= 2 {
					pc, oi, si := pc, oi, si
					muts = append(muts, Mutation{
						Desc:  fmt.Sprintf("@%d slot %d (%s): rotate src%d ring %v", pc, oi, o.Class, si, ring),
						Apply: func(p *vliw.Program) { rotateRing(p.Instrs[pc].Ops[oi].SrcRing(si)) },
					})
				}
			}
		}
		if ring := in.Ctl.Ring(); len(ring) >= 2 {
			pc := pc
			muts = append(muts, Mutation{
				Desc:  fmt.Sprintf("@%d: rotate branch register ring %v", pc, ring),
				Apply: func(p *vliw.Program) { rotateRing(p.Instrs[pc].Ctl.Ring()) },
			})
		}
		if in.Ctl.Kind == vliw.CtlDBNZ && in.Ctl.Rotate && hasRing {
			pc := pc
			muts = append(muts, Mutation{
				Desc:  fmt.Sprintf("@%d: dbnz loses its rotate mark", pc),
				Apply: func(p *vliw.Program) { p.Instrs[pc].Ctl.Rotate = false },
			})
		}
	}
	return muts
}
