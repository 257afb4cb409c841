package vliw

import "softpipe/internal/machine"

// wireOp is a slot op's wire form (Program.Wire): the JSON layout
// artifacts have always had, which object_sha256 and GET /artifact/{key}
// digest.  Src lists the sources the op reads (null for none); the rings
// are omitted when no operand rotates, and SrcRings, when present, is
// parallel to Src with null for a static source.
type wireOp struct {
	Class    machine.Class
	Dst      int32
	Src      []int32
	FImm     float64
	IImm     int64
	Disp     int32
	Array    string
	DstRing  []int32   `json:",omitempty"`
	SrcRings [][]int32 `json:",omitempty"`
}

// wire returns the op's wire form, sharing the op's storage.
func (o *SlotOp) wire() wireOp {
	w := wireOp{Class: o.Class, Dst: o.Dst, FImm: o.FImm, IImm: o.IImm, Disp: o.Disp, Array: o.Array}
	n := o.Class.Info().NSrc()
	if n > 0 {
		w.Src = o.Src[:n]
	}
	if o.Rings != nil {
		w.DstRing = o.Rings.Dst
		if hasRing(o.Rings.Src[:n]) {
			w.SrcRings = o.Rings.Src[:n]
		}
	}
	return w
}

// hasRing reports whether some entry of a source-ring list is non-nil.
func hasRing(rings [][]int32) bool {
	for _, r := range rings {
		if r != nil {
			return true
		}
	}
	return false
}

// wireProgram and wireInstr are Program and Instr with their ops in wire
// form, field for field, so encoding/json writes the wire bytes by
// reflection alone.
type wireProgram struct {
	Name     string
	Instrs   []wireInstr
	NumFRegs int
	NumIRegs int
	MemWords int
	Arrays   []ArrayInfo
	InitF    map[string][]float64
	InitI    map[string][]int64
	Results  []Result
}

type wireInstr struct {
	Ops []wireOp
	Ctl Ctl
}

// Wire returns p in its wire form, which encoding/json writes by
// reflection alone: the daemon digests and serves every artifact it
// compiles in this form.  Encoding p itself writes the in-memory layout
// (Src as three registers, rings behind Rings), which reads back to the
// same program but is not the artifact form.  The form shares p's
// storage.
func (p *Program) Wire() any {
	nops := 0
	for i := range p.Instrs {
		nops += len(p.Instrs[i].Ops)
	}
	instrs, ops := make([]wireInstr, len(p.Instrs)), make([]wireOp, nops)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		instrs[i].Ctl = in.Ctl
		if in.Ops == nil {
			continue // null, not []
		}
		instrs[i].Ops, ops = ops[:len(in.Ops):len(in.Ops)], ops[len(in.Ops):]
		for j := range in.Ops {
			instrs[i].Ops[j] = in.Ops[j].wire()
		}
	}
	return &wireProgram{
		Name: p.Name, Instrs: instrs,
		NumFRegs: p.NumFRegs, NumIRegs: p.NumIRegs, MemWords: p.MemWords,
		Arrays: p.Arrays, InitF: p.InitF, InitI: p.InitI, Results: p.Results,
	}
}
