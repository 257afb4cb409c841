package sim

import (
	"fmt"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// regFile names a register file; noReg marks an operand the class does
// not have.
type regFile uint8

const (
	noReg regFile = iota
	fReg
	iReg
)

func (f regFile) String() string { return [...]string{"?", "f", "i"}[f] }

// opSig is the operand signature of a slot operation: which register file
// its destination and each of its sources live in.  It is the one place
// that says so; the decode-time range check and the fast path's
// file/counter analysis both read it.
type opSig struct {
	dst regFile
	src [3]regFile
}

// classSigs gives the signature of every class whose operand files are
// fixed.  Load, store and select depend on the decoded op (array kind,
// float-select flag); see decOp.resolveSig.
var classSigs = [...]opSig{
	machine.ClassFAdd:       {fReg, [3]regFile{fReg, fReg}},
	machine.ClassFSub:       {fReg, [3]regFile{fReg, fReg}},
	machine.ClassFMul:       {fReg, [3]regFile{fReg, fReg}},
	machine.ClassFNeg:       {fReg, [3]regFile{fReg}},
	machine.ClassFMov:       {fReg, [3]regFile{fReg}},
	machine.ClassFConst:     {dst: fReg},
	machine.ClassFCmp:       {iReg, [3]regFile{fReg, fReg}},
	machine.ClassIAdd:       {iReg, [3]regFile{iReg, iReg}},
	machine.ClassISub:       {iReg, [3]regFile{iReg, iReg}},
	machine.ClassIMul:       {iReg, [3]regFile{iReg, iReg}},
	machine.ClassIMov:       {iReg, [3]regFile{iReg}},
	machine.ClassIConst:     {dst: iReg},
	machine.ClassICmp:       {iReg, [3]regFile{iReg, iReg}},
	machine.ClassAdrAdd:     {iReg, [3]regFile{iReg, iReg}},
	machine.ClassRecv:       {dst: fReg},
	machine.ClassSend:       {src: [3]regFile{fReg}},
	machine.ClassIShr:       {iReg, [3]regFile{iReg}},
	machine.ClassIAnd:       {iReg, [3]regFile{iReg}},
	machine.ClassFRecipSeed: {fReg, [3]regFile{fReg}},
	machine.ClassFRsqrtSeed: {fReg, [3]regFile{fReg}},
	machine.ClassF2I:        {iReg, [3]regFile{fReg}},
	machine.ClassI2F:        {fReg, [3]regFile{iReg}},
}

// decOp is one pre-decoded slot operation: latency, flop count, array
// layout and operand files are resolved at decode time so the cycle loop
// does no descriptor or array-table lookups.
type decOp struct {
	class    machine.Class
	sig      opSig
	dst      int
	src      [3]int
	lat      int64
	flops    int64
	fimm     float64
	iimm     int64
	disp     int64
	arrBase  int64
	arrEnd   int64 // base+size
	arrFloat bool
	arrName  string // diagnostics only
	selFloat bool   // ClassISelect: float-file select

	// Rotating-register operands: when rotates is set, the effective
	// dst/src registers are ring[rrb mod len(ring)] at issue time (nil
	// rings keep the static register).  Static programs never set these,
	// so the hot path pays one bool test per op.
	rotates bool
	dstRing []int
	srcRing [3][]int
}

// resolveSig fills o.sig: the class's fixed signature, or for the three
// classes whose files depend on the op, the one its decoded facts select.
func (o *decOp) resolveSig() {
	file := func(isFloat bool) regFile {
		if isFloat {
			return fReg
		}
		return iReg
	}
	switch o.class {
	case machine.ClassLoad:
		o.sig = opSig{file(o.arrFloat), [3]regFile{iReg}}
	case machine.ClassStore:
		o.sig = opSig{noReg, [3]regFile{iReg, file(o.arrFloat)}}
	case machine.ClassISelect:
		f := file(o.selFloat)
		o.sig = opSig{f, [3]regFile{iReg, f, f}}
	default:
		if int(o.class) < len(classSigs) {
			o.sig = classSigs[o.class]
		}
	}
}

// touchesIntReg reports whether the op reads or writes static integer
// register r.
func (o *decOp) touchesIntReg(r int) bool {
	if o.sig.dst == iReg && o.dst == r {
		return true
	}
	for k, f := range o.sig.src {
		if f == iReg && o.src[k] == r {
			return true
		}
	}
	return false
}

// decWord is one decoded instruction word: its slots in Program.ops, its
// sequencer field, and the word-level facts Step would otherwise
// recompute every cycle.
type decWord struct {
	lo, hi int32 // ops[lo:hi]
	flops  int64
	queue  bool // some slot is a Recv or Send: Step must precheck the queues
	ctl    vliw.Ctl
}

// Program is the decoded form of an object program: immutable once built
// and shared by every cell (array cells, batch lanes) that executes it.
type Program struct {
	Src *vliw.Program

	words   []decWord
	ops     []decOp
	ringLen int // write-back ring length: the power of two above the max latency
	err     error

	// blocks[pc], when non-nil, is the steady-state kernel block headed
	// at pc that Run may engage (fast.go).  A nil slice is the
	// interpreter engine: Run steps every cycle.
	blocks []*block
}

// Decode lowers p for machine m, resolving operation descriptors and
// array layout and checking every register operand against its file once.
// With fast set it also attaches the steady-state blocks Run may engage —
// the whole of what "engine = compiled" means; Step is unaffected.
func Decode(p *vliw.Program, m *machine.Machine, fast bool) (*Program, error) {
	d := decode(p, m)
	if d.err != nil {
		return nil, d.err
	}
	if fast {
		d.buildBlocks()
	}
	return d, nil
}

// decode is Decode without blocks; a failure is kept in the program's err
// (New defers it to the first Step).
func decode(p *vliw.Program, m *machine.Machine) *Program {
	maxLat := 1
	for c := machine.Class(0); c < machine.Class(machine.NumClasses()); c++ {
		if d := m.Desc(c); d != nil && d.Latency > maxLat {
			maxLat = d.Latency
		}
	}
	// A power of two, so a due cycle's ring slot is a mask, not a division.
	ringLen := 2
	for ringLen <= maxLat {
		ringLen <<= 1
	}
	nOps := 0
	for i := range p.Instrs {
		nOps += len(p.Instrs[i].Ops)
	}
	d := &Program{
		Src:     p,
		words:   make([]decWord, len(p.Instrs)),
		ops:     make([]decOp, 0, nOps),
		ringLen: ringLen,
	}
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		w := &d.words[pc]
		w.lo = int32(len(d.ops))
		w.ctl = in.Ctl
		for oi := range in.Ops {
			o := &in.Ops[oi]
			desc := m.Desc(o.Class)
			if desc == nil {
				d.err = fmt.Errorf("sim: @%d: unsupported class %v", pc, o.Class)
				return d
			}
			dec := decOp{
				class:   o.Class,
				dst:     o.Dst,
				lat:     int64(desc.Latency),
				flops:   int64(desc.Flops),
				fimm:    o.FImm,
				iimm:    o.IImm,
				disp:    o.Disp,
				rotates: o.Rotating(),
				dstRing: o.DstRing,
			}
			copy(dec.src[:], o.Src)
			copy(dec.srcRing[:], o.SrcRings)
			switch o.Class {
			case machine.ClassLoad, machine.ClassStore:
				arr := p.Array(o.Array)
				if arr == nil {
					d.err = fmt.Errorf("sim: @%d: unknown array %q", pc, o.Array)
					return d
				}
				dec.arrBase = int64(arr.Base)
				dec.arrEnd = int64(arr.Base + arr.Size)
				dec.arrFloat = arr.Kind == ir.KindFloat
				dec.arrName = arr.Name
			case machine.ClassISelect:
				dec.selFloat = o.FImm != 0
			case machine.ClassRecv, machine.ClassSend:
				w.queue = true
			}
			dec.resolveSig()
			if d.err = d.checkOperand(pc, dec.sig.dst, dec.dst, dec.dstRing); d.err != nil {
				return d
			}
			for k, f := range dec.sig.src {
				if d.err = d.checkOperand(pc, f, dec.src[k], dec.srcRing[k]); d.err != nil {
					return d
				}
			}
			w.flops += dec.flops
			d.ops = append(d.ops, dec)
		}
		w.hi = int32(len(d.ops))
		switch in.Ctl.Kind {
		case vliw.CtlDBNZ, vliw.CtlJZ, vliw.CtlJNZ:
			if d.err = d.checkOperand(pc, iReg, in.Ctl.Reg, in.Ctl.RegRing); d.err != nil {
				return d
			}
		}
	}
	for _, r := range p.Results {
		f := iReg
		if r.Kind == ir.KindFloat {
			f = fReg
		}
		if err := d.checkReg(f, r.Reg); err != nil {
			d.err = fmt.Errorf("sim: result %s: %w", r.Name, err)
			return d
		}
	}
	return d
}

// checkOperand range-checks one operand of the word at pc: its static
// register and every entry of its ring.
func (p *Program) checkOperand(pc int, f regFile, static int, ring []int) error {
	if f == noReg {
		return nil
	}
	err := p.checkReg(f, static)
	for i := 0; err == nil && i < len(ring); i++ {
		err = p.checkReg(f, ring[i])
	}
	if err != nil {
		return fmt.Errorf("sim: @%d: %w", pc, err)
	}
	return nil
}

func (p *Program) checkReg(f regFile, r int) error {
	n := p.Src.NumIRegs
	if f == fReg {
		n = p.Src.NumFRegs
	}
	if r < 0 || r >= n {
		return fmt.Errorf("register %v%d out of range (file has %d)", f, r, n)
	}
	return nil
}

// Blocks reports how many steady-state kernel blocks are eligible for the
// fast path (0 for a program decoded without them).
func (p *Program) Blocks() int {
	n := 0
	for _, b := range p.blocks {
		if b != nil {
			n++
		}
	}
	return n
}

// DistinctWords counts the instruction words that differ in slot content
// (sequencer fields aside) — a reporting number for how repetitive the
// object code is, computed on demand.
func (p *Program) DistinctWords() int {
	seen := make(map[string]struct{}, len(p.words))
	var key []byte
	for i := range p.words {
		w := &p.words[i]
		key = fmt.Appendf(key[:0], "%v", p.ops[w.lo:w.hi])
		seen[string(key)] = struct{}{}
	}
	return len(seen)
}
