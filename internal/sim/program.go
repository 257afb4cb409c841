package sim

import (
	"fmt"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// decOp is one pre-decoded slot operation: latency, flop count, array
// layout and operand files are resolved at decode time so the cycle loop
// does no descriptor or array-table lookups.
type decOp struct {
	class machine.Class
	// dstFile and srcFile are the class's operand files
	// (machine.ClassInfo) resolved against this op's array kind and
	// select flag: FileFloat, FileInt, or FileNone for an operand the
	// class lacks.  The decode-time range check and the fast path's
	// file/counter analysis both read them.
	dstFile  machine.File
	srcFile  [3]machine.File
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

// touchesIntReg reports whether the op reads or writes static integer
// register r.
func (o *decOp) touchesIntReg(r int) bool {
	if o.dstFile == machine.FileInt && o.dst == r {
		return true
	}
	for k, f := range o.srcFile {
		if f == machine.FileInt && o.src[k] == r {
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
	// at pc that Run may engage (fast.go).  A nil slice is the step-only
	// reference New builds: Run steps every cycle.
	blocks []*block
}

// Decode lowers p for machine m, resolving operation descriptors and
// array layout and checking every register operand against its file once,
// and attaches the steady-state blocks Run may engage (fast.go); Step is
// unaffected.
func Decode(p *vliw.Program, m *machine.Machine) (*Program, error) {
	d := decode(p, m)
	if d.err != nil {
		return nil, d.err
	}
	d.buildBlocks()
	return d, nil
}

// decode is Decode without blocks; a failure is kept in the program's err
// (New defers it to the first Step).
func decode(p *vliw.Program, m *machine.Machine) *Program {
	// A power of two, so a due cycle's ring slot is a mask, not a division.
	ringLen := 2
	for maxLat := m.MaxLatency(); ringLen <= maxLat; {
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
	if d.err = checkLayout(p); d.err != nil {
		return d
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
			row := o.Class.Info()
			if row.UsesArray() {
				arr := p.Array(o.Array)
				if arr == nil {
					d.err = fmt.Errorf("sim: @%d: unknown array %q", pc, o.Array)
					return d
				}
				dec.arrBase = int64(arr.Base)
				dec.arrEnd = int64(arr.Base + arr.Size)
				dec.arrFloat = arr.Kind == ir.KindFloat
				dec.arrName = arr.Name
			}
			// The code generator marks a float select with FImm = 1.
			dec.selFloat = row.Dst == machine.FileSelect && o.FImm != 0
			w.queue = w.queue || o.Class == machine.ClassRecv || o.Class == machine.ClassSend
			dec.dstFile = row.Dst.Resolve(dec.arrFloat, dec.selFloat)
			if d.err = d.checkOperand(pc, dec.dstFile, dec.dst, dec.dstRing); d.err != nil {
				return d
			}
			for k, f := range row.Src {
				dec.srcFile[k] = f.Resolve(dec.arrFloat, dec.selFloat)
				if d.err = d.checkOperand(pc, dec.srcFile[k], dec.src[k], dec.srcRing[k]); d.err != nil {
					return d
				}
			}
			w.flops += dec.flops
			d.ops = append(d.ops, dec)
		}
		w.hi = int32(len(d.ops))
		switch in.Ctl.Kind {
		case vliw.CtlDBNZ, vliw.CtlJZ, vliw.CtlJNZ:
			if d.err = d.checkOperand(pc, machine.FileInt, in.Ctl.Reg, in.Ctl.RegRing); d.err != nil {
				return d
			}
		}
	}
	for _, r := range p.Results {
		f := machine.FileInt
		if r.Kind == ir.KindFloat {
			f = machine.FileFloat
		}
		if err := d.checkReg(f, r.Reg); err != nil {
			d.err = fmt.Errorf("sim: result %s: %w", r.Name, err)
			return d
		}
	}
	return d
}

// checkLayout checks what a cell allocates and addresses before any
// operand is read: the register files and the memory are not negative, and
// every array lies inside the memory.
func checkLayout(p *vliw.Program) error {
	if p.NumFRegs < 0 || p.NumIRegs < 0 || p.MemWords < 0 {
		return fmt.Errorf("sim: negative size: %d f registers, %d i registers, %d memory words",
			p.NumFRegs, p.NumIRegs, p.MemWords)
	}
	for _, a := range p.Arrays {
		if a.Base < 0 || a.Size < 0 || a.Base > p.MemWords-a.Size {
			return fmt.Errorf("sim: array %s [%d, %d+%d) outside memory of %d words",
				a.Name, a.Base, a.Base, a.Size, p.MemWords)
		}
	}
	return nil
}

// checkOperand range-checks one operand of the word at pc: its static
// register and every entry of its ring.
func (p *Program) checkOperand(pc int, f machine.File, static int, ring []int) error {
	if f == machine.FileNone {
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

func (p *Program) checkReg(f machine.File, r int) error {
	name, n := "i", p.Src.NumIRegs
	if f == machine.FileFloat {
		name, n = "f", p.Src.NumFRegs
	}
	if r < 0 || r >= n {
		return fmt.Errorf("register %s%d out of range (file has %d)", name, r, n)
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
