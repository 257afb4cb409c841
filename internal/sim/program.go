package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/trace"
	"softpipe/internal/vliw"
)

// decOp is one pre-decoded slot operation: latency, array layout and
// operand files are resolved at decode time so the cycle loop does no
// descriptor or array-table lookups.  72 bytes, what every op's issue
// reads in the first 48: registers are int32 as in the object code, the
// array is named by its index in Src.Arrays, and rotation rings stay in
// the object code's own vliw.Rings.
type decOp struct {
	// rings, when non-nil, makes the effective dst/src registers
	// ring[rrb mod len(ring)] at issue time (nil rings keep the static
	// register).  Static programs never set it, so the hot path pays one
	// nil test per op.
	rings *vliw.Rings

	dst     int32
	src     [3]int32
	lat     int32
	arrBase int32 // less the kind's span.lo (inPlace: the array's base), as arrEnd
	arrEnd  int32 // base+size
	arr     int32 // index in Src.Arrays: Sim.arrays for inPlace, else diagnostics
	class   machine.Class
	// dstFile and srcFile are the class's operand files
	// (machine.ClassInfo) resolved against this op's array kind and
	// select flag: FileFloat, FileInt, or FileNone for an operand the
	// class lacks.  The decode-time range check and the fast path's
	// file/counter analysis both read them.
	dstFile  machine.File
	srcFile  [3]machine.File
	arrFloat bool
	selFloat bool // ClassISelect: float-file select
	// inPlace marks a load from an array no store writes: its bounds
	// and disp are relative to the array itself, and it reads the cell's
	// initial slice Sim.arrays[arr] instead of memF or memI.
	inPlace bool

	fimm float64
	iimm int64
	disp int64 // less what arrBase is less: ireg+disp indexes the words read
}

// touchesIntReg reports whether the op reads or writes static integer
// register r.
func (o *decOp) touchesIntReg(r int32) bool {
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

	// spanF and spanI are the words of the flat data memory the written
	// float and int arrays occupy: all a cell allocates of it (layout).
	spanF, spanI span
	// written has bit i set when some store names Src.Arrays[i]; arrays
	// past the 64th always count as written.  Decode refuses overlapping
	// arrays, so a store reaches no other array, and a cell reads an
	// unwritten array in place from its initial slice (Sim.arrays).
	written uint64

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
	return new(Decoded).Program(p, m)
}

// Decoded is one binary's decoded form, built on first use and shared
// read-only after.  Its zero value is ready, and its first use may be
// concurrent.  It must not be copied: a copy of an object whose binary
// then changes must decode that binary for itself.
type Decoded struct {
	once sync.Once
	prog *Program
}

// load decodes p for m on the first call, traced as a "sim.decode" span
// on tr, and returns that program on every call.
func (d *Decoded) load(p *vliw.Program, m *machine.Machine, tr *trace.Tracer) *Program {
	d.once.Do(func() {
		sp := tr.Begin("sim.decode")
		if d.prog = decode(p, m); d.prog.err == nil {
			d.prog.buildBlocks()
		}
		sp.End()
	})
	return d.prog
}

// Program is Decode(p, m) made on the first call and returned by every
// later one; p and m must be the same on every call.
func (d *Decoded) Program(p *vliw.Program, m *machine.Machine) (*Program, error) {
	prog := d.load(p, m, nil)
	if prog.err != nil {
		return nil, prog.err
	}
	return prog, nil
}

// Cell is a new cell of Program(p, m), whose decode, if this call makes
// it, is traced on tr.  If p does not decode, the cell says why on its
// first Step, as New's does.
func (d *Decoded) Cell(p *vliw.Program, m *machine.Machine, tr *trace.Tracer) *Sim {
	return NewCell(d.load(p, m, tr))
}

var decodes atomic.Int64

// Decodes counts the programs this process has decoded, step-only ones
// included: the tests hold each run surface to one decode a binary.
func Decodes() int64 { return decodes.Load() }

// decode is Decode without blocks; a failure is kept in the program's err
// (New defers it to the first Step).
func decode(p *vliw.Program, m *machine.Machine) *Program {
	decodes.Add(1)
	// A power of two, so a due cycle's ring slot is a mask, not a division.
	ringLen := 2
	for maxLat := m.MaxLatency(); ringLen <= maxLat; {
		ringLen <<= 1
	}
	d := &Program{
		Src:     p,
		words:   make([]decWord, len(p.Instrs)),
		ringLen: ringLen,
	}
	// Which arrays a store names is known before layout, which spans only
	// those; a store naming no array is refused below.
	nOps := 0
	for i := range p.Instrs {
		for oi := range p.Instrs[i].Ops {
			o := &p.Instrs[i].Ops[oi]
			if o.Class != machine.ClassStore {
				continue
			}
			if k := arrayIndex(p, o.Array); k >= 0 && k < 64 {
				d.written |= 1 << k
			}
		}
		nOps += len(p.Instrs[i].Ops)
	}
	d.ops = make([]decOp, 0, nOps)
	if d.err = d.layout(); d.err != nil {
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
				class: o.Class,
				dst:   o.Dst,
				src:   o.Src,
				lat:   int32(desc.Latency),
				fimm:  o.FImm,
				iimm:  o.IImm,
				disp:  int64(o.Disp),
			}
			if o.Rotating() {
				dec.rings = o.Rings
			}
			row := o.Class.Info()
			if row.UsesArray() {
				k := arrayIndex(p, o.Array)
				if k < 0 {
					d.err = fmt.Errorf("sim: @%d: unknown array %q", pc, o.Array)
					return d
				}
				arr := &p.Arrays[k]
				dec.arrFloat = arr.Kind == ir.KindFloat
				dec.inPlace = !d.writes(k)
				lo := int64(d.spanI.lo)
				switch {
				case dec.inPlace:
					lo = int64(arr.Base)
				case dec.arrFloat:
					lo = int64(d.spanF.lo)
				}
				dec.disp -= lo
				dec.arrBase = int32(int64(arr.Base) - lo)
				dec.arrEnd = int32(int64(arr.Base+arr.Size) - lo)
				dec.arr = int32(k)
			}
			// The code generator marks a float select with FImm = 1.
			dec.selFloat = row.Dst == machine.FileSelect && o.FImm != 0
			w.queue = w.queue || o.Class == machine.ClassRecv || o.Class == machine.ClassSend
			dec.dstFile = row.Dst.Resolve(dec.arrFloat, dec.selFloat)
			if d.err = d.checkOperand(pc, dec.dstFile, dec.dst, dec.ring(-1)); d.err != nil {
				return d
			}
			for k, f := range row.Src {
				dec.srcFile[k] = f.Resolve(dec.arrFloat, dec.selFloat)
				if d.err = d.checkOperand(pc, dec.srcFile[k], dec.src[k], dec.ring(k)); d.err != nil {
					return d
				}
			}
			w.flops += int64(desc.Flops)
			d.ops = append(d.ops, dec)
		}
		w.hi = int32(len(d.ops))
		switch in.Ctl.Kind {
		case vliw.CtlDBNZ, vliw.CtlJZ, vliw.CtlJNZ:
			if d.err = d.checkOperand(pc, machine.FileInt, in.Ctl.Reg, in.Ctl.Ring()); d.err != nil {
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

// span is the run [lo, hi) of flat data-memory words that the arrays of
// one kind occupy, empty ones included, so every array's words index it.
type span struct{ lo, hi int }

func (s span) words() int { return s.hi - s.lo }

// layout checks what a cell allocates and addresses before any operand is
// read — the register files and the memory are not negative, every array
// lies inside the memory, and no two arrays share a word — and computes
// the float and int spans of the written arrays, which a cell allocates
// instead of the whole memory.
func (p *Program) layout() error {
	src := p.Src
	if src.NumFRegs < 0 || src.NumIRegs < 0 || src.MemWords < 0 {
		return fmt.Errorf("sim: negative size: %d f registers, %d i registers, %d memory words",
			src.NumFRegs, src.NumIRegs, src.MemWords)
	}
	if src.MemWords > math.MaxInt32 {
		return fmt.Errorf("sim: %d memory words, more than 2^31-1", src.MemWords)
	}
	p.spanF = span{lo: src.MemWords}
	p.spanI = span{lo: src.MemWords}
	for i := range src.Arrays {
		a := &src.Arrays[i]
		if a.Base < 0 || a.Size < 0 || a.Base > src.MemWords-a.Size {
			return fmt.Errorf("sim: array %s [%d, %d+%d) outside memory of %d words",
				a.Name, a.Base, a.Base, a.Size, src.MemWords)
		}
		for j := range i {
			if b := &src.Arrays[j]; a.Base < b.Base+b.Size && b.Base < a.Base+a.Size {
				return fmt.Errorf("sim: arrays %s and %s overlap in data memory", b.Name, a.Name)
			}
		}
		if !p.writes(i) {
			continue
		}
		s := &p.spanI
		if a.Kind == ir.KindFloat {
			s = &p.spanF
		}
		s.lo, s.hi = min(s.lo, a.Base), max(s.hi, a.Base+a.Size)
	}
	// A kind without written arrays is left at {MemWords, 0}: make it empty.
	p.spanF.lo = min(p.spanF.lo, p.spanF.hi)
	p.spanI.lo = min(p.spanI.lo, p.spanI.hi)
	return nil
}

// writes reports whether a store of p may write Src.Arrays[i].
func (p *Program) writes(i int) bool { return i >= 64 || p.written&(1<<i) != 0 }

// arrayIndex is the index of the first array named name in p, or -1.
func arrayIndex(p *vliw.Program, name string) int {
	for i := range p.Arrays {
		if p.Arrays[i].Name == name {
			return i
		}
	}
	return -1
}

// ring returns the ring of source k, or of the destination for k = -1;
// nil for a static operand.
func (o *decOp) ring(k int) []int32 {
	switch {
	case o.rings == nil:
		return nil
	case k < 0:
		return o.rings.Dst
	}
	return o.rings.Src[k]
}

// checkOperand range-checks one operand of the word at pc: its static
// register and every entry of its ring.
func (p *Program) checkOperand(pc int, f machine.File, static int32, ring []int32) error {
	if f == machine.FileNone {
		return nil
	}
	err := p.checkReg(f, int(static))
	for i := 0; err == nil && i < len(ring); i++ {
		err = p.checkReg(f, int(ring[i]))
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
		key = key[:0]
		for _, o := range p.ops[w.lo:w.hi] {
			// A ring is keyed by its entries, not its address.
			var rings vliw.Rings
			if o.rings != nil {
				rings, o.rings = *o.rings, nil
			}
			key = fmt.Appendf(key, "%v%v;", o, rings)
		}
		seen[string(key)] = struct{}{}
	}
	return len(seen)
}
