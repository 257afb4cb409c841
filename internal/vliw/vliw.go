// Package vliw defines the wide-instruction object-code representation the
// code generator emits and the simulator executes: one optional operation
// per functional-unit issue slot plus a sequencer (control) field, exactly
// the machine-instruction model of a Warp-like cell (Lam §1: "all these
// components ... can be programmed to operate concurrently via wide
// instructions").
package vliw

import (
	"fmt"
	"slices"
	"strings"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// SlotOp is one operation within a wide instruction.  Registers are
// physical indices into the float or int register file according to the
// class.  Loads and stores address the flat data memory with
// mem[ireg[Src[0]] + Disp].
//
// The layout is fixed-size, one field per operand as in a Warp
// instruction's unit fields: the sources are inline, and the class
// (machine.ClassInfo.NSrc) says how many of them the op reads.  Sixty-four
// bytes a slot op, no slice field; what only rotating operands need sits
// behind Rings.  The wire form (Program.Wire) lists the sources the op
// reads.
type SlotOp struct {
	Class machine.Class
	Dst   int32
	Src   [3]int32
	Disp  int32   // displacement for loads/stores (array base + offset)
	FImm  float64 // float immediate; a float select carries 1
	IImm  int64   // integer immediate; the predicate of a compare
	// Array names the array touched, for diagnostics and bounds checks.
	Array string

	// Rings, nil unless some operand rotates, holds the rotating
	// operands' rings.
	Rings *Rings
}

// Rings marks the rotating operands of one op on a machine with a
// rotating register file (machine.RotatingRegs): instead of the static
// Dst/Src index, the operand's physical register is Ring[RRB mod
// len(Ring)], where RRB is the cell's rotating register base (incremented
// by a Rotate-marked DBNZ, cleared by CtlRotClear).  A nil ring means the
// operand is static.  The code generator pre-rotates each ring so that at
// RRB = 0 the operand resolves to the copy the prolog expects.
type Rings struct {
	Dst []int32
	Src [3][]int32
}

// EffReg resolves a possibly-rotating operand: ring[rrb mod len(ring)],
// or the static register when ring is nil.
func EffReg(static int32, ring []int32, rrb int64) int32 {
	if len(ring) == 0 {
		return static
	}
	return ring[int(rrb%int64(len(ring)))]
}

// Sources returns the source registers the op reads: as many of Src as
// its class takes.
func (o *SlotOp) Sources() []int32 { return o.Src[:o.Class.Info().NSrc()] }

// DstRing returns the destination's rotation ring, nil if it is static.
func (o *SlotOp) DstRing() []int32 {
	if o.Rings == nil {
		return nil
	}
	return o.Rings.Dst
}

// SrcRing returns source i's rotation ring, nil if it is static.
func (o *SlotOp) SrcRing(i int) []int32 {
	if o.Rings == nil {
		return nil
	}
	return o.Rings.Src[i]
}

// Rotating reports whether any operand of the op carries a ring.
func (o *SlotOp) Rotating() bool {
	if o.Rings == nil {
		return false
	}
	if len(o.Rings.Dst) > 0 {
		return true
	}
	for _, r := range o.Rings.Src {
		if len(r) > 0 {
			return true
		}
	}
	return false
}

// String renders the slot op.  Rotating operands print their ring as
// {a,b,c} in place of the static register index.
func (o *SlotOp) String() string {
	var b strings.Builder
	if hasDst(o.Class) {
		fmt.Fprintf(&b, "%s%s = ", regPrefix(o.Class), ringStr(o.Dst, o.DstRing()))
	}
	b.WriteString(o.Class.String())
	switch o.Class {
	case machine.ClassFConst:
		fmt.Fprintf(&b, " %g", o.FImm)
	case machine.ClassIConst:
		fmt.Fprintf(&b, " %d", o.IImm)
	case machine.ClassFCmp, machine.ClassICmp:
		fmt.Fprintf(&b, ".%v", ir.Pred(o.IImm))
	}
	for i, s := range o.Sources() {
		fmt.Fprintf(&b, " %s", ringStr(s, o.SrcRing(i)))
	}
	if o.Class == machine.ClassLoad || o.Class == machine.ClassStore {
		fmt.Fprintf(&b, " [%s%+d]", o.Array, o.Disp)
	}
	return b.String()
}

func ringStr(static int32, ring []int32) string {
	if len(ring) == 0 {
		return fmt.Sprintf("%d", static)
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range ring {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", r)
	}
	b.WriteByte('}')
	return b.String()
}

func hasDst(c machine.Class) bool {
	return c != machine.ClassStore && c != machine.ClassNop
}

func regPrefix(c machine.Class) string {
	if c.IsFloat() || c == machine.ClassLoad {
		return "f" // may still be an int load; prefix is cosmetic
	}
	return "i"
}

// CtlKind enumerates sequencer operations.
type CtlKind uint8

// Sequencer operations.
const (
	CtlNone CtlKind = iota
	// CtlHalt stops the machine.
	CtlHalt
	// CtlJump branches unconditionally to Target.
	CtlJump
	// CtlDBNZ decrements int register Reg and branches to Target if the
	// result is nonzero (the loop-back "CJump" of the paper's examples;
	// the count lives in a register dedicated by the code generator).
	CtlDBNZ
	// CtlJZ branches to Target if int register Reg is zero (used to
	// select the ELSE arm of conditionals and to guard zero-trip loops).
	CtlJZ
	// CtlJNZ branches to Target if int register Reg is nonzero.
	CtlJNZ
	// CtlRotClear resets the rotating register base to zero.  The code
	// generator emits it at the head of every pipelined region on
	// rotating machines, so re-entered regions (outer loops) start from
	// a known rotation.
	CtlRotClear
)

// Ctl is the sequencer field of an instruction.
type Ctl struct {
	Kind   CtlKind
	Reg    int32
	Target int32 // instruction index
	// Rotate marks a kernel loop-back DBNZ on a rotating machine: the
	// rotating register base increments after the instruction's ops
	// issue, whether or not the branch is taken, so kernel pass p runs
	// at RRB = p and the epilog at RRB = (number of passes).
	Rotate bool `json:",omitempty"`
	// RegRing, when non-nil, makes Reg a rotating operand resolved as
	// (*RegRing)[RRB mod len(*RegRing)] (used by JZ/JNZ forks reading an
	// expanded condition register; DBNZ counters never rotate).  It is a
	// pointer so that a word stays 48 bytes; it never points at an empty
	// ring.
	RegRing *[]int32 `json:",omitempty"`
}

// Ring returns the sequencer register's rotation ring, nil if it is
// static.
func (c *Ctl) Ring() []int32 {
	if c.RegRing == nil {
		return nil
	}
	return *c.RegRing
}

// Instr is one very long instruction word: at most 48 bytes, its slot
// ops in a block of their own.
type Instr struct {
	Ops []SlotOp
	Ctl Ctl
}

// String renders the instruction.
func (in *Instr) String() string {
	var parts []string
	for i := range in.Ops {
		parts = append(parts, in.Ops[i].String())
	}
	switch in.Ctl.Kind {
	case CtlHalt:
		parts = append(parts, "halt")
	case CtlJump:
		parts = append(parts, fmt.Sprintf("jump @%d", in.Ctl.Target))
	case CtlDBNZ:
		mn := "dbnz"
		if in.Ctl.Rotate {
			mn = "dbnz.rot"
		}
		parts = append(parts, fmt.Sprintf("%s i%d @%d", mn, in.Ctl.Reg, in.Ctl.Target))
	case CtlJZ:
		parts = append(parts, fmt.Sprintf("jz i%s @%d", ringStr(in.Ctl.Reg, in.Ctl.Ring()), in.Ctl.Target))
	case CtlJNZ:
		parts = append(parts, fmt.Sprintf("jnz i%s @%d", ringStr(in.Ctl.Reg, in.Ctl.Ring()), in.Ctl.Target))
	case CtlRotClear:
		parts = append(parts, "rotclear")
	}
	if len(parts) == 0 {
		return "nop"
	}
	return strings.Join(parts, " ; ")
}

// ArrayInfo records where an array lives in the flat data memory.
type ArrayInfo struct {
	Name string
	Kind ir.Kind
	Base int
	Size int
}

// Result names a register whose final value is an observable output.
type Result struct {
	Name string
	Kind ir.Kind
	Reg  int
}

// Program is a complete object program for one cell.
type Program struct {
	Name   string
	Instrs []Instr

	NumFRegs int
	NumIRegs int

	MemWords int
	Arrays   []ArrayInfo
	// InitF/InitI give initial array contents (parallel to Arrays).
	InitF map[string][]float64
	InitI map[string][]int64

	Results []Result
}

// Array returns the layout entry for name, or nil.
func (p *Program) Array(name string) *ArrayInfo {
	for i := range p.Arrays {
		if p.Arrays[i].Name == name {
			return &p.Arrays[i]
		}
	}
	return nil
}

// Validate checks structural sanity: register and target ranges and
// per-instruction resource usage against machine m.
func (p *Program) Validate(m *machine.Machine) error {
	type dst struct {
		float bool
		reg   int32
		lat   int
	}
	type ringWrite struct {
		float bool
		lat   int
		ring  []int32
	}
	// Per-word state, allocated once and cleared for every word.  A word
	// writes a handful of registers, so a list beats a map.
	use := make([]int, len(m.ResourceCount))
	var written []dst
	var ringWrites []ringWrite
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		clear(use)
		written = written[:0]
		ringWrites = ringWrites[:0]
		for i := range in.Ops {
			o := &in.Ops[i]
			d := m.Desc(o.Class)
			if d == nil {
				return fmt.Errorf("vliw: @%d: class %v unsupported", pc, o.Class)
			}
			if o.Rotating() {
				if !m.RotatingRegs {
					return fmt.Errorf("vliw: @%d: rotating operand on a machine without a rotating register file: %s", pc, in)
				}
				if slices.ContainsFunc(o.Rings.Src[:], hasNegative) || hasNegative(o.Rings.Dst) {
					return fmt.Errorf("vliw: @%d: negative register in rotation ring", pc)
				}
			}
			row := o.Class.Info()
			arrFloat := false
			if row.UsesArray() {
				a := p.Array(o.Array)
				if a == nil {
					return fmt.Errorf("vliw: @%d: unknown array %q", pc, o.Array)
				}
				arrFloat = a.Kind == ir.KindFloat
			}
			// Two same-latency ops in one instruction writing the same
			// register always collide in the write-back stage.  (Writes
			// with different latencies land on different cycles and are
			// legal — the allocator packs adjacent lifetimes that way.)
			// The class's row says whether and where an op writes; the
			// code generator marks float selects with FImm = 1.
			if f := row.Dst.Resolve(arrFloat, o.FImm != 0); f != machine.FileNone {
				k := dst{float: f == machine.FileFloat, reg: o.Dst, lat: d.Latency}
				if ring := o.DstRing(); len(ring) > 0 {
					ringWrites = append(ringWrites, ringWrite{float: k.float, lat: k.lat, ring: ring})
				} else {
					if slices.Contains(written, k) {
						return fmt.Errorf("vliw: @%d: write-back collision on one register in a single instruction: %s", pc, in)
					}
					written = append(written, k)
				}
			}
			// Only offset-0 reservations can be checked per instruction
			// word; multi-cycle patterns were checked at schedule time.
			for _, u := range d.Reservation {
				if u.Offset == 0 {
					use[u.Resource]++
				}
			}
			if hasNegative(o.Sources()) {
				return fmt.Errorf("vliw: @%d: negative register", pc)
			}
		}
		// Rotating writes collide if any reachable rotation maps two
		// same-cycle writes (same file and latency) to one register;
		// rings repeat with period len(ring), so checking rrb over the
		// pairwise lcm is exhaustive.
		for i, rw := range ringWrites {
			for _, k := range written {
				if k.float != rw.float || k.lat != rw.lat {
					continue
				}
				if slices.Contains(rw.ring, k.reg) {
					return fmt.Errorf("vliw: @%d: rotating write-back collides with static register %d: %s", pc, k.reg, in)
				}
			}
			for _, other := range ringWrites[i+1:] {
				if other.float != rw.float || other.lat != rw.lat {
					continue
				}
				n1, n2 := len(rw.ring), len(other.ring)
				for rrb := 0; rrb < n1*n2; rrb++ {
					if rw.ring[rrb%n1] == other.ring[rrb%n2] {
						return fmt.Errorf("vliw: @%d: rotating write-back collision at rrb %d: %s", pc, rrb, in)
					}
				}
			}
		}
		for r, n := range use {
			if n > m.ResourceCount[r] {
				return fmt.Errorf("vliw: @%d: resource %v oversubscribed (%d > %d): %s",
					pc, machine.Resource(r), n, m.ResourceCount[r], in)
			}
		}
		if in.Ctl.Rotate && in.Ctl.Kind != CtlDBNZ {
			return fmt.Errorf("vliw: @%d: Rotate is only meaningful on a DBNZ", pc)
		}
		ring := in.Ctl.Ring()
		if (in.Ctl.Rotate || len(ring) > 0) && !m.RotatingRegs {
			return fmt.Errorf("vliw: @%d: rotating sequencer field on a machine without a rotating register file", pc)
		}
		if len(ring) > 0 {
			if in.Ctl.Kind != CtlJZ && in.Ctl.Kind != CtlJNZ {
				return fmt.Errorf("vliw: @%d: register ring on a sequencer op that is not JZ/JNZ", pc)
			}
			if hasNegative(ring) {
				return fmt.Errorf("vliw: @%d: negative register in sequencer rotation ring", pc)
			}
		}
		if in.Ctl.Kind == CtlJump || in.Ctl.Kind == CtlDBNZ || in.Ctl.Kind == CtlJZ || in.Ctl.Kind == CtlJNZ {
			if in.Ctl.Target < 0 || int(in.Ctl.Target) >= len(p.Instrs) {
				return fmt.Errorf("vliw: @%d: branch target %d out of range", pc, in.Ctl.Target)
			}
		}
	}
	return nil
}

func hasNegative(regs []int32) bool {
	return slices.ContainsFunc(regs, func(r int32) bool { return r < 0 })
}

// String disassembles the program.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s: %d instrs, %d fregs, %d iregs, %d mem words\n",
		p.Name, len(p.Instrs), p.NumFRegs, p.NumIRegs, p.MemWords)
	for pc := range p.Instrs {
		fmt.Fprintf(&b, "%4d: %s\n", pc, p.Instrs[pc].String())
	}
	return b.String()
}
