// Package vliw defines the wide-instruction object-code representation the
// code generator emits and the simulator executes: one optional operation
// per functional-unit issue slot plus a sequencer (control) field, exactly
// the machine-instruction model of a Warp-like cell (Lam §1: "all these
// components ... can be programmed to operate concurrently via wide
// instructions").
package vliw

import (
	"fmt"
	"strings"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// SlotOp is one operation within a wide instruction.  Registers are
// physical indices into the float or int register file according to the
// class.  Loads and stores address the flat data memory with
// mem[ireg[Src[0]] + Disp].
type SlotOp struct {
	Class machine.Class
	Dst   int
	Src   []int
	FImm  float64
	IImm  int64 // predicate for compares
	Disp  int64 // displacement for loads/stores (array base + offset)
	// Array names the array touched, for diagnostics and bounds checks.
	Array string

	// DstRing and SrcRings mark rotating operands on machines with a
	// rotating register file (machine.RotatingRegs): instead of the
	// static Dst/Src index, the operand's physical register is
	// Ring[RRB mod len(Ring)], where RRB is the cell's rotating register
	// base (incremented by a Rotate-marked DBNZ, cleared by CtlRotClear).
	// A nil ring means the operand is static.  SrcRings, when non-nil,
	// is parallel to Src with nil entries for static sources.  The code
	// generator pre-rotates each ring so that at RRB = 0 the operand
	// resolves to the copy the prolog expects.
	DstRing  []int   `json:",omitempty"`
	SrcRings [][]int `json:",omitempty"`
}

// EffReg resolves a possibly-rotating operand: ring[rrb mod len(ring)],
// or the static register when ring is nil.
func EffReg(static int, ring []int, rrb int64) int {
	if len(ring) == 0 {
		return static
	}
	return ring[int(rrb%int64(len(ring)))]
}

// Rotating reports whether any operand of the op carries a ring.
func (o *SlotOp) Rotating() bool {
	if len(o.DstRing) > 0 {
		return true
	}
	for _, r := range o.SrcRings {
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
		fmt.Fprintf(&b, "%s%s = ", regPrefix(o.Class), ringStr(o.Dst, o.DstRing))
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
	for i, s := range o.Src {
		var ring []int
		if i < len(o.SrcRings) {
			ring = o.SrcRings[i]
		}
		fmt.Fprintf(&b, " %s", ringStr(s, ring))
	}
	if o.Class == machine.ClassLoad || o.Class == machine.ClassStore {
		fmt.Fprintf(&b, " [%s%+d]", o.Array, o.Disp)
	}
	return b.String()
}

func ringStr(static int, ring []int) string {
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
type CtlKind int

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
	Reg    int
	Target int // instruction index
	// Rotate marks a kernel loop-back DBNZ on a rotating machine: the
	// rotating register base increments after the instruction's ops
	// issue, whether or not the branch is taken, so kernel pass p runs
	// at RRB = p and the epilog at RRB = (number of passes).
	Rotate bool `json:",omitempty"`
	// RegRing, when non-nil, makes Reg a rotating operand resolved as
	// RegRing[RRB mod len(RegRing)] (used by JZ/JNZ forks reading an
	// expanded condition register; DBNZ counters never rotate).
	RegRing []int `json:",omitempty"`
}

// Instr is one very long instruction word.
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
		parts = append(parts, fmt.Sprintf("jz i%s @%d", ringStr(in.Ctl.Reg, in.Ctl.RegRing), in.Ctl.Target))
	case CtlJNZ:
		parts = append(parts, fmt.Sprintf("jnz i%s @%d", ringStr(in.Ctl.Reg, in.Ctl.RegRing), in.Ctl.Target))
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
		reg   int
		lat   int
	}
	type ringWrite struct {
		float bool
		lat   int
		ring  []int
	}
	// Per-word state, allocated once and cleared for every word.
	use := make([]int, len(m.ResourceCount))
	written := map[dst]bool{}
	var ringWrites []ringWrite
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		clear(use)
		clear(written)
		ringWrites = ringWrites[:0]
		for i := range in.Ops {
			o := &in.Ops[i]
			d := m.Desc(o.Class)
			if d == nil {
				return fmt.Errorf("vliw: @%d: class %v unsupported", pc, o.Class)
			}
			if o.Rotating() && !m.RotatingRegs {
				return fmt.Errorf("vliw: @%d: rotating operand on a machine without a rotating register file: %s", pc, in)
			}
			for _, r := range o.DstRing {
				if r < 0 {
					return fmt.Errorf("vliw: @%d: negative register in rotation ring", pc)
				}
			}
			if o.SrcRings != nil && len(o.SrcRings) != len(o.Src) {
				return fmt.Errorf("vliw: @%d: source ring list not parallel to sources: %s", pc, in)
			}
			for _, ring := range o.SrcRings {
				for _, r := range ring {
					if r < 0 {
						return fmt.Errorf("vliw: @%d: negative register in rotation ring", pc)
					}
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
				if len(o.DstRing) > 0 {
					ringWrites = append(ringWrites, ringWrite{float: k.float, lat: k.lat, ring: o.DstRing})
				} else {
					if written[k] {
						return fmt.Errorf("vliw: @%d: write-back collision on one register in a single instruction: %s", pc, in)
					}
					written[k] = true
				}
			}
			// Only offset-0 reservations can be checked per instruction
			// word; multi-cycle patterns were checked at schedule time.
			for _, u := range d.Reservation {
				if u.Offset == 0 {
					use[u.Resource]++
				}
			}
			for _, s := range o.Src {
				if s < 0 {
					return fmt.Errorf("vliw: @%d: negative register", pc)
				}
			}
		}
		// Rotating writes collide if any reachable rotation maps two
		// same-cycle writes (same file and latency) to one register;
		// rings repeat with period len(ring), so checking rrb over the
		// pairwise lcm is exhaustive.
		for i, rw := range ringWrites {
			for k := range written {
				if k.float != rw.float || k.lat != rw.lat {
					continue
				}
				for _, r := range rw.ring {
					if r == k.reg {
						return fmt.Errorf("vliw: @%d: rotating write-back collides with static register %d: %s", pc, k.reg, in)
					}
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
		if (in.Ctl.Rotate || len(in.Ctl.RegRing) > 0) && !m.RotatingRegs {
			return fmt.Errorf("vliw: @%d: rotating sequencer field on a machine without a rotating register file", pc)
		}
		if len(in.Ctl.RegRing) > 0 {
			if in.Ctl.Kind != CtlJZ && in.Ctl.Kind != CtlJNZ {
				return fmt.Errorf("vliw: @%d: register ring on a sequencer op that is not JZ/JNZ", pc)
			}
			for _, r := range in.Ctl.RegRing {
				if r < 0 {
					return fmt.Errorf("vliw: @%d: negative register in sequencer rotation ring", pc)
				}
			}
		}
		if in.Ctl.Kind == CtlJump || in.Ctl.Kind == CtlDBNZ || in.Ctl.Kind == CtlJZ || in.Ctl.Kind == CtlJNZ {
			if in.Ctl.Target < 0 || in.Ctl.Target >= len(p.Instrs) {
				return fmt.Errorf("vliw: @%d: branch target %d out of range", pc, in.Ctl.Target)
			}
		}
	}
	return nil
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
