// Package machine describes VLIW target machines as sets of named resources
// and operation classes with latencies and resource reservation tables.
//
// The description style follows Lam (PLDI 1988) §2.1: the basic unit of
// scheduling is a minimally indivisible sequence of micro-instructions whose
// resource usage is given by a reservation table — a list of (resource,
// cycle-offset) pairs relative to the issue cycle.  The scheduler only ever
// consults this package; nothing in the pipeliner is Warp-specific.
package machine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Resource identifies one schedulable resource (an issue slot of a
// functional unit, a memory port, the sequencer's branch field, ...).
type Resource int

// The resources of the default Warp-like cell.  Machines with different
// data paths define their own subsets/counts; these constants are indices
// into Machine.Resources.
const (
	ResFAdd   Resource = iota // floating-point adder issue slot
	ResFMul                   // floating-point multiplier issue slot
	ResALU                    // integer ALU issue slot
	ResMemRd                  // data-memory read port
	ResMemWr                  // data-memory write port
	ResBranch                 // sequencer branch field
	ResAGU                    // address-generation adder
	ResQRecv                  // inter-cell input-queue port
	ResQSend                  // inter-cell output-queue port
	numResources
)

var resourceNames = [...]string{"FAdd", "FMul", "ALU", "MemRd", "MemWr", "Branch", "AGU", "QRecv", "QSend"}

// String returns the mnemonic resource name.
func (r Resource) String() string {
	if 0 <= int(r) && int(r) < len(resourceNames) {
		return resourceNames[r]
	}
	return fmt.Sprintf("Res(%d)", int(r))
}

// ResUse is one entry of a reservation table: the operation holds Resource
// for one cycle, Offset cycles after issue.
type ResUse struct {
	Resource Resource
	Offset   int
}

// Usage counts resource demand per (resource, cycle offset): the working
// form of a reduced construct's reservation table (Lam §3) until
// Reservation flattens it.
type Usage map[ResUse]int

// Add records n more uses of resource r at cycle offset off.
func (u Usage) Add(r Resource, off, n int) { u[ResUse{Resource: r, Offset: off}] += n }

// Max raises u to the pointwise maximum of u and v: of two alternatives
// only one executes (the arms of a conditional), so the construct needs
// the larger demand at each point, not the sum.
func (u Usage) Max(v Usage) {
	for k, n := range v {
		u[k] = max(u[k], n)
	}
}

// Reservation flattens u into a reservation table ordered by (offset,
// resource), each count capped at the machine's capacity.
func (u Usage) Reservation(m *Machine) []ResUse {
	keys := make([]ResUse, 0, len(u))
	for k := range u {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b ResUse) int {
		return cmp.Or(cmp.Compare(a.Offset, b.Offset), cmp.Compare(a.Resource, b.Resource))
	})
	var out []ResUse
	for _, k := range keys {
		for i := min(u[k], m.ResourceCount[k.Resource]); i > 0; i-- {
			out = append(out, k)
		}
	}
	return out
}

// OpDesc describes one operation class on a particular machine.
type OpDesc struct {
	// Latency is the number of cycles after issue at which the result
	// register becomes readable.  A consumer issued at σ(u)+Latency (or
	// later) observes the value.
	Latency int
	// Reservation lists the resource/offset pairs the operation occupies.
	Reservation []ResUse
	// Flops is the number of floating-point operations this op counts as
	// (for MFLOPS accounting): 1 for FAdd/FMul, 0 otherwise.
	Flops int
}

// Class enumerates the operation classes the IR can produce.  Classes are
// machine-independent; each Machine maps them to an OpDesc.
type Class int

// Operation classes.  FAdd/FSub/FMul/FNeg/FMin/FMax/FCmp* run on the
// floating units; the I* classes and address arithmetic run on the ALU;
// Load/Store use the memory port; CJump/Jump use the sequencer.
const (
	ClassNop Class = iota
	ClassFAdd
	ClassFSub
	ClassFMul
	ClassFNeg
	ClassFMov   // float register move (adder pass-through)
	ClassFConst // load float immediate into register
	ClassFCmp   // float compare, boolean result in int register
	ClassIAdd
	ClassISub
	ClassIMul
	ClassIMov
	ClassIConst
	ClassICmp
	ClassISelect // conditional select (ALU)
	ClassLoad
	ClassStore
	ClassCJump // conditional branch (sequencer)
	ClassJump  // unconditional branch (sequencer)
	ClassHalt
	ClassAdrAdd     // pointer/address increment on the AGU
	ClassRecv       // dequeue one word from the cell's input channel
	ClassSend       // enqueue one word on the cell's output channel
	ClassIShr       // logical shift right by an immediate (codegen only)
	ClassIAnd       // bitwise and with an immediate mask (codegen only)
	ClassFRecipSeed // table-lookup seed for 1/x (multiplier path)
	ClassFRsqrtSeed // table-lookup seed for 1/sqrt(x) (multiplier path)
	ClassF2I        // truncate float to int (adder path)
	ClassI2F        // convert int to float (adder path)
	numClasses
)

var classNames = [...]string{
	"nop", "fadd", "fsub", "fmul", "fneg", "fmov", "fconst", "fcmp",
	"iadd", "isub", "imul", "imov", "iconst", "icmp", "iselect",
	"load", "store", "cjump", "jump", "halt", "adradd",
	"recv", "send",
	"ishr", "iand",
	"frecipseed", "frsqrtseed", "f2i", "i2f",
}

// String returns the mnemonic for the class.
func (c Class) String() string {
	if 0 <= int(c) && int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// NumClasses reports how many operation classes exist.
func NumClasses() int { return int(numClasses) }

// IsFloat reports whether the class produces a floating-point value.
func (c Class) IsFloat() bool {
	switch c {
	case ClassFAdd, ClassFSub, ClassFMul, ClassFNeg, ClassFMov, ClassFConst,
		ClassFRecipSeed, ClassFRsqrtSeed, ClassI2F, ClassRecv:
		return true
	}
	return false
}

// IsBranch reports whether the class occupies the sequencer.
func (c Class) IsBranch() bool {
	return c == ClassCJump || c == ClassJump || c == ClassHalt
}

// Machine is a complete target description.
type Machine struct {
	// Name identifies the configuration in reports.
	Name string
	// ResourceCount[r] is the number of units of resource r available in
	// each instruction (usually 1 per functional-unit issue slot).
	ResourceCount []int
	// Ops maps each Class to its descriptor; a nil entry means the class
	// is unsupported on this machine.
	Ops []*OpDesc
	// FloatRegs and IntRegs are the physical register file sizes.
	FloatRegs int
	IntRegs   int
	// ClockMHz converts cycle counts to MFLOPS: MFLOPS =
	// flops * ClockMHz / cycles.
	ClockMHz float64
	// Cells is the number of identical cells in the array; homogeneous
	// programs scale MFLOPS by this factor (Lam §4.1).
	Cells int
	// RotatingRegs marks a rotating register file (Cydra-5/Itanium
	// style): the hardware renames each rotating operand by a rotating
	// register base that advances once per kernel iteration, so modulo
	// variable expansion needs no kernel unrolling (unroll degree 1) and
	// no explicit register copies.  When false (all hand-written
	// machines), overlapping lifetimes are separated purely in software
	// by MVE, as in Lam §5.
	RotatingRegs bool
}

// Desc returns the descriptor for class c, or nil if unsupported.
func (m *Machine) Desc(c Class) *OpDesc {
	if int(c) >= len(m.Ops) {
		return nil
	}
	return m.Ops[int(c)]
}

// Latency returns the result latency of class c.  Unsupported classes have
// latency 1 so that diagnostics stay finite.
func (m *Machine) Latency(c Class) int {
	if d := m.Desc(c); d != nil {
		return d.Latency
	}
	return 1
}

// Validate checks internal consistency of the description.
func (m *Machine) Validate() error {
	if len(m.ResourceCount) == 0 {
		return fmt.Errorf("machine %s: no resources", m.Name)
	}
	for r, n := range m.ResourceCount {
		if n <= 0 {
			return fmt.Errorf("machine %s: resource %v has count %d (want >= 1)", m.Name, Resource(r), n)
		}
	}
	if m.FloatRegs < 1 || m.IntRegs < 1 {
		return fmt.Errorf("machine %s: register files %d float / %d int (want >= 1 each)", m.Name, m.FloatRegs, m.IntRegs)
	}
	if m.ClockMHz <= 0 {
		return fmt.Errorf("machine %s: clock %.3f MHz (want > 0)", m.Name, m.ClockMHz)
	}
	if m.Cells < 1 {
		return fmt.Errorf("machine %s: %d cells (want >= 1)", m.Name, m.Cells)
	}
	for c := Class(0); c < numClasses; c++ {
		d := m.Desc(c)
		if d == nil {
			continue
		}
		if d.Latency < 1 {
			return fmt.Errorf("machine %s: class %v has latency %d < 1", m.Name, c, d.Latency)
		}
		for _, u := range d.Reservation {
			if int(u.Resource) >= len(m.ResourceCount) {
				return fmt.Errorf("machine %s: class %v reserves unknown resource %v", m.Name, c, u.Resource)
			}
			if u.Offset < 0 {
				return fmt.Errorf("machine %s: class %v has negative reservation offset", m.Name, c)
			}
		}
	}
	return nil
}

// String renders a short summary of the machine.
func (m *Machine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", m.Name)
	for r, n := range m.ResourceCount {
		fmt.Fprintf(&b, " %v=%d", Resource(r), n)
	}
	fmt.Fprintf(&b, " fregs=%d iregs=%d clock=%.1fMHz", m.FloatRegs, m.IntRegs, m.ClockMHz)
	if m.RotatingRegs {
		b.WriteString(" rotating")
	}
	return b.String()
}

func use(r Resource) []ResUse { return []ResUse{{Resource: r, Offset: 0}} }

// Warp returns the default Warp-like cell description.
//
// The real Warp cell (Annaratone et al. 1987) has a 5-stage pipelined
// multiplier and adder; with the 2-cycle register-file delay both take 7
// cycles to complete (Lam §1).  The cell runs at 5 MHz, so two FPUs give
// the 10 MFLOPS peak the paper quotes.  The register files hold 31+31
// float words and 64 int words; we model the two float files as one
// 62-entry file (see DESIGN.md, Substitutions).
func Warp() *Machine {
	m := &Machine{
		Name:          "warp",
		ResourceCount: []int{1, 1, 1, 1, 1, 1, 2, 1, 1},
		Ops:           make([]*OpDesc, numClasses),
		FloatRegs:     62,
		IntRegs:       64,
		ClockMHz:      5,
		Cells:         10,
	}
	m.Ops[ClassNop] = &OpDesc{Latency: 1}
	m.Ops[ClassFAdd] = &OpDesc{Latency: 7, Reservation: use(ResFAdd), Flops: 1}
	m.Ops[ClassFSub] = &OpDesc{Latency: 7, Reservation: use(ResFAdd), Flops: 1}
	m.Ops[ClassFNeg] = &OpDesc{Latency: 7, Reservation: use(ResFAdd), Flops: 0}
	m.Ops[ClassFMov] = &OpDesc{Latency: 7, Reservation: use(ResFAdd), Flops: 0}
	m.Ops[ClassFConst] = &OpDesc{Latency: 7, Reservation: use(ResFAdd), Flops: 0}
	m.Ops[ClassFMul] = &OpDesc{Latency: 7, Reservation: use(ResFMul), Flops: 1}
	m.Ops[ClassFCmp] = &OpDesc{Latency: 7, Reservation: use(ResFAdd), Flops: 0}
	m.Ops[ClassIAdd] = &OpDesc{Latency: 1, Reservation: use(ResALU)}
	m.Ops[ClassISub] = &OpDesc{Latency: 1, Reservation: use(ResALU)}
	m.Ops[ClassIMul] = &OpDesc{Latency: 2, Reservation: use(ResALU)}
	m.Ops[ClassIMov] = &OpDesc{Latency: 1, Reservation: use(ResALU)}
	m.Ops[ClassIConst] = &OpDesc{Latency: 1, Reservation: use(ResALU)}
	m.Ops[ClassICmp] = &OpDesc{Latency: 1, Reservation: use(ResALU)}
	m.Ops[ClassISelect] = &OpDesc{Latency: 1, Reservation: use(ResALU)}
	m.Ops[ClassLoad] = &OpDesc{Latency: 3, Reservation: use(ResMemRd)}
	m.Ops[ClassStore] = &OpDesc{Latency: 1, Reservation: use(ResMemWr)}
	m.Ops[ClassCJump] = &OpDesc{Latency: 1, Reservation: use(ResBranch)}
	m.Ops[ClassJump] = &OpDesc{Latency: 1, Reservation: use(ResBranch)}
	m.Ops[ClassHalt] = &OpDesc{Latency: 1, Reservation: use(ResBranch)}
	m.Ops[ClassAdrAdd] = &OpDesc{Latency: 1, Reservation: use(ResAGU)}
	m.Ops[ClassRecv] = &OpDesc{Latency: 2, Reservation: use(ResQRecv)}
	m.Ops[ClassSend] = &OpDesc{Latency: 1, Reservation: use(ResQSend)}
	m.Ops[ClassIShr] = &OpDesc{Latency: 1, Reservation: use(ResALU)}
	m.Ops[ClassIAnd] = &OpDesc{Latency: 1, Reservation: use(ResALU)}
	m.Ops[ClassFRecipSeed] = &OpDesc{Latency: 7, Reservation: use(ResFMul), Flops: 1}
	m.Ops[ClassFRsqrtSeed] = &OpDesc{Latency: 7, Reservation: use(ResFMul), Flops: 1}
	m.Ops[ClassF2I] = &OpDesc{Latency: 7, Reservation: use(ResFAdd)}
	m.Ops[ClassI2F] = &OpDesc{Latency: 7, Reservation: use(ResFAdd)}
	return m
}

// Scalar returns a single-issue machine: every class additionally reserves
// a shared issue slot, so at most one operation issues per cycle.  Used as
// the fully sequential reference point.
func Scalar() *Machine {
	m := Warp()
	m.Name = "scalar"
	m.Cells = 1
	// One extra resource acts as the single issue slot.
	slot := Resource(len(m.ResourceCount))
	m.ResourceCount = append(m.ResourceCount, 1)
	for c := range m.Ops {
		if m.Ops[c] == nil {
			continue
		}
		d := *m.Ops[c]
		d.Reservation = append(append([]ResUse{}, d.Reservation...), ResUse{Resource: slot})
		m.Ops[c] = &d
	}
	return m
}

// Wide returns a scaled-up cell with `factor` copies of each arithmetic
// unit and memory port, used for the scalability discussion in Lam §6.
func Wide(factor int) *Machine {
	m := Warp()
	m.Name = fmt.Sprintf("wide%d", factor)
	m.Cells = 1
	for r := range m.ResourceCount {
		if Resource(r) != ResBranch && Resource(r) != ResQRecv && Resource(r) != ResQSend {
			m.ResourceCount[r] *= factor
		}
	}
	m.FloatRegs *= factor
	m.IntRegs *= factor
	return m
}
