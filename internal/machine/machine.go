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
// machine-independent; each Machine maps them to an OpDesc.  A byte holds
// one, so a slot op's class field is one byte wide.
type Class uint8

// Operation classes.  The numbering is part of Machine.Fingerprint: append,
// never insert.  What each class is lives in its row of the classes table.
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

// File names the register file an operand lives in.  Two files are left
// to the individual op: a load's result and a store's value live where the
// array's elements do, and a select's result and arms live wherever the
// value it moves does.
type File uint8

// Operand files.
const (
	FileNone   File = iota // the class has no such operand
	FileFloat              // the float register file
	FileInt                // the int register file
	FileArray              // the file of the op's array kind
	FileSelect             // the file of the select's kind
)

// Resolve returns the concrete file — FileFloat, FileInt or FileNone — f
// stands for in an op whose array holds floats iff arrFloat and whose
// select moves a float iff selFloat.
func (f File) Resolve(arrFloat, selFloat bool) File {
	switch {
	case f == FileArray && arrFloat, f == FileSelect && selFloat:
		return FileFloat
	case f == FileArray, f == FileSelect:
		return FileInt
	}
	return f
}

// ClassInfo is the one declaration of an operation class: everything about
// it that is not its arithmetic.  Mnemonics, machine descriptors, IR
// validation, the IR builder, simulator decode and object-code validation
// are all derived from these rows (DESIGN.md, "Operation classes: one
// declaration"); adding a class is one row plus its evaluation.
type ClassInfo struct {
	Name string
	// Unit is the issue resource the class reserves on the Warp-like
	// datapath (noUnit for Nop), Latency and Flops its Warp descriptor
	// values; generated machines rescale latencies per unit.
	Unit    Resource
	Latency int
	Flops   int
	// Dst and Src give the file of the destination and of each source;
	// the sources end at the first FileNone.
	Dst File
	Src [3]File
	// IR reports whether IR bodies may contain the class; the rest exist
	// only in object code (the sequencer's view of control flow, and the
	// immediate-operand forms the code generator introduces).
	IR bool
}

// noUnit marks a class that reserves no issue resource.
const noUnit Resource = -1

var classes = func() [numClasses]ClassInfo {
	const f, i, arr, sel = FileFloat, FileInt, FileArray, FileSelect
	return [numClasses]ClassInfo{
		ClassNop:        {Name: "nop", Unit: noUnit, Latency: 1},
		ClassFAdd:       {"fadd", ResFAdd, 7, 1, f, [3]File{f, f}, true},
		ClassFSub:       {"fsub", ResFAdd, 7, 1, f, [3]File{f, f}, true},
		ClassFMul:       {"fmul", ResFMul, 7, 1, f, [3]File{f, f}, true},
		ClassFNeg:       {"fneg", ResFAdd, 7, 0, f, [3]File{f}, true},
		ClassFMov:       {"fmov", ResFAdd, 7, 0, f, [3]File{f}, true},
		ClassFConst:     {"fconst", ResFAdd, 7, 0, f, [3]File{}, true},
		ClassFCmp:       {"fcmp", ResFAdd, 7, 0, i, [3]File{f, f}, true},
		ClassIAdd:       {"iadd", ResALU, 1, 0, i, [3]File{i, i}, true},
		ClassISub:       {"isub", ResALU, 1, 0, i, [3]File{i, i}, true},
		ClassIMul:       {"imul", ResALU, 2, 0, i, [3]File{i, i}, true},
		ClassIMov:       {"imov", ResALU, 1, 0, i, [3]File{i}, true},
		ClassIConst:     {"iconst", ResALU, 1, 0, i, [3]File{}, true},
		ClassICmp:       {"icmp", ResALU, 1, 0, i, [3]File{i, i}, true},
		ClassISelect:    {"iselect", ResALU, 1, 0, sel, [3]File{i, sel, sel}, true},
		ClassLoad:       {"load", ResMemRd, 3, 0, arr, [3]File{i}, true},
		ClassStore:      {"store", ResMemWr, 1, 0, FileNone, [3]File{i, arr}, true},
		ClassCJump:      {Name: "cjump", Unit: ResBranch, Latency: 1},
		ClassJump:       {Name: "jump", Unit: ResBranch, Latency: 1},
		ClassHalt:       {Name: "halt", Unit: ResBranch, Latency: 1},
		ClassAdrAdd:     {"adradd", ResAGU, 1, 0, i, [3]File{i, i}, true},
		ClassRecv:       {"recv", ResQRecv, 2, 0, f, [3]File{}, true},
		ClassSend:       {"send", ResQSend, 1, 0, FileNone, [3]File{f}, true},
		ClassIShr:       {"ishr", ResALU, 1, 0, i, [3]File{i}, false},
		ClassIAnd:       {"iand", ResALU, 1, 0, i, [3]File{i}, false},
		ClassFRecipSeed: {"frecipseed", ResFMul, 7, 1, f, [3]File{f}, true},
		ClassFRsqrtSeed: {"frsqrtseed", ResFMul, 7, 1, f, [3]File{f}, true},
		ClassF2I:        {"f2i", ResFAdd, 7, 0, i, [3]File{f}, true},
		ClassI2F:        {"i2f", ResFAdd, 7, 0, f, [3]File{i}, true},
	}
}()

// Info returns the class's row; an unknown class has the zero row (no
// name, no operands, not valid in IR).
func (c Class) Info() ClassInfo {
	if c >= numClasses {
		return ClassInfo{}
	}
	return classes[c]
}

// NSrc reports how many source operands the class takes.
func (ci ClassInfo) NSrc() int {
	n := 0
	for n < len(ci.Src) && ci.Src[n] != FileNone {
		n++
	}
	return n
}

// UsesArray reports whether an op of the class names an array: some
// operand lives in the file of the array's kind.
func (ci ClassInfo) UsesArray() bool {
	return ci.Dst == FileArray || slices.Contains(ci.Src[:], FileArray)
}

// Pure reports whether an op of the class is pure and total: it computes
// a register from registers, touches neither memory nor a queue, and
// cannot fault, so executing it when its result is not wanted changes
// nothing but that register.  Never load, store, recv or send.
func (ci ClassInfo) Pure() bool {
	return ci.IR && ci.Dst != FileNone && !ci.UsesArray() && ci.Unit != ResQRecv
}

// String returns the mnemonic for the class.
func (c Class) String() string {
	if name := c.Info().Name; name != "" {
		return name
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// NumClasses reports how many operation classes exist.
func NumClasses() int { return int(numClasses) }

// IsFloat reports whether the class produces a floating-point value.
func (c Class) IsFloat() bool { return c.Info().Dst == FileFloat }

// IsBranch reports whether the class occupies the sequencer.
func (c Class) IsBranch() bool { return c.Info().Unit == ResBranch }

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

// MaxLatency returns the longest result latency of any supported class
// (at least 1): how long after its last issue a region still has
// write-backs in flight.
func (m *Machine) MaxLatency() int {
	maxLat := 1
	for _, d := range m.Ops {
		if d != nil {
			maxLat = max(maxLat, d.Latency)
		}
	}
	return maxLat
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
	for c := range classes {
		ci := &classes[c]
		m.Ops[c] = &OpDesc{Latency: ci.Latency, Flops: ci.Flops}
		if ci.Unit != noUnit {
			m.Ops[c].Reservation = []ResUse{{Resource: ci.Unit}}
		}
	}
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
	for _, d := range m.Ops { // Warp() builds fresh descriptors
		d.Reservation = append(d.Reservation, ResUse{Resource: slot})
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
