// Package depgraph builds the dependence graph that drives software
// pipelining: nodes are schedulable units (single operations, or control
// constructs reduced to pseudo-operations by hierarchical reduction) and
// edges carry the (delay, omega) attributes of Lam (PLDI 1988) §2.1 —
// node v must execute Delay cycles after node u of the Omega-th previous
// iteration:
//
//	σ(v) − σ(u) ≥ Delay − s·Omega
//
// The package also provides Tarjan's strongly connected components, the
// lower bounds on s, and the all-points longest paths of each component
// at a concrete s, which the iterative scheduling step asks for once per
// candidate interval (§2.2.2).
package depgraph

import (
	"fmt"
	"slices"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// RegRead records that a node reads Reg somewhere in cycle offsets
// [First, Last] relative to the node's issue cycle.
type RegRead struct {
	Reg         ir.VReg
	First, Last int
}

// RegWrite records that a node writes Reg; the value becomes readable
// between offsets AvailFirst and AvailLast (equal for simple ops).
// Killing reports whether the write happens on every execution of the
// node (false for writes inside only one branch of a reduced
// conditional).
type RegWrite struct {
	Reg                   ir.VReg
	AvailFirst, AvailLast int
	Killing               bool
}

// MemAcc records a memory access: the array touched, the affine address
// annotation when known (nil ⇒ worst-case), whether it stores, and the
// offset range within the node at which the access occurs.
type MemAcc struct {
	Array       string
	Aff         *ir.Affine
	Store       bool
	First, Last int
}

// Node is one schedulable unit.
type Node struct {
	Index int // position in the graph's node slice

	// Op is the underlying operation for simple nodes; nil for reduced
	// constructs, whose emission payload lives in Payload.
	Op *ir.Op
	// Payload carries construct-specific data for reduced nodes (owned
	// by internal/hier); the scheduler never inspects it.
	Payload any

	// Len is the node's occupancy length in cycles (1 for simple ops).
	Len int
	// Reservation is the resource usage pattern relative to issue.
	Reservation []machine.ResUse

	Reads  []RegRead
	Writes []RegWrite
	Mems   []MemAcc
}

// String identifies the node for diagnostics.
func (n *Node) String() string {
	if n.Op != nil {
		return fmt.Sprintf("n%d{%s}", n.Index, n.Op)
	}
	return fmt.Sprintf("n%d{reduced len=%d}", n.Index, n.Len)
}

// NodeFromOp builds the scheduling node of a single operation on machine
// m.  It fails when the machine has no descriptor for the op's class
// (a narrow machine variant), rather than panicking mid-compile.
func NodeFromOp(m *machine.Machine, op *ir.Op) (*Node, error) {
	d := m.Desc(op.Class)
	if d == nil {
		return nil, fmt.Errorf("depgraph: class %v (%s) unsupported on machine %s", op.Class, op, m.Name)
	}
	n := &Node{
		Op:          op,
		Len:         1,
		Reservation: d.Reservation,
	}
	// An op has at most three sources: a repeat is found by looking back.
	for i, s := range op.Src {
		if s != ir.NoReg && !slices.Contains(op.Src[:i], s) {
			n.Reads = append(n.Reads, RegRead{Reg: s})
		}
	}
	if op.Dst != ir.NoReg {
		n.Writes = append(n.Writes, RegWrite{
			Reg:        op.Dst,
			AvailFirst: d.Latency,
			AvailLast:  d.Latency,
			Killing:    true,
		})
	}
	if op.Mem != nil {
		n.Mems = append(n.Mems, MemAcc{
			Array: op.Mem.Array,
			Aff:   op.Mem.Affine,
			Store: op.Class == machine.ClassStore,
		})
	}
	if q := QueueArray(op.Class); q != "" {
		n.Mems = append(n.Mems, MemAcc{Array: q, Store: true})
	}
	return n, nil
}

// QueueArray names the pseudo-array a queue operation of class c touches,
// "" for every other class.  Queue operations are FIFO side effects: each
// channel is an opaque array written by every access, so the dependence
// builder chains them in program order within and across iterations.
func QueueArray(c machine.Class) string {
	switch c {
	case machine.ClassRecv:
		return "\x00qin"
	case machine.ClassSend:
		return "\x00qout"
	}
	return ""
}

// MustNodeFromOp is NodeFromOp for callers that know the class is
// supported (tests and synthetic graphs); it panics on error.
func MustNodeFromOp(m *machine.Machine, op *ir.Op) *Node {
	n, err := NodeFromOp(m, op)
	if err != nil {
		panic(err)
	}
	return n
}
