// Package verify is an independent, from-scratch checker for emitted
// VLIW object code.  It takes the compiler's *input* (the IR program)
// and its *output* (the final vliw.Program) and proves, without
// consulting any scheduler bookkeeping, that the emitted code is a legal
// realization of the source semantics on the target machine:
//
//  1. no instruction row oversubscribes the machine's reservation
//     tables, including modulo wraparound inside every cyclic region
//     (the kernel rows of a pipelined loop re-issue every II cycles);
//  2. every dependence the sequential semantics implies — register and
//     memory flow/anti/output, at any iteration distance — is respected
//     across kernel wraparound, prolog and epilog, because the emitted
//     code must reproduce the reference's value *provenance*, not just
//     its values;
//  3. no register is overwritten while live (a clobbered live range
//     changes the provenance term some consumer observes, and same-cycle
//     write-back collisions are rejected outright), and prolog/epilog
//     register flows splice correctly into surrounding code;
//  4. the kernel unrolled by the MVE factor is dataflow-equivalent to
//     the same number of sequential source iterations.
//
// Properties 2–4 are established concolically: both the IR program and
// the object program execute on shadow machines that carry, next to
// every concrete value, a hash-consed symbolic term recording how the
// value was computed (operation class, immediate bits, operand terms,
// and leaves for initial memory, power-on register state and the input
// tape).  The final memory image, scalar results and output tape must
// match term-for-term.  Because terms encode provenance, a schedule bug
// whose wrong value happens to coincide with the right one — a stale
// register reread, a load slipped above the store it depends on — still
// changes the term and is caught; plain value-differential testing
// cannot see through such coincidences.
package verify

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// termID names one interned term.  Equal IDs mean structurally equal
// terms; the comparison step reduces to integer equality.
type termID int32

const noTerm termID = -1

type termKind uint8

const (
	// tkOp is a computation: the class in sub applied to the argument
	// terms with the immediate bits in imm.
	tkOp termKind = iota
	// tkZero is the power-on register value (both the interpreter and
	// the cell zero their register files; imm distinguishes the float
	// and int files).
	tkZero
	// tkMemInit is the pre-execution content of one memory word:
	// sub = array number (see interner.arrayNum), imm = element index.
	tkMemInit
	// tkInput is one word of the input tape: imm = tape position.
	tkInput
)

// termNode is the interned representation: three pointer-free words, so
// the node slice is never scanned by the collector and a node compares
// and hashes as 24 bytes.
type termNode struct {
	imm        uint64
	a0, a1, a2 termID
	kind       termKind
	nargs      uint8
	// sub is the machine.Class of a tkOp node and the array number of a
	// tkMemInit leaf; zero on the other kinds.
	sub uint16
}

// subLimit is how many distinct values termNode.sub holds.
const subLimit = 1 << 16

// fitsSub reports, as an error, a count of classes or arrays that
// termNode.sub cannot number: packing must never fold two of them into
// one term.
func fitsSub(count int, what string) error {
	if count > subLimit {
		return fmt.Errorf("verify: %d %s exceed the %d the term store can number", count, what, subLimit)
	}
	return nil
}

// hash mixes the node's three words.  It only picks where probing
// starts: two nodes are the same term when they are equal, whatever
// their hashes.
func (n *termNode) hash() uint64 {
	const k = 0x9E3779B97F4A7C15
	h := n.imm * k
	h = (h ^ h>>32 ^ (uint64(uint32(n.a0)) | uint64(uint32(n.a1))<<32)) * k
	h = (h ^ h>>32 ^ (uint64(uint32(n.a2)) | uint64(n.kind)<<32 | uint64(n.nargs)<<40 | uint64(n.sub)<<48)) * k
	return h
}

// interner hash-conses terms.  One interner is shared by the reference
// and shadow executions of a verification run, so equal provenance means
// equal termID on both sides.  It belongs to that run alone; between
// runs at most one store is kept for reuse (acquireInterner).
//
// Every slot below — table entries and leaf slots alike — holds a
// termID plus one, so zero means free and a fresh or cleared slice is
// empty without being filled.
type interner struct {
	nodes []termNode
	// table is the hash-cons index over the operation nodes only: open
	// addressing with linear probing over a power-of-two number of
	// slots, grown before ops would fill more than half of them.
	// Probing starts at the top bits of the node's hash (shift = 64 -
	// log2 len).
	table []termID
	shift uint
	ops   int
	// Leaves are unique by what names them, so they are numbered on
	// first use in slices indexed by that name and never hashed:
	// zeros[1] is the float file's power-on leaf, zeros[0] the int
	// file's; inits[n][i] is word i of array number n; inputs[p] is
	// input-tape word p.
	zeros  [2]termID
	inits  [][]termID
	inputs []termID
	// arrays[n] is the name of array number n, for render.
	arrays []string
	// lookups counts every term request, leaves included; len(nodes) of
	// them interned a new term.
	lookups int64
}

// newInterner returns a store with room for capHint terms before its
// first growth.
func newInterner(capHint int) (*interner, error) {
	if err := fitsSub(machine.NumClasses(), "operation classes"); err != nil {
		return nil, err
	}
	in := &interner{}
	in.reset(capHint)
	return in, nil
}

// maxKeptBytes bounds the store kept between runs: one that grew past
// it (a program far larger than the corpus's) is left to the collector.
const maxKeptBytes = 4 << 20

// spare is the one store kept between runs, nil while a run holds it.
var spare atomic.Pointer[interner]

// acquireInterner is newInterner reusing the kept store when no other
// run holds it, so a run allocates its term store only when it needs a
// larger one.  Pair it with release once the run has rendered its
// verdict.
func acquireInterner(capHint int) (*interner, error) {
	in := spare.Swap(nil)
	if in == nil {
		return newInterner(capHint)
	}
	in.reset(capHint)
	return in, nil
}

// release offers the store to the next run unless it outgrew
// maxKeptBytes.  The caller must not use it afterwards.
func (in *interner) release() {
	size := 24*cap(in.nodes) + 4*(cap(in.table)+cap(in.inputs))
	for _, s := range in.inits[:cap(in.inits)] {
		size += 4 * cap(s)
	}
	if size <= maxKeptBytes {
		spare.Store(in)
	}
}

// reset empties the store and gives it room for capHint terms, nodes
// and table sized once: a run whose hint holds grows neither.
func (in *interner) reset(capHint int) {
	capHint = max(capHint, 1)
	if cap(in.nodes) < capHint {
		in.nodes = make([]termNode, 0, capHint)
	}
	in.nodes = in.nodes[:0]
	n := 2
	for n < 2*capHint {
		n *= 2
	}
	if cap(in.table) >= n {
		in.table = in.table[:n]
		clear(in.table)
	} else {
		in.table = make([]termID, n)
	}
	in.shift = uint(64 - bits.TrailingZeros(uint(n)))
	in.ops = 0
	in.zeros = [2]termID{}
	in.inits = in.inits[:0]
	in.inputs = in.inputs[:0]
	in.arrays = in.arrays[:0]
	in.lookups = 0
}

// grow doubles the table and re-enters every operation node it held.
func (in *interner) grow() {
	old := in.table
	in.table = make([]termID, 2*len(old))
	in.shift--
	for _, e := range old {
		if e != 0 {
			in.table[in.probe(&in.nodes[e-1])] = e
		}
	}
}

// probe returns the slot that holds n's ID, or the free slot n belongs
// in.  Whether a slot holds n is decided by comparing whole nodes.
func (in *interner) probe(n *termNode) int {
	mask := len(in.table) - 1
	i := int(n.hash() >> in.shift)
	for e := in.table[i]; e != 0 && in.nodes[e-1] != *n; e = in.table[i] {
		i = (i + 1) & mask
	}
	return i
}

// mk interns an operation node through the table.
func (in *interner) mk(n termNode) termID {
	in.lookups++
	i := in.probe(&n)
	if e := in.table[i]; e != 0 {
		return e - 1
	}
	if 2*(in.ops+1) > len(in.table) {
		in.grow()
		i = in.probe(&n)
	}
	id := in.add(n)
	in.table[i] = id + 1
	in.ops++
	return id
}

// add appends a node and returns its ID.
func (in *interner) add(n termNode) termID {
	in.nodes = append(in.nodes, n)
	return termID(len(in.nodes) - 1)
}

// leaf returns the leaf in *slot, numbering n first if the slot is free.
func (in *interner) leaf(slot *termID, n termNode) termID {
	in.lookups++
	if *slot == 0 {
		*slot = in.add(n) + 1
	}
	return *slot - 1
}

// slots returns s with at least n entries, any it adds free.
func slots(s []termID, n int) []termID {
	if k := len(s); n > k {
		s = slices.Grow(s, n-k)[:n]
		clear(s[k:])
	}
	return s
}

// op0, op1 and op2 intern a computation node of that many arguments.
func (in *interner) op0(class machine.Class, imm uint64) termID {
	return in.mk(termNode{kind: tkOp, sub: uint16(class), imm: imm, a0: noTerm, a1: noTerm, a2: noTerm})
}

func (in *interner) op1(class machine.Class, imm uint64, a termID) termID {
	return in.mk(termNode{kind: tkOp, sub: uint16(class), imm: imm, a0: a, a1: noTerm, a2: noTerm, nargs: 1})
}

func (in *interner) op2(class machine.Class, imm uint64, a, b termID) termID {
	return in.mk(termNode{kind: tkOp, sub: uint16(class), imm: imm, a0: a, a1: b, a2: noTerm, nargs: 2})
}

// zero returns the power-on register leaf for one register file.
func (in *interner) zero(float bool) termID {
	imm := uint64(0)
	if float {
		imm = 1
	}
	return in.leaf(&in.zeros[imm], termNode{kind: tkZero, imm: imm, a0: noTerm, a1: noTerm, a2: noTerm})
}

// arrayNum returns the number memInit leaves name the array by: arrays
// of one name, in whichever program of the run, share a number.
func (in *interner) arrayNum(name string) (uint16, error) {
	for i, a := range in.arrays {
		if a == name {
			return uint16(i), nil
		}
	}
	if err := fitsSub(len(in.arrays)+1, "arrays"); err != nil {
		return 0, err
	}
	in.arrays = append(in.arrays, name)
	return uint16(len(in.arrays) - 1), nil
}

// initSlots returns the leaf slots of the array numbered array, with at
// least n entries.
func (in *interner) initSlots(array uint16, n int) []termID {
	if k := len(in.inits); int(array) >= k {
		// Slices kept from an earlier run lend their memory, not their
		// slots.
		in.inits = slices.Grow(in.inits, int(array)+1-k)[:array+1]
		for i := k; i < len(in.inits); i++ {
			in.inits[i] = in.inits[i][:0]
		}
	}
	in.inits[array] = slots(in.inits[array], n)
	return in.inits[array]
}

// memInit returns the leaf for the initial content of word idx of the
// array numbered array.
func (in *interner) memInit(array uint16, idx int64) termID {
	s := in.initSlots(array, int(idx)+1)
	return in.leaf(&s[idx], termNode{kind: tkMemInit, sub: array, imm: uint64(idx), a0: noTerm, a1: noTerm, a2: noTerm})
}

// input returns the leaf for input-tape word pos.
func (in *interner) input(pos int) termID {
	in.inputs = slots(in.inputs, pos+1)
	return in.leaf(&in.inputs[pos], termNode{kind: tkInput, imm: uint64(pos), a0: noTerm, a1: noTerm, a2: noTerm})
}

// render pretty-prints a term to bounded depth for diagnostics.
func (in *interner) render(id termID, depth int) string {
	if id == noTerm {
		return "<none>"
	}
	n := &in.nodes[id]
	switch n.kind {
	case tkZero:
		if n.imm != 0 {
			return "zeroF"
		}
		return "zeroI"
	case tkMemInit:
		return fmt.Sprintf("init(%s[%d])", in.arrays[n.sub], int64(n.imm))
	case tkInput:
		return fmt.Sprintf("input[%d]", int64(n.imm))
	}
	class := machine.Class(n.sub)
	var b strings.Builder
	b.WriteString(class.String())
	switch class {
	case machine.ClassFConst:
		fmt.Fprintf(&b, " %g", math.Float64frombits(n.imm))
	case machine.ClassIConst, machine.ClassFCmp, machine.ClassICmp, machine.ClassIShr, machine.ClassIAnd:
		fmt.Fprintf(&b, " %d", int64(n.imm))
	}
	if n.nargs > 0 {
		b.WriteByte('(')
		for i, a := range []termID{n.a0, n.a1, n.a2}[:n.nargs] {
			if i > 0 {
				b.WriteString(", ")
			}
			if depth <= 0 {
				fmt.Fprintf(&b, "t%d", a)
			} else {
				b.WriteString(in.render(a, depth-1))
			}
		}
		b.WriteByte(')')
	}
	return b.String()
}

// termCapHint estimates, from what is known before execution, how many
// terms verifying obj interns: a leaf per memory word, and per word a
// few operations of the loop bodies that overwrite it.  The store sizes
// its nodes to the hint and its table to twice the hint; leaves never
// enter the table, so the table grows only if operations alone outrun
// the hint.
func termCapHint(obj *vliw.Program) int {
	return 4*obj.MemWords + len(obj.Instrs)
}
