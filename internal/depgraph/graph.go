package depgraph

import (
	"fmt"
	"sort"
	"strings"

	"softpipe/internal/ir"
)

// DepKind classifies a dependence edge.
type DepKind int

// Dependence kinds.
const (
	DepFlow DepKind = iota
	DepAnti
	DepOutput
	DepMemFlow
	DepMemAnti
	DepMemOutput
)

var depNames = [...]string{"flow", "anti", "output", "mflow", "manti", "moutput"}

// String returns the dependence-kind mnemonic.
func (k DepKind) String() string {
	if int(k) < len(depNames) {
		return depNames[k]
	}
	return fmt.Sprintf("dep(%d)", int(k))
}

// Edge is one dependence: σ(To) − σ(From) ≥ Delay − s·Omega.
type Edge struct {
	From, To int
	Delay    int
	Omega    int
	Kind     DepKind
	// Reg is the register carrying a register dependence (NoReg for
	// memory dependences).
	Reg ir.VReg
	// Removable marks inter-iteration register anti/output dependences
	// that modulo variable expansion may delete (Lam §2.3).
	Removable bool
}

// Graph is the dependence graph of one loop body.
type Graph struct {
	Nodes []*Node
	Edges []Edge

	// Expandable[r] reports that register r qualifies for modulo
	// variable expansion: it is written by a killing write on every
	// iteration before any use, so iterations may use distinct copies.
	Expandable map[ir.VReg]bool
}

// String renders the graph for diagnostics.
func (g *Graph) String() string {
	var b strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "%s\n", n)
	}
	for _, e := range g.Edges {
		rm := ""
		if e.Removable {
			rm = " [mve]"
		}
		fmt.Fprintf(&b, "  n%d -> n%d  d=%d w=%d %v%s\n", e.From, e.To, e.Delay, e.Omega, e.Kind, rm)
	}
	return b.String()
}

// Build constructs the dependence graph for the given nodes, which must be
// the loop body of the loop identified by loopID, in program order.
// Register and memory dependences are derived with both intra-iteration
// (omega=0) and loop-carried (omega≥1) distances; memory distances use
// the affine annotations when both references supply them.
func Build(nodes []*Node, loopID int) *Graph {
	return BuildIndep(nodes, loopID, false)
}

// BuildIndep is Build with the loop's `independent` assertion: when set,
// loop-carried memory dependences are dropped (the paper's compiler
// directives that disambiguate array references, Table 4-2).
func BuildIndep(nodes []*Node, loopID int, independent bool) *Graph {
	// Bodies average three to four dependences per node; starting there
	// saves most of the regrowth of Edges.
	g := &Graph{Nodes: nodes, Edges: make([]Edge, 0, 4*len(nodes)), Expandable: map[ir.VReg]bool{}}
	for i, n := range nodes {
		n.Index = i
	}
	g.buildRegDeps()
	g.buildMemDeps(loopID, independent)
	return g
}

// regAccess is one ordered access to a register during the body.
type regAccess struct {
	node  int
	read  *RegRead
	write *RegWrite
}

func (g *Graph) buildRegDeps() {
	// Gather ordered accesses per register: one entry per (register,
	// node), holding the node's read and/or write of it.  Nodes are
	// visited in order, so a node's entry for r, if any, is the last one.
	accesses := map[ir.VReg][]regAccess{}
	access := func(r ir.VReg, node int) *regAccess {
		seq := accesses[r]
		if n := len(seq); n == 0 || seq[n-1].node != node {
			seq = append(seq, regAccess{node: node})
			accesses[r] = seq
		}
		return &seq[len(seq)-1]
	}
	for i, n := range g.Nodes {
		for j := range n.Reads {
			access(n.Reads[j].Reg, i).read = &n.Reads[j]
		}
		for j := range n.Writes {
			access(n.Writes[j].Reg, i).write = &n.Writes[j]
		}
	}
	regs := make([]ir.VReg, 0, len(accesses))
	for r := range accesses {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })

	for _, r := range regs {
		g.regDepsFor(r, accesses[r])
	}
}

// regDepsFor emits all dependences carried by register r.
//
// Semantics recap (see internal/sim): a node issued at σ reads its
// operands at σ+readOffset and its results become readable at
// σ+avail.  A write must land strictly after every read of the previous
// value and strictly after earlier writes.
func (g *Graph) regDepsFor(r ir.VReg, seq []regAccess) {
	hasWrite := false
	allKilling := true
	for _, a := range seq {
		if a.write != nil {
			hasWrite = true
			if !a.write.Killing {
				allKilling = false
			}
		}
	}

	// liveWrites tracks writes whose value may still reach the current
	// scan point (cleared by killing writes).
	var liveWrites []regAccess
	upwardExposed := false

	// Only the canonical minimal edge set is emitted; all-pairs variants
	// are transitively implied by chains through it (each dropped edge's
	// constraint equals a sum of retained edges with equal-or-larger
	// total delay and equal total omega).  Small graphs keep the
	// longest-path sweeps of §2.2.2 cheap.
	var prevWrite *regAccess // most recent write, for the output chain
	for i := range seq {
		a := &seq[i]
		// Reads first: a node that both reads and writes r reads the
		// incoming value.
		if a.read != nil {
			if len(liveWrites) == 0 || anyLivePartialPath(liveWrites) {
				// Value may flow in from the previous iteration.
				upwardExposed = true
			}
			for _, w := range liveWrites {
				if w.node == a.node {
					continue // same node: its own write lands later
				}
				g.Edges = append(g.Edges, Edge{
					From: w.node, To: a.node, Kind: DepFlow, Reg: r,
					Delay: w.write.AvailLast - a.read.First,
				})
			}
			// Anti dependence to the next write this iteration; the
			// output chain implies the constraint for later writes.
			for j := i; j < len(seq); j++ {
				b := &seq[j]
				if b.write == nil || b.node == a.node {
					continue
				}
				g.Edges = append(g.Edges, Edge{
					From: a.node, To: b.node, Kind: DepAnti, Reg: r,
					Delay: a.read.Last + 1 - b.write.AvailFirst,
				})
				break
			}
		}
		if a.write != nil {
			// Output dependence along consecutive writes only.
			if prevWrite != nil && prevWrite.node != a.node {
				g.Edges = append(g.Edges, Edge{
					From: prevWrite.node, To: a.node, Kind: DepOutput, Reg: r,
					Delay: prevWrite.write.AvailLast + 1 - a.write.AvailFirst,
				})
			}
			prevWrite = a
			if a.write.Killing {
				liveWrites = liveWrites[:0]
			}
			liveWrites = append(liveWrites, *a)
		}
	}

	expandable := hasWrite && allKilling && !upwardExposed
	g.Expandable[r] = g.Expandable[r] || expandable
	removable := expandable

	var firstWrite, lastWrite *regAccess
	for i := range seq {
		if seq[i].write != nil {
			if firstWrite == nil {
				firstWrite = &seq[i]
			}
			lastWrite = &seq[i]
		}
	}

	// Inter-iteration (omega = 1) dependences.
	for i := range seq {
		a := &seq[i]
		if a.read == nil {
			continue
		}
		// Flow from writes reaching the end of the body to upward-
		// exposed reads of the next iteration.
		if isUpwardExposed(seq, a.node) {
			for _, w := range liveWrites {
				g.Edges = append(g.Edges, Edge{
					From: w.node, To: a.node, Kind: DepFlow, Reg: r, Omega: 1,
					Delay: w.write.AvailLast - a.read.First,
				})
			}
		}
		// Anti: the read must finish before the next iteration's first
		// write lands; its intra output chain implies the rest.
		if firstWrite != nil {
			g.Edges = append(g.Edges, Edge{
				From: a.node, To: firstWrite.node, Kind: DepAnti, Reg: r, Omega: 1,
				Delay:     a.read.Last + 1 - firstWrite.write.AvailFirst,
				Removable: removable,
			})
		}
	}
	// Output across iterations: the last write of iteration k lands
	// before the first write of iteration k+1 (chains cover the rest).
	if firstWrite != nil {
		g.Edges = append(g.Edges, Edge{
			From: lastWrite.node, To: firstWrite.node, Kind: DepOutput, Reg: r, Omega: 1,
			Delay:     lastWrite.write.AvailLast + 1 - firstWrite.write.AvailFirst,
			Removable: removable,
		})
	}
}

// anyLivePartialPath reports whether the live writes leave a path on which
// the register keeps its previous-iteration value (i.e. no killing write
// has happened yet — liveWrites then contains only partial writes).
func anyLivePartialPath(liveWrites []regAccess) bool {
	for _, w := range liveWrites {
		if w.write.Killing {
			return false
		}
	}
	return true
}

// isUpwardExposed reports whether node i's read of the register can see a
// value from the previous iteration (no killing write strictly before it).
func isUpwardExposed(seq []regAccess, node int) bool {
	for _, a := range seq {
		if a.node >= node {
			break
		}
		if a.write != nil && a.write.Killing {
			return false
		}
	}
	return true
}

func (g *Graph) buildMemDeps(loopID int, independent bool) {
	type memAcc struct {
		node int
		acc  *MemAcc
	}
	byArray := map[string][]memAcc{}
	for i, n := range g.Nodes {
		for j := range n.Mems {
			m := &n.Mems[j]
			byArray[m.Array] = append(byArray[m.Array], memAcc{node: i, acc: m})
		}
	}
	names := make([]string, 0, len(byArray))
	for k := range byArray {
		names = append(names, k)
	}
	sort.Strings(names)

	for _, name := range names {
		seq := byArray[name]
		for i, a := range seq {
			for j, b := range seq {
				if !a.acc.Store && !b.acc.Store {
					continue // load-load: no dependence
				}
				if a.node == b.node && i == j {
					continue
				}
				// Direction a -> b with minimum distance omega.
				omega, dep := memDistance(a.acc, b.acc, loopID, a.node < b.node || (a.node == b.node && i < j))
				if !dep {
					continue
				}
				if a.node == b.node && omega == 0 {
					continue
				}
				if independent && omega > 0 {
					continue
				}
				kind, delay := memEdge(a.acc, b.acc)
				g.Edges = append(g.Edges, Edge{
					From: a.node, To: b.node, Kind: kind, Reg: ir.NoReg,
					Omega: omega, Delay: delay,
				})
			}
		}
	}
}

// memDistance computes the minimum iteration distance at which access b
// (in a later or equal iteration) can touch the same address as access a,
// for the loop being scheduled.  aBeforeB tells whether a precedes b in
// program order (distance 0 is only meaningful then).  It returns
// dep=false when the references provably never overlap in this direction.
func memDistance(a, b *MemAcc, loopID int, aBeforeB bool) (omega int, dep bool) {
	minOmega := 0
	if !aBeforeB {
		minOmega = 1
	}
	if a.Aff == nil || b.Aff == nil {
		return minOmega, true // opaque address: assume the worst
	}
	if !a.Aff.SameInvariants(b.Aff) {
		return minOmega, true // incomparable symbolic bases
	}
	// Outer-loop coefficients must agree for the 1-D test to apply.
	for k, c := range a.Aff.Coef {
		if k != loopID && b.Aff.Coef[k] != c {
			return minOmega, true
		}
	}
	for k, c := range b.Aff.Coef {
		if k != loopID && a.Aff.Coef[k] != c {
			return minOmega, true
		}
	}
	ca := a.Aff.Coef[loopID]
	cb := b.Aff.Coef[loopID]
	if ca != cb {
		// Crossing strides: addresses can coincide at many distances.
		return minOmega, true
	}
	if ca == 0 {
		// Loop-invariant addresses: dependent iff same constant.
		if a.Aff.Const != b.Aff.Const {
			return 0, false
		}
		return minOmega, true
	}
	// a touches ca·i + Ca, b touches ca·(i+k) + Cb: equal when
	// k = (Ca − Cb) / ca.
	num := a.Aff.Const - b.Aff.Const
	if num%ca != 0 {
		return 0, false
	}
	k := num / ca
	if k < int64(minOmega) {
		return 0, false
	}
	return int(k), true
}

// memEdge returns the kind and delay of a memory dependence a -> b under
// the simulator's memory timing: loads read memory at issue; stores write
// memory at issue after same-cycle loads.
func memEdge(a, b *MemAcc) (DepKind, int) {
	switch {
	case a.Store && !b.Store: // flow
		return DepMemFlow, a.Last + 1 - b.First
	case !a.Store && b.Store: // anti
		return DepMemAnti, a.Last - b.First
	default: // output
		return DepMemOutput, a.Last + 1 - b.First
	}
}

// Filter returns a copy of the graph without the removable edges of the
// given expandable registers (the modulo-variable-expansion pre-pass:
// "pretend every iteration has a dedicated location and remove all
// inter-iteration precedence constraints on these variables", Lam §2.3).
func (g *Graph) Filter(expanded map[ir.VReg]bool) *Graph {
	ng := &Graph{Nodes: g.Nodes, Expandable: g.Expandable}
	for _, e := range g.Edges {
		if e.Removable && expanded[e.Reg] {
			continue
		}
		ng.Edges = append(ng.Edges, e)
	}
	return ng
}
