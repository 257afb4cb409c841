package depgraph

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

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
	g, _ := BuildContext(context.Background(), nodes, loopID, independent) // a live context never fails
	return g
}

// pollEvery is how many register accesses or memory pairs the build
// handles between two polls of its context.
const pollEvery = 1 << 12

// BuildContext is BuildIndep under a deadline: the register and memory
// dependence builds poll ctx as they go, and the build fails with an
// error wrapping ctx.Err() once ctx is done.
func BuildContext(ctx context.Context, nodes []*Node, loopID int, independent bool) (*Graph, error) {
	// Bodies average three to four dependences per node; starting there
	// saves most of the regrowth of Edges.
	g := &Graph{Nodes: nodes, Edges: make([]Edge, 0, 4*len(nodes))}
	for i, n := range nodes {
		n.Index = i
	}
	if err := g.buildRegDeps(ctx); err != nil {
		return nil, err
	}
	if err := g.buildMemDeps(ctx, loopID, independent); err != nil {
		return nil, err
	}
	return g, nil
}

// aborted wraps a done context's error for the build.
func aborted(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("depgraph: build aborted: %w", err)
	}
	return nil
}

// regAccess is one ordered access to a register during the body: the
// node's read and/or write of it.  nextWrite is the position, in the
// register's sequence, of the first later access that writes it
// (len(seq) when none does).
type regAccess struct {
	reg       ir.VReg
	node      int
	nextWrite int
	read      *RegRead
	write     *RegWrite
}

// regScratch is buildRegDeps' working storage, shared through regPool by
// the many builds of a compile: every access in program order, a sort key
// per access, the accesses merged and grouped by register, and the live
// writes of the register being built.
type regScratch struct {
	acc, merged, live []regAccess
	keys              []uint64
}

var regPool = sync.Pool{New: func() any { return new(regScratch) }}

func (g *Graph) buildRegDeps(ctx context.Context) error {
	sc := regPool.Get().(*regScratch)
	defer func() {
		// The accesses point into the nodes: let go of them.
		clear(sc.acc)
		clear(sc.merged)
		clear(sc.live[:cap(sc.live)])
		regPool.Put(sc)
	}()
	// Every access, node by node, then grouped by register: each
	// register's accesses form one run in program order, a node's read
	// ahead of its write.  The key is the register (registers are
	// non-negative and below 2³²) above the access's position, so a plain
	// sort of the keys is that order.  A node's read and write of r merge
	// into one entry (a repeated read: the later one stands).
	acc := sc.acc[:0]
	for i, nd := range g.Nodes {
		for j := range nd.Reads {
			acc = append(acc, regAccess{reg: nd.Reads[j].Reg, node: i, read: &nd.Reads[j]})
		}
		for j := range nd.Writes {
			acc = append(acc, regAccess{reg: nd.Writes[j].Reg, node: i, write: &nd.Writes[j]})
		}
	}
	keys := sc.keys[:0]
	for k, a := range acc {
		keys = append(keys, uint64(a.reg)<<32|uint64(k))
	}
	slices.Sort(keys)
	merged := sc.merged[:0]
	regs := 0
	for _, key := range keys {
		a := acc[uint32(key)]
		if k := len(merged) - 1; k >= 0 && merged[k].reg == a.reg && merged[k].node == a.node {
			if a.read != nil {
				merged[k].read = a.read
			}
			if a.write != nil {
				merged[k].write = a.write
			}
			continue
		}
		if len(merged) == 0 || merged[len(merged)-1].reg != a.reg {
			regs++
		}
		merged = append(merged, a)
	}
	sc.acc, sc.keys, sc.merged = acc, keys, merged
	g.Expandable = make(map[ir.VReg]bool, regs)

	polled := 0
	for start := 0; start < len(merged); {
		end := start + 1
		for end < len(merged) && merged[end].reg == merged[start].reg {
			end++
		}
		if polled += end - start; polled >= pollEvery {
			polled = 0
			if err := aborted(ctx); err != nil {
				return err
			}
		}
		sc.live = g.regDepsFor(merged[start].reg, merged[start:end], sc.live[:0])
		start = end
	}
	return nil
}

// regDepsFor emits all dependences carried by register r, whose accesses
// are seq, in time linear in len(seq).  live is scratch, returned for
// reuse.
//
// Semantics recap (see internal/sim): a node issued at σ reads its
// operands at σ+readOffset and its results become readable at
// σ+avail.  A write must land strictly after every read of the previous
// value and strictly after earlier writes.
func (g *Graph) regDepsFor(r ir.VReg, seq []regAccess, live []regAccess) []regAccess {
	hasWrite := false
	allKilling := true
	// killedBy is the node of the first killing write: a read at a later
	// node cannot see the previous iteration's value.
	killedBy := -1
	next := len(seq)
	for i := len(seq) - 1; i >= 0; i-- {
		seq[i].nextWrite = next
		if w := seq[i].write; w != nil {
			next = i
			hasWrite = true
			if !w.Killing {
				allKilling = false
			}
		}
	}
	for _, a := range seq {
		if a.write != nil && a.write.Killing {
			killedBy = a.node
			break
		}
	}

	// liveWrites tracks writes whose value may still reach the current
	// scan point (cleared by killing writes).
	liveWrites := live
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
			// Anti dependence to the next write this iteration (a later
			// node: each node has one entry); the output chain implies the
			// constraint for later writes.
			if j := a.nextWrite; j < len(seq) {
				b := &seq[j]
				g.Edges = append(g.Edges, Edge{
					From: a.node, To: b.node, Kind: DepAnti, Reg: r,
					Delay: a.read.Last + 1 - b.write.AvailFirst,
				})
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
		// exposed reads of the next iteration: reads no killing write at
		// an earlier node precedes.
		if killedBy < 0 || killedBy >= a.node {
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
	return liveWrites
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

// memAccess is one access of a node to an array, for buildMemDeps.
type memAccess struct {
	node int
	acc  *MemAcc
}

// memPool shares buildMemDeps' list of accesses between builds.
var memPool = sync.Pool{New: func() any { return new([]memAccess) }}

func (g *Graph) buildMemDeps(ctx context.Context, loopID int, independent bool) error {
	// Every access, then grouped by array name, in name order; within an
	// array in program order (the sort is stable).
	buf := memPool.Get().(*[]memAccess)
	defer func() {
		clear(*buf) // the accesses point into the nodes: let go of them
		memPool.Put(buf)
	}()
	all := (*buf)[:0]
	for i, n := range g.Nodes {
		for j := range n.Mems {
			all = append(all, memAccess{node: i, acc: &n.Mems[j]})
		}
	}
	slices.SortStableFunc(all, func(a, b memAccess) int { return strings.Compare(a.acc.Array, b.acc.Array) })
	*buf = all

	polled := 0
	for start := 0; start < len(all); {
		end := start + 1
		for end < len(all) && all[end].acc.Array == all[start].acc.Array {
			end++
		}
		seq := all[start:end]
		start = end
		for i, a := range seq {
			if polled += len(seq); polled >= pollEvery {
				polled = 0
				if err := aborted(ctx); err != nil {
					return err
				}
			}
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
	return nil
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
