// Package hier implements hierarchical reduction (Lam, PLDI 1988 §3):
// scheduled control constructs are reduced to pseudo-operations whose
// resource reservations and precedence constraints summarize their
// contents, so that scheduling techniques defined for basic blocks —
// list scheduling and software pipelining — apply across them.
//
// A conditional reduces to a node of length 1 + max(len(THEN), len(ELSE)):
// cycle 0 holds the fork branch, and each later cycle holds the union
// (per-resource maximum) of the two arms' reservations.  Code scheduled in
// parallel with the construct is duplicated into both emitted arms, and
// both arms are padded to the same length so that cycle-accurate timing is
// identical on either path (we keep the padding at emission, a documented
// deviation from the paper's empty-instruction elision; see DESIGN.md).
//
// The construct additionally reserves the sequencer for its whole window.
// This keeps construct windows pairwise disjoint in the steady state,
// which bounds code growth (no cross-product of overlapped branches) at
// the cost of not overlapping independent conditionals — the conservative
// end of the code-explosion trade-off the paper discusses in §5.2.
package hier

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"softpipe/internal/depgraph"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/schedule"
)

// Placed is one scheduled element of a reduced construct's arm: a simple
// operation node or a nested reduced construct, at an arm-relative cycle.
type Placed struct {
	Time int
	Node *depgraph.Node
}

// IfPayload is the emission payload of a reduced conditional.
type IfPayload struct {
	Cond ir.VReg
	// Then/Else hold the scheduled arm contents; times are relative to
	// the arm start (window cycle 1).
	Then []Placed
	Else []Placed
	// Len is the full window length including the fork cycle.
	Len int
}

// ErrLoopInside reports a loop statement directly in the body BuildNodes
// was given, ErrLoopInCond one inside an arm of a conditional.  Loops
// are not reduced here: callers reduce a body's own inner loops
// themselves (codegen's loop reduction), and a loop under a conditional
// falls back to unpipelined code.
var (
	ErrLoopInside = errors.New("hier: loop body contains an inner loop")
	ErrLoopInCond = errors.New("hier: loop nested inside conditional")
)

// BuildNodes converts a loop body into scheduling nodes: plain operations
// become simple nodes; conditionals are reduced recursively.  Loop
// statements are rejected (the caller reduces inner loops separately or
// falls back).
func BuildNodes(p *ir.Program, m *machine.Machine, loopID int, b *ir.Block) ([]*depgraph.Node, error) {
	var nodes []*depgraph.Node
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ir.OpStmt:
			n, err := depgraph.NodeFromOp(m, s.Op)
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, n)
		case *ir.IfStmt:
			n, err := ReduceIf(p, m, loopID, s)
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, n)
		case *ir.LoopStmt:
			return nil, ErrLoopInside
		default:
			return nil, fmt.Errorf("hier: unknown statement %T", s)
		}
	}
	return nodes, nil
}

// ReduceIf schedules both arms of a conditional independently (list
// scheduling, "compacted as much as possible, with no regard to the
// initiation interval", Lam §4.1) and reduces the construct to a single
// node carrying the union of the arms' scheduling constraints.
func ReduceIf(p *ir.Program, m *machine.Machine, loopID int, s *ir.IfStmt) (*depgraph.Node, error) {
	thenPl, thenLen, err := scheduleArm(p, m, loopID, s.Then)
	if err != nil {
		return nil, err
	}
	elsePl, elseLen, err := scheduleArm(p, m, loopID, s.Else)
	if err != nil {
		return nil, err
	}
	length := 1 + max(thenLen, elseLen)

	n := &depgraph.Node{
		Len:     length,
		Payload: &IfPayload{Cond: s.Cond, Then: thenPl, Else: elsePl, Len: length},
	}

	// Resource reservation: the per-offset per-resource maximum of the
	// two arms, raised so the sequencer is held for the whole window
	// (this keeps construct windows pairwise disjoint; nested constructs
	// already hold the sequencer inside their own sub-windows, so a max
	// — not a sum — is what capacity requires).
	use := armUsage(thenPl)
	use.Max(armUsage(elsePl))
	window := machine.Usage{}
	for off := 0; off < length; off++ {
		window.Add(machine.ResBranch, off, 1)
	}
	use.Max(window)
	n.Reservation = use.Reservation(m)

	// Register accesses: the condition at cycle 0, plus the union of the
	// arms' accesses shifted past the fork cycle.  Writes are killing
	// only when both arms write the register killingly.
	reads := readsAcc{}
	addRead(reads, s.Cond, 0)
	writes := map[ir.VReg]*depgraph.RegWrite{}
	thenW := map[ir.VReg]bool{}
	elseW := map[ir.VReg]bool{}
	collectAccesses(thenPl, 1, reads, writes, thenW)
	collectAccesses(elsePl, 1, reads, writes, elseW)
	for r, w := range writes {
		w.Killing = w.Killing && thenW[r] && elseW[r]
		n.Writes = append(n.Writes, *w)
	}
	for _, rd := range reads {
		n.Reads = append(n.Reads, *rd)
	}
	slices.SortFunc(n.Reads, func(a, b depgraph.RegRead) int { return cmp.Compare(a.Reg, b.Reg) })
	slices.SortFunc(n.Writes, func(a, b depgraph.RegWrite) int { return cmp.Compare(a.Reg, b.Reg) })

	// Memory accesses: union of both arms (conservative).
	collectMems(thenPl, 1, n)
	collectMems(elsePl, 1, n)
	return n, nil
}

// scheduleArm builds and list-schedules the nodes of one arm; the
// returned length guarantees at least one construct-free trailing row so
// that nested windows always have a join row inside the arm.
func scheduleArm(p *ir.Program, m *machine.Machine, loopID int, b *ir.Block) ([]Placed, int, error) {
	nodes, err := BuildNodes(p, m, loopID, b)
	if errors.Is(err, ErrLoopInside) {
		err = ErrLoopInCond
	}
	if err != nil {
		return nil, 0, err
	}
	if len(nodes) == 0 {
		return nil, 0, nil
	}
	g := depgraph.Build(nodes, loopID)
	r, err := schedule.List(g, m)
	if err != nil {
		return nil, 0, err
	}
	placed := make([]Placed, len(nodes))
	armLen := r.Length
	for i, nd := range nodes {
		placed[i] = Placed{Time: r.Time[i], Node: nd}
		if nd.Payload != nil && r.Time[i]+nd.Len+1 > armLen {
			armLen = r.Time[i] + nd.Len + 1
		}
	}
	return placed, armLen, nil
}

// armUsage sums an arm's resource demand at window-relative offsets (the
// arms start one cycle after the fork).
func armUsage(arm []Placed) machine.Usage {
	u := machine.Usage{}
	for _, pl := range arm {
		for _, ru := range pl.Node.Reservation {
			u.Add(ru.Resource, 1+pl.Time+ru.Offset, 1)
		}
	}
	return u
}

type readsAcc map[ir.VReg]*depgraph.RegRead

func addRead(acc readsAcc, r ir.VReg, at int) {
	if e, ok := acc[r]; ok {
		if at < e.First {
			e.First = at
		}
		if at > e.Last {
			e.Last = at
		}
		return
	}
	acc[r] = &depgraph.RegRead{Reg: r, First: at, Last: at}
}

// collectAccesses folds an arm's register accesses (shifted by `shift`)
// into the aggregate maps.
func collectAccesses(arm []Placed, shift int, reads readsAcc, writes map[ir.VReg]*depgraph.RegWrite, wrote map[ir.VReg]bool) {
	for _, pl := range arm {
		base := shift + pl.Time
		for _, rd := range pl.Node.Reads {
			addRead(reads, rd.Reg, base+rd.First)
			addRead(reads, rd.Reg, base+rd.Last)
		}
		for _, w := range pl.Node.Writes {
			wrote[w.Reg] = wrote[w.Reg] || w.Killing
			if e, ok := writes[w.Reg]; ok {
				if base+w.AvailFirst < e.AvailFirst {
					e.AvailFirst = base + w.AvailFirst
				}
				if base+w.AvailLast > e.AvailLast {
					e.AvailLast = base + w.AvailLast
				}
				e.Killing = e.Killing && w.Killing
			} else {
				writes[w.Reg] = &depgraph.RegWrite{
					Reg:        w.Reg,
					AvailFirst: base + w.AvailFirst,
					AvailLast:  base + w.AvailLast,
					Killing:    w.Killing,
				}
			}
		}
	}
}

func collectMems(arm []Placed, shift int, n *depgraph.Node) {
	for _, pl := range arm {
		base := shift + pl.Time
		for _, ma := range pl.Node.Mems {
			n.Mems = append(n.Mems, depgraph.MemAcc{
				Array: ma.Array,
				Aff:   ma.Aff,
				Store: ma.Store,
				First: base + ma.First,
				Last:  base + ma.Last,
			})
		}
	}
}
