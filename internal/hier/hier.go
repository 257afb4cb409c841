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
//
// An indivisible window floors the initiation interval at its own length
// plus the loop-back slot (§4.1), so a reduced construct holds only what
// must be conditional.  An operation that is pure and total, whose
// destination is private to its arm and whose sources nothing earlier in
// the arm writes, computes the same value wherever it runs and is seen by
// nobody when the arm is not taken: it is lifted to just before the
// construct and scheduled as an ordinary node (lift; DESIGN.md,
// "arm-private speculation").  Stores, loads and writes to registers that
// live outside the arm stay.
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
// become simple nodes; conditionals are reduced recursively, their
// arm-private pure operations lifted in front of them.  Loop statements
// are rejected (the caller reduces inner loops separately or falls back).
func BuildNodes(p *ir.Program, m *machine.Machine, loopID int, b *ir.Block) ([]*depgraph.Node, error) {
	nodes, _, err := NewReducer(p, m).Reduce(loopID, b, true)
	return nodes, err
}

// ReduceIf reduces one conditional with both arms whole (nothing lifted).
func ReduceIf(p *ir.Program, m *machine.Machine, loopID int, s *ir.IfStmt) (*depgraph.Node, error) {
	nodes, err := NewReducer(p, m).reduceIf(loopID, s, false)
	if err != nil {
		return nil, err
	}
	return nodes[0], nil
}

// Reducer reduces the loop bodies of one program.  What "private to an
// arm" means is a count over the whole program; a Reducer takes it once,
// when the first conditional with a candidate operation asks, and keeps
// it, so a compile that reduces many loops counts once.  Not safe for
// concurrent use.
type Reducer struct {
	p *ir.Program
	m *machine.Machine
	// defs[r] and uses[r] count the operations that write register r and
	// the references that read it (operands, conditions, loop counts,
	// results) anywhere in the program; nil until first needed.
	defs, uses []int32
}

// NewReducer returns a reducer for the loops of p on machine m.  p must
// not change while the reducer is in use.
func NewReducer(p *ir.Program, m *machine.Machine) *Reducer {
	return &Reducer{p: p, m: m}
}

// Reduce converts the body b of loop loopID into scheduling nodes, as
// BuildNodes does.  With lift false every conditional keeps its arms
// whole — the reduction exactly as Lam §3.1 describes it.  hoisted counts
// the operations that left every construct window and became nodes of
// the body itself.
func (r *Reducer) Reduce(loopID int, b *ir.Block, lift bool) (nodes []*depgraph.Node, hoisted int, err error) {
	nodes, err = r.nodes(loopID, b, lift)
	if err != nil || !lift {
		return nodes, 0, err
	}
	for _, n := range nodes {
		if n.Op != nil {
			hoisted++
		}
	}
	for _, s := range b.Stmts {
		if _, ok := s.(*ir.OpStmt); ok {
			hoisted--
		}
	}
	return nodes, hoisted, nil
}

func (r *Reducer) nodes(loopID int, b *ir.Block, lift bool) ([]*depgraph.Node, error) {
	var nodes []*depgraph.Node
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ir.OpStmt:
			n, err := depgraph.NodeFromOp(r.m, s.Op)
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, n)
		case *ir.IfStmt:
			ns, err := r.reduceIf(loopID, s, lift)
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, ns...)
		case *ir.LoopStmt:
			return nil, ErrLoopInside
		default:
			return nil, fmt.Errorf("hier: unknown statement %T", s)
		}
	}
	return nodes, nil
}

// reduceIf schedules both arms of a conditional independently (list
// scheduling, "compacted as much as possible, with no regard to the
// initiation interval", Lam §4.1) and reduces the construct to a single
// node carrying the union of the arms' scheduling constraints.  It
// returns the operations lifted out of the arms, in arm order, followed
// by that node.  Inner arms are reduced first, so what a nested arm gave
// up is a candidate of the arm around it.
func (r *Reducer) reduceIf(loopID int, s *ir.IfStmt, lift bool) ([]*depgraph.Node, error) {
	var out []*depgraph.Node
	var placed [2][]Placed
	var lens [2]int
	for i, arm := range []*ir.Block{s.Then, s.Else} {
		nodes, err := r.nodes(loopID, arm, lift)
		if errors.Is(err, ErrLoopInside) {
			err = ErrLoopInCond
		}
		if err != nil {
			return nil, err
		}
		if lift {
			var lifted []*depgraph.Node
			lifted, nodes = r.lift(arm, nodes)
			out = append(out, lifted...)
		}
		if placed[i], lens[i], err = scheduleArm(r.m, loopID, nodes); err != nil {
			return nil, err
		}
	}
	thenPl, elsePl := placed[0], placed[1]
	length := 1 + max(lens[0], lens[1])

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
	n.Reservation = use.Reservation(r.m)

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
	return append(out, n), nil
}

// clause names one condition of the lifting predicate.
type clause uint8

const (
	clausePure    clause = 1 << iota // the class is pure and total (machine.ClassInfo.Pure)
	clauseOneDef                     // nothing else in the program writes the destination
	clauseInArm                      // every reference to the destination is inside the arm, after the definition
	clauseSources                    // nothing earlier in the arm that stayed writes a source
)

// waived lists the clauses lift does not check.  Always zero outside this
// package's tests, which waive one clause at a time to show the verifier
// refuses what that clause exists to prevent.
var waived clause

// lift splits the nodes of one arm (built from arm, nested conditionals
// already reduced) into the operations that may run whether or not the
// arm is taken and the rest, each in arm order.  An operation is lifted
// when its class is pure and total, its destination is private to the
// arm — one definition in the program, every reference inside the arm
// and after that definition, so nobody sees the value when the arm is
// skipped and no earlier iteration's value is read — and none of its
// sources is written earlier in the arm by something that stays.
func (r *Reducer) lift(arm *ir.Block, nodes []*depgraph.Node) (lifted, rest []*depgraph.Node) {
	// after[d] counts the references to candidate destination d that
	// follow its definition inside the arm.
	var after map[ir.VReg]int32
	for _, n := range nodes {
		if n.Op != nil && (n.Op.Class.Info().Pure() || waived&clausePure != 0) && n.Op.Dst != ir.NoReg {
			if after == nil {
				after = map[ir.VReg]int32{}
			}
			after[n.Op.Dst] = -1 // candidate, definition not yet seen
		}
	}
	if after == nil {
		return nil, nodes
	}
	r.count()
	ref := func(reg ir.VReg) {
		if c, ok := after[reg]; ok && c >= 0 {
			after[reg] = c + 1
		}
	}
	arm.Walk(func(s ir.Stmt) bool {
		switch s := s.(type) {
		case *ir.OpStmt:
			for _, src := range s.Op.Src {
				ref(src)
			}
			if c, ok := after[s.Op.Dst]; ok && c < 0 {
				after[s.Op.Dst] = 0
			}
		case *ir.IfStmt:
			ref(s.Cond)
		}
		return true
	})

	var written map[ir.VReg]bool // by what stays, so far
	stay := func(n *depgraph.Node) {
		rest = append(rest, n)
		for _, w := range n.Writes {
			if written == nil {
				written = map[ir.VReg]bool{}
			}
			written[w.Reg] = true
		}
	}
	for _, n := range nodes {
		op := n.Op
		if op == nil {
			stay(n)
			continue
		}
		c, candidate := after[op.Dst]
		ok := candidate &&
			(r.defs[op.Dst] == 1 || waived&clauseOneDef != 0) &&
			(c == r.uses[op.Dst] || waived&clauseInArm != 0)
		for _, src := range op.Src {
			ok = ok && (!written[src] || waived&clauseSources != 0)
		}
		if ok {
			lifted = append(lifted, n)
		} else {
			stay(n)
		}
	}
	return lifted, rest
}

// count takes the program-wide definition and reference counts.
func (r *Reducer) count() {
	if r.defs != nil {
		return
	}
	r.defs = make([]int32, r.p.NumRegs())
	r.uses = make([]int32, r.p.NumRegs())
	use := func(reg ir.VReg) {
		if reg != ir.NoReg {
			r.uses[reg]++
		}
	}
	r.p.Body.Walk(func(s ir.Stmt) bool {
		switch s := s.(type) {
		case *ir.OpStmt:
			for _, src := range s.Op.Src {
				use(src)
			}
			if s.Op.Dst != ir.NoReg {
				r.defs[s.Op.Dst]++
			}
		case *ir.IfStmt:
			use(s.Cond)
		case *ir.LoopStmt:
			use(s.CountReg)
		}
		return true
	})
	for _, res := range r.p.Results {
		use(res.Reg)
	}
}

// scheduleArm list-schedules the nodes of one arm; the returned length
// guarantees at least one construct-free trailing row so that nested
// windows always have a join row inside the arm.
func scheduleArm(m *machine.Machine, loopID int, nodes []*depgraph.Node) ([]Placed, int, error) {
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
