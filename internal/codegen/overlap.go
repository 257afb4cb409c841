package codegen

import (
	"slices"
	"strings"

	"softpipe/internal/depgraph"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/schedule"
	"softpipe/internal/vliw"
)

// This file implements the loop-reduction half of hierarchical reduction
// (Lam §3.2): a software-pipelined inner loop is reduced to a single
// scheduling node whose resource reservation shows the prolog and epilog
// but marks the steady state as fully consumed, so that list scheduling
// of the enclosing body moves scalar code into the prolog/epilog zones
// and overlaps the epilog of one inner loop with the prolog of the next.

// reduceLoop plans and resolves an inner loop as a reduced node.  It
// fails (reason != "") for shapes the reduction does not cover: runtime
// counts and bodies that do not pipeline.
func (e *emitter) reduceLoop(l *ir.LoopStmt) (*depgraph.Node, string) {
	if l.CountReg != ir.NoReg {
		return nil, "inner loop has a runtime trip count"
	}
	if l.NoPipeline || l.CountImm <= 0 {
		return nil, "inner loop not eligible for pipelining"
	}
	rep := e.newLoopReport(l)
	nodes, plan, ok := e.planBody(l, false, true, &rep)
	// Unlike direct emission the reduction holds the loop's counter to the
	// end of the window: the enclosing schedule may move other code over it.
	p := &loopPayload{}
	if !ok || !e.countedRows(p, nodes, plan, l.CountImm, &rep) {
		return nil, "inner loop does not pipeline: " + rep.Reason
	}

	node := &depgraph.Node{
		Len:         len(p.rows),
		Payload:     p,
		Reservation: e.rowsReservation(p),
	}
	e.loopAccesses(l, node)

	// Record the inner loop in the report (it is pipelined, just emitted
	// through the reduction).
	e.report.Loops = append(e.report.Loops, rep)
	return node, ""
}

// rowsReservation derives the reduced node's reservation table: exact
// usage for overlappable rows, full consumption for repeated (looping)
// segments — "all resources in the steady state are marked as consumed"
// (Lam §3.2).
func (e *emitter) rowsReservation(p *loopPayload) []machine.ResUse {
	use := machine.Usage{}
	inSeg := make([]bool, len(p.rows))
	for _, s := range p.segs {
		for i := s.start; i < s.end; i++ {
			inSeg[i] = true
		}
	}
	for off, row := range p.rows {
		if inSeg[off] {
			for r, cnt := range e.m.ResourceCount {
				use[machine.ResUse{Resource: machine.Resource(r), Offset: off}] = cnt
			}
			continue
		}
		e.accumulateRowUsage(row, off, use)
	}
	return use.Reservation(e.m)
}

// accumulateRowUsage folds a resolved row's resource demand (slot ops,
// sequencer field, conditional-construct windows) into the usage map.
func (e *emitter) accumulateRowUsage(row rrow, off int, use machine.Usage) {
	for _, op := range row.ops {
		if d := e.m.Desc(op.Class); d != nil {
			for _, u := range d.Reservation {
				use.Add(u.Resource, off+u.Offset, 1)
			}
		}
	}
	if row.ctl.Kind != vliw.CtlNone {
		use.Add(machine.ResBranch, off, 1)
	}
	if c := row.cons; c != nil {
		for i := 0; i < c.length; i++ {
			use.Add(machine.ResBranch, off+i, 1)
		}
		arms, elseUse := machine.Usage{}, machine.Usage{}
		for i, r := range c.thenRows {
			e.accumulateRowUsage(r, off+1+i, arms)
		}
		for i, r := range c.elseRows {
			e.accumulateRowUsage(r, off+1+i, elseUse)
		}
		arms.Max(elseUse)
		for k, v := range arms {
			use[k] += v
		}
	}
}

// loopAccesses attaches conservative register and memory access summaries
// to a reduced loop node: every register read/written anywhere in the
// body may be touched anywhere in the window, every write has landed
// where the node's rows say the last of them does (landing, never before
// the window's end), and no write is killing.
func (e *emitter) loopAccesses(l *ir.LoopStmt, node *depgraph.Node) {
	reads := map[ir.VReg]bool{}
	writes := map[ir.VReg]bool{}
	type memKey struct {
		arr   string
		store bool
	}
	mems := map[memKey]bool{}
	l.Body.Walk(func(s ir.Stmt) bool {
		switch s := s.(type) {
		case *ir.OpStmt:
			for _, r := range s.Op.Src {
				reads[r] = true
			}
			if s.Op.Dst != ir.NoReg {
				writes[s.Op.Dst] = true
			}
			if s.Op.Mem != nil {
				mems[memKey{s.Op.Mem.Array, s.Op.Class == machine.ClassStore}] = true
			}
		case *ir.IfStmt:
			reads[s.Cond] = true
		case *ir.LoopStmt:
			if s.CountReg != ir.NoReg {
				reads[s.CountReg] = true
			}
		}
		return true
	})
	last := node.Len - 1
	landed := max(node.Len, e.landing(node.Payload.(*loopPayload).rows))
	for _, r := range sortedRegs(reads) {
		node.Reads = append(node.Reads, depgraph.RegRead{Reg: r, First: 0, Last: last})
	}
	for _, r := range sortedRegs(writes) {
		node.Writes = append(node.Writes, depgraph.RegWrite{
			Reg: r, AvailFirst: 1, AvailLast: landed, Killing: false,
		})
	}
	var keys []memKey
	for k := range mems {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b memKey) int { // by array, loads before stores
		if c := strings.Compare(a.arr, b.arr); c != 0 || a.store == b.store {
			return c
		}
		if b.store {
			return -1
		}
		return 1
	})
	for _, k := range keys {
		node.Mems = append(node.Mems, depgraph.MemAcc{
			Array: k.arr, Store: k.store, First: 0, Last: last,
		})
	}
}

func sortedRegs(set map[ir.VReg]bool) []ir.VReg {
	regs := make([]ir.VReg, 0, len(set))
	for r := range set {
		regs = append(regs, r)
	}
	slices.Sort(regs)
	return regs
}

// tryOverlapped handles outer loops whose body is straight-line code plus
// pipelined inner loops: the body is list-scheduled with the inner loops
// reduced to pseudo-operations, overlapping scalar code with their
// prologs and epilogs, and epilogs of one inner loop with prologs of the
// next (Lam §3.2/3.3).
func (e *emitter) tryOverlapped(l *ir.LoopStmt, rep *LoopReport) bool {
	reportMark := len(e.report.Loops)
	var built []*loopPayload
	freeCounters := func() {
		for _, p := range built {
			for _, c := range p.counters {
				e.freeI(c)
			}
		}
	}
	rollback := func(reason string) bool {
		freeCounters()
		e.releaseCopies()
		e.report.Loops = e.report.Loops[:reportMark]
		rep.Reason = reason
		return false
	}

	var nodes []*depgraph.Node
	hasLoop := false
	for _, s := range l.Body.Stmts {
		switch s := s.(type) {
		case *ir.OpStmt:
			nd, err := depgraph.NodeFromOp(e.m, s.Op)
			if err != nil {
				return rollback(err.Error())
			}
			nodes = append(nodes, nd)
		case *ir.LoopStmt:
			nd, reason := e.reduceLoop(s)
			if reason != "" {
				return rollback(reason)
			}
			built = append(built, nd.Payload.(*loopPayload))
			nodes = append(nodes, nd)
			hasLoop = true
		default:
			return rollback("body mixes conditionals with inner loops")
		}
	}
	if !hasLoop {
		return rollback("no inner loop to overlap")
	}

	g := depgraph.BuildIndep(nodes, l.ID, l.Independent)
	r, err := schedule.List(g, e.m)
	if err != nil {
		return rollback(err.Error())
	}
	period := schedule.PeriodFor(g, r, r.Length)

	// Merge the reduced loops' resolved rows with the scalar slots.
	type window struct{ start, end int }
	var segs []loopSeg
	var rotWins []window
	maxEnd := r.Length
	for i, nd := range nodes {
		if nd.Op != nil {
			continue
		}
		p := nd.Payload.(*loopPayload)
		for _, sg := range p.segs {
			segs = append(segs, loopSeg{start: r.Time[i] + sg.start, end: r.Time[i] + sg.end, counter: sg.counter, rotate: sg.rotate})
			maxEnd = max(maxEnd, r.Time[i]+sg.end+1)
		}
		// A construct window holds the sequencer to its last row, so the
		// outer loop-back comes after every window as well.
		for j, rw := range p.rows {
			if rw.cons != nil {
				maxEnd = max(maxEnd, r.Time[i]+j+rw.cons.length+1)
			}
		}
		if p.rotating {
			rotWins = append(rotWins, window{r.Time[i], r.Time[i] + nd.Len})
		}
	}
	period = max(period, maxEnd)
	// A rotating register file has a single base shared by every loop in
	// flight, and each reduced rotating loop clears and advances it.  Two
	// rotating windows may therefore not overlap; roll back to plain
	// emission (each inner loop still pipelines, just without the
	// prolog/epilog overlap).
	slices.SortFunc(rotWins, func(a, b window) int { return a.start - b.start })
	for i := 1; i < len(rotWins); i++ {
		if rotWins[i].start < rotWins[i-1].end {
			return rollback("rotating inner-loop windows overlap (one rotating base per machine)")
		}
	}

	rows := make([]rrow, period)
	for i, nd := range nodes {
		t := r.Time[i]
		if nd.Op != nil {
			rows[t].ops = append(rows[t].ops, e.slotFor(nd.Op, 0, nil))
			continue
		}
		p := nd.Payload.(*loopPayload)
		for j, rw := range p.rows {
			at := t + j
			rows[at].ops = append(rows[at].ops, rw.ops...)
			if rw.ctl.Kind != vliw.CtlNone {
				if rows[at].ctl.Kind != vliw.CtlNone {
					return rollback("internal: sequencer fields collided during overlap")
				}
				rows[at].ctl = rw.ctl
			}
			if rw.cons != nil {
				if rows[at].cons != nil {
					return rollback("internal: construct windows collided during overlap")
				}
				rows[at].cons = rw.cons
			}
		}
	}
	slices.SortFunc(segs, func(a, b loopSeg) int { return a.start - b.start })
	for i := 1; i < len(segs); i++ {
		if segs[i].start < segs[i-1].end {
			return rollback("internal: repeated segments overlap")
		}
	}
	// The loop-back branches are written into the merged rows below;
	// those cycles must still have a free sequencer field.
	for _, sg := range segs {
		if rows[sg.end-1].ctl.Kind != vliw.CtlNone {
			return rollback("internal: loop-back cycle already carries control")
		}
	}
	if rows[period-1].ctl.Kind != vliw.CtlNone {
		return rollback("internal: outer loop-back cycle already carries control")
	}

	// Outer loop counter and emission.
	counter := e.allocI()
	e.append(vliw.Instr{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: counter, IImm: l.CountImm}}})
	rows[period-1].ctl = vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: counter, Target: len(e.out)}
	e.closeRegion(&loopPayload{rows: rows, segs: segs})
	if e.err != nil {
		return false
	}

	freeCounters()
	e.freeI(counter)
	e.releaseCopies()

	rep.II = period
	rep.Reason = "body scheduled with reduced inner loops (prolog/epilog overlap)"
	return true
}
