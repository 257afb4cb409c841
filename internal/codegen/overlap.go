package codegen

import (
	"fmt"
	"math"
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
	e.loopAccesses(node)
	if p.rotating {
		// The rotating register base is one per machine, and a rotating
		// loop clears and advances it: to the enclosing schedule it is a
		// register such a loop reads and writes throughout its window, so
		// two rotating windows never overlap.
		node.Reads = append(node.Reads, depgraph.RegRead{Reg: rotatingBase, First: 0, Last: node.Len - 1})
		node.Writes = append(node.Writes, depgraph.RegWrite{Reg: rotatingBase, AvailFirst: 0, AvailLast: node.Len - 1})
	}

	// Record the inner loop in the report (it is pipelined, just emitted
	// through the reduction).
	e.report.Loops = append(e.report.Loops, rep)
	return node, ""
}

// rotatingBase stands for the rotating register base in the access
// summaries of reduced loops; no program register has its number.
const rotatingBase ir.VReg = -2

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

// rowSpan is the first and last row of what a reduced loop does to one
// register or array.
type rowSpan struct{ first, last int }

// widen records [first, last] for k in spans.
func widen[K comparable](spans map[K]rowSpan, k K, first, last int) {
	if s, ok := spans[k]; ok {
		first, last = min(s.first, first), max(s.last, last)
	}
	spans[k] = rowSpan{first, last}
}

// loopAccesses attaches a reduced loop node's register and memory access
// summaries, read off its payload rows: for each register the first and
// last row that reads it and the first and last landing of a write, for
// each array the first and last row that touches it.  A physical register
// is reported as the program register whose base copy it is; counters and
// the copies modulo variable expansion adds are the loop's own.  No write
// is killing.
//
// The rows are compressed time: a segment's rows run once per pass, so
// what follows a segment runs (passes−1)·len cycles later than its row
// says, and what precedes it does not.  The segment rule keeps the
// summary exact anyway.  An access at or after a segment's start holds
// any later writer until the segment has ended: a read, or a write's
// landing, is reported no earlier than the segment's last row plus the
// machine's longest latency (a writer issued before the segment would
// land during its passes), a memory access no earlier than the segment's
// last row (whose resources the reservation marks consumed).  A write
// landing at or after a segment's start is reported as landing at that
// start at the earliest, so nothing that reads or writes the register
// before the node moves past the segment.  The held values may exceed the
// node's length.
func (e *emitter) loopAccesses(node *depgraph.Node) {
	p := node.Payload.(*loopPayload)
	type phys struct {
		float bool
		reg   int
	}
	owner := map[phys]ir.VReg{}
	for r, p := range e.regs.base {
		if p > 0 {
			owner[phys{e.irp.Kind(ir.VReg(r)) == ir.KindFloat, p - 1}] = ir.VReg(r)
		}
	}
	// heldTo is the last row of the last segment starting at or before row
	// j (-1: none); landsBy the start of the first segment ending after j.
	segs := p.segs
	if waived&rotSegments != 0 {
		segs = nil
	}
	heldTo := func(j int) int {
		held := -1
		for _, s := range segs {
			if s.start <= j {
				held = s.end - 1
			}
		}
		return held
	}
	landsBy := func(j int) int {
		for _, s := range segs {
			if s.end > j {
				return s.start
			}
		}
		return math.MaxInt
	}
	maxLat := e.m.MaxLatency()
	hold := func(j, at int) int {
		if held := heldTo(j); held >= 0 {
			return max(at, held+maxLat)
		}
		return at
	}

	reads, writes := map[ir.VReg]rowSpan{}, map[ir.VReg]rowSpan{}
	type memKey struct {
		arr   string
		store bool
	}
	mems := map[memKey]rowSpan{}
	touch := func(spans map[ir.VReg]rowSpan, float bool, static int, ring []int, first, last int) {
		if r, ok := owner[phys{float, static}]; ok {
			widen(spans, r, first, last)
		}
		for _, reg := range ring {
			if r, ok := owner[phys{float, reg}]; ok {
				widen(spans, r, first, last)
			}
		}
	}
	var walk func(rows []rrow, off int)
	walk = func(rows []rrow, off int) {
		for i, row := range rows {
			j := off + i
			for _, op := range row.ops {
				info := op.Class.Info()
				arrFloat := info.UsesArray() && e.prog.Array(op.Array).Kind == ir.KindFloat
				file := func(f machine.File) bool { return f.Resolve(arrFloat, op.FImm != 0) == machine.FileFloat }
				for k, src := range op.Src {
					var ring []int
					if k < len(op.SrcRings) {
						ring = op.SrcRings[k]
					}
					touch(reads, file(info.Src[k]), src, ring, j, hold(j, j))
				}
				if info.Dst != machine.FileNone {
					land := j + e.m.Latency(op.Class)
					touch(writes, file(info.Dst), op.Dst, op.DstRing, min(land, landsBy(j)), hold(j, land))
				}
				arr, store := op.Array, op.Class == machine.ClassStore
				if q := depgraph.QueueArray(op.Class); q != "" {
					arr, store = q, true
				}
				if arr != "" {
					last := j
					if held := heldTo(j); held > j {
						last = held
					}
					widen(mems, memKey{arr, store}, j, last)
				}
			}
			if c := row.cons; c != nil {
				touch(reads, false, c.cond, c.condRing, j, hold(j, j))
				walk(c.thenRows, j+1)
				walk(c.elseRows, j+1)
			}
		}
	}
	walk(p.rows, 0)

	for _, r := range sortedKeys(reads) {
		node.Reads = append(node.Reads, depgraph.RegRead{Reg: r, First: reads[r].first, Last: reads[r].last})
	}
	for _, r := range sortedKeys(writes) {
		node.Writes = append(node.Writes, depgraph.RegWrite{
			Reg: r, AvailFirst: writes[r].first, AvailLast: writes[r].last, Killing: false,
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
			Array: k.arr, Store: k.store, First: mems[k].first, Last: mems[k].last,
		})
	}
}

func sortedKeys[V any](set map[ir.VReg]V) []ir.VReg {
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
// next (Lam §3.2/3.3).  Its pure leading setup may also rotate across the
// loop-back into the last inner loop's epilog (rotatable, tryRotation).
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
	lead := -1 // operations before the first inner loop
	for _, s := range l.Body.Stmts {
		switch s := s.(type) {
		case *ir.OpStmt:
			nd, err := e.arena.NodeFromOp(e.m, s.Op)
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
			if lead < 0 {
				lead = len(nodes)
			}
			nodes = append(nodes, nd)
		default:
			return rollback("body mixes conditionals with inner loops")
		}
	}
	if lead < 0 {
		return rollback("no inner loop to overlap")
	}

	body, reason := e.scheduleOverlapped(l, nodes)
	if body == nil {
		return rollback(reason)
	}
	if !e.opts.NoRotation {
		if stay, moved := e.rotatable(l, nodes[:lead]); len(moved) > 0 {
			body = e.tryRotation(l, append(append(stay, nodes[lead:]...), moved...), moved, body, rep)
		}
	}

	// Merge the reduced loops' resolved rows with the scalar slots.
	rows := make([]rrow, body.period)
	for i, nd := range body.nodes {
		t := body.time[i]
		if nd.Op != nil {
			rows[t].ops = append(rows[t].ops, e.slotFor(nd.Op, 0, nil))
			continue
		}
		p := nd.Payload.(*loopPayload)
		for j, rw := range p.rows {
			at := t + j
			if rows[at].ops == nil {
				// Shared, clipped: an append to either copies first.
				rows[at].ops = slices.Clip(rw.ops)
			} else {
				rows[at].ops = append(rows[at].ops, rw.ops...)
			}
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
	// The loop-back branches are written into the merged rows below;
	// those cycles must still have a free sequencer field.
	for _, sg := range body.segs {
		if rows[sg.end-1].ctl.Kind != vliw.CtlNone {
			return rollback("internal: loop-back cycle already carries control")
		}
	}
	if rows[body.period-1].ctl.Kind != vliw.CtlNone {
		return rollback("internal: outer loop-back cycle already carries control")
	}

	// The peeled setup of the first iteration is a region of its own, its
	// registers the loop's (never recycled by localAssign: the body's
	// rotated copies write the same ones).
	if peel := body.peel; peel != nil {
		prows := make([]rrow, peel.period)
		for i, nd := range peel.nodes {
			prows[peel.time[i]].ops = append(prows[peel.time[i]].ops, e.slotFor(nd.Op, 0, nil))
		}
		e.closeRegion(&loopPayload{rows: prows})
	}
	// Outer loop counter and emission.
	counter := e.allocI()
	e.append(vliw.Instr{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: counter, IImm: l.CountImm}}})
	rows[body.period-1].ctl = vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: counter, Target: len(e.out)}
	e.closeRegion(&loopPayload{rows: rows, segs: body.segs})
	if e.err != nil {
		return false
	}

	freeCounters()
	e.freeI(counter)
	e.releaseCopies()

	rep.II = body.period
	rep.Reason = "body scheduled with reduced inner loops (prolog/epilog overlap)"
	return true
}

// overlapped is one list schedule of an outer body with its inner loops
// reduced: the nodes in the order they were scheduled, each one's issue
// cycle, the period at which the body repeats, the reduced loops' repeated
// segments placed in the body's rows, in row order, and the peel that runs
// rotated setup for the first iteration (tryRotation), if any.
type overlapped struct {
	nodes  []*depgraph.Node
	time   []int
	period int
	segs   []loopSeg
	peel   *overlapped
}

// scheduleOverlapped list-schedules an outer body, nodes in program order;
// reason says why the schedule cannot be emitted when it is nil.
func (e *emitter) scheduleOverlapped(l *ir.LoopStmt, nodes []*depgraph.Node) (*overlapped, string) {
	g := depgraph.BuildIndep(nodes, l.ID, l.Independent)
	r, err := schedule.List(g, e.m)
	if err != nil {
		return nil, err.Error()
	}
	period := schedule.PeriodFor(g, r, r.Length)

	var segs []loopSeg
	for i, nd := range nodes {
		if nd.Op != nil {
			continue
		}
		p := nd.Payload.(*loopPayload)
		for _, sg := range p.segs {
			segs = append(segs, loopSeg{start: r.Time[i] + sg.start, end: r.Time[i] + sg.end, counter: sg.counter, rotate: sg.rotate})
			period = max(period, r.Time[i]+sg.end+1)
		}
		// A construct window holds the sequencer to its last row, so the
		// outer loop-back comes after every window as well.
		for j, rw := range p.rows {
			if rw.cons != nil {
				period = max(period, r.Time[i]+j+rw.cons.length+1)
			}
		}
	}
	slices.SortFunc(segs, func(a, b loopSeg) int { return a.start - b.start })
	for i := 1; i < len(segs); i++ {
		if segs[i].start < segs[i-1].end {
			return nil, "internal: repeated segments overlap"
		}
	}
	return &overlapped{nodes: nodes, time: r.Time, period: period, segs: segs}, ""
}

// tryRotation schedules the outer body in the rotated order, the moved
// operations at its end, and the peel that runs them for the first
// iteration.  It returns the rotated body, its peel attached, when the two
// take fewer cycles than the plain body, and the plain body otherwise; the
// explain report says which and why.
func (e *emitter) tryRotation(l *ir.LoopStmt, order, moved []*depgraph.Node, plain *overlapped, rep *LoopReport) *overlapped {
	note := func(format string, args ...any) {
		rep.Explain.Notes = append(rep.Explain.Notes, fmt.Sprintf(format, args...))
	}
	rotated, reason := e.scheduleOverlapped(l, order)
	if rotated == nil {
		note("outer body not rotated: %s", reason)
		return plain
	}
	pr, err := schedule.List(depgraph.BuildIndep(moved, -1, false), e.m)
	if err != nil {
		note("outer body not rotated: %v", err)
		return plain
	}
	_, peeled := e.span(moved, pr.Time)
	with, without := e.compare("codegen.rotate", l.ID, e.repeatedForm(peeled, rotated.nodes, rotated.time, rotated.period),
		e.repeatedForm(0, plain.nodes, plain.time, plain.period), l.CountImm)
	switch {
	case rotated.period >= plain.period:
		note("outer body not rotated: rotated period %d ≥ %d", rotated.period, plain.period)
		return plain
	case with >= without:
		note("outer body not rotated: rotated period %d < %d, but %d iterations and %d peeled cycles take %d ≥ %d",
			rotated.period, plain.period, l.CountImm, peeled, with, without)
		return plain
	}
	note("outer body rotated: %d setup operations run one iteration early, period %d → %d", len(moved), plain.period, rotated.period)
	rep.Rotated = len(moved)
	e.opts.Tracer.Count("codegen.rotated_ops", int64(len(moved)))
	rotated.peel = &overlapped{nodes: moved, time: pr.Time, period: peeled}
	return rotated
}

// rotatable splits the leading operations of an outer body (those before
// its first inner loop, in order) into the ones that stay and the ones
// that may rotate across the loop-back: run at the end of each iteration
// for the next one, and once before the loop for the first.  An operation
// qualifies when its class is pure and total (the last trip computes a
// value nobody wants, and must not fault doing it), its destination is not
// live after the loop (liveOutOf: the last trip overwrites it), and it can
// move in front of the leading operations that stay — it writes nothing
// an earlier staying operation reads or writes, and reads nothing one
// writes.
func (e *emitter) rotatable(l *ir.LoopStmt, lead []*depgraph.Node) (stay, moved []*depgraph.Node) {
	live := e.liveOutOf(l)
	read, written := map[ir.VReg]bool{}, map[ir.VReg]bool{} // by what stays, so far
	for _, nd := range lead {
		op := nd.Op
		ok := (op.Class.Info().Pure() || waived&rotPure != 0) && op.Dst != ir.NoReg &&
			(!live[op.Dst] || waived&rotLive != 0) &&
			(!read[op.Dst] && !written[op.Dst] || waived&rotOrder != 0)
		for _, src := range op.Src {
			ok = ok && (!written[src] || waived&rotOrder != 0)
		}
		if ok {
			moved = append(moved, nd)
			continue
		}
		stay = append(stay, nd)
		for _, src := range op.Src {
			read[src] = true
		}
		if op.Dst != ir.NoReg {
			written[op.Dst] = true
		}
	}
	return stay, moved
}

// waiver names one condition of loop rotation, or the segment rule of a
// reduced loop's summary (loopAccesses).
type waiver uint8

const (
	rotPure     waiver = 1 << iota // a rotated operation is pure and total
	rotLive                        // its destination is not live after the loop
	rotOrder                       // it moves past no staying operation it conflicts with
	rotSegments                    // accesses in and after a segment hold later writers to its end
)

// waived lists the conditions rotatable and loopAccesses do not check.
// Always zero outside this package's tests, which waive one at a time to
// show the verifier refuses what that condition exists to prevent.
var waived waiver
