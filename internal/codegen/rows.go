package codegen

import (
	"fmt"

	"softpipe/internal/hier"
	"softpipe/internal/machine"
	"softpipe/internal/pipeline"
	"softpipe/internal/vliw"
)

// rrow is one resolved emission row: the slot ops issuing that cycle,
// an optional sequencer op, and an optional conditional construct whose
// window starts here.  Construct windows never overlap (each reserves the
// sequencer for its whole window at schedule time), so a row carries at
// most one construct.
type rrow struct {
	ops  []vliw.SlotOp
	ctl  vliw.Ctl
	cons *rcons
}

// rcons is a resolved conditional construct instance: the fork condition
// (already mapped to a physical register for its iteration) and the two
// arms' rows, each padded to length-1 rows.  On rotating plans an
// expanded condition resolves through condRing at the current rotating
// base instead of the static cond register.
type rcons struct {
	cond     int
	condRing []int
	length   int
	thenRows []rrow
	elseRows []rrow
}

// loopSeg marks a sub-range of a loop's rows that the sequencer repeats:
// rows[start:end] loop back via DBNZ on `counter`.
type loopSeg struct {
	start, end int
	counter    int
	rotate     bool // kernel of a rotating plan: DBNZ bumps the rotating base
}

// loopPayload is the one form every loop takes before emission: fully
// resolved rows plus the segments of them that repeat (a remainder loop,
// a kernel, a compacted body).  The direct paths build one and emit it
// on the spot; loop reduction builds one, hangs it on a scheduling node
// and emits it merged into the enclosing body's rows.
type loopPayload struct {
	rows     []rrow
	segs     []loopSeg // repeated sub-ranges, in row order, disjoint
	counters []int     // dedicated physical counters of a reduced loop, freed on rollback
	rotating bool      // rows use the (single, global) rotating register base
}

// drain appends n empty rows (n ≤ 0: none).
func (p *loopPayload) drain(n int) {
	for i := 0; i < n; i++ {
		p.rows = append(p.rows, rrow{})
	}
}

// closeRegion is the one way a region ends: p's rows, each segment
// repeating on its counter, then one empty word for every cycle a register
// write-back issued in them is still in flight.  Its successor issues as
// if nothing preceded it and its registers are released behind their last
// write: the pipelines are emptied at a region boundary (Lam §2), not
// idled for the machine's longest latency.
func (e *emitter) closeRegion(p *loopPayload) {
	p.drain(e.landing(p.rows) - len(p.rows))
	e.emitSegs(p)
}

// landing is the row, relative to rows[0], at which the last register
// write-back issued in rows has landed.  Both arms of every construct
// count; rows that repeat are taken once, in place, since whatever
// follows a loop follows its last pass.
func (e *emitter) landing(rows []rrow) int {
	last := 0
	for i, r := range rows {
		for _, op := range r.ops {
			if op.Class.Info().Dst != machine.FileNone {
				last = max(last, i+e.m.Latency(op.Class))
			}
		}
		if c := r.cons; c != nil {
			last = max(last, i+1+e.landing(c.thenRows), i+1+e.landing(c.elseRows))
		}
	}
	return last
}

// pendElse is an out-of-line ELSE block awaiting emission: the JZ to
// patch, the join instruction its trailing jump returns to, and its rows.
type pendElse struct {
	jz   int
	join int
	rows []rrow
}

// resolveConstruct maps a reduced conditional's payload to physical
// registers for one relative iteration.
func (e *emitter) resolveConstruct(p *hier.IfPayload, iter int, plan *pipeline.Plan) *rcons {
	condCopy := 0
	if plan != nil {
		condCopy = plan.CopyIndex(p.Cond, iter)
	}
	c := &rcons{
		cond:     e.physReg(p.Cond, condCopy),
		condRing: e.ringFor(p.Cond, iter, plan),
		length:   p.Len,
		thenRows: make([]rrow, p.Len-1),
		elseRows: make([]rrow, p.Len-1),
	}
	e.resolveArm(c.thenRows, p.Then, iter, plan)
	e.resolveArm(c.elseRows, p.Else, iter, plan)
	return c
}

func (e *emitter) resolveArm(rows []rrow, arm []hier.Placed, iter int, plan *pipeline.Plan) {
	for _, pl := range arm {
		if pl.Node.Op != nil {
			rows[pl.Time].ops = append(rows[pl.Time].ops, e.slotFor(pl.Node.Op, iter, plan))
			continue
		}
		nested := pl.Node.Payload.(*hier.IfPayload)
		if rows[pl.Time].cons != nil {
			e.fail(fmt.Errorf("codegen: two constructs start in the same arm row"))
			return
		}
		rows[pl.Time].cons = e.resolveConstruct(nested, iter, plan)
	}
}

// mergeRows combines outer rows (ops scheduled in parallel with a
// construct window) with one arm's rows: the result carries the union of
// slot ops and the arm's nested constructs.  Outer rows inside a window
// can hold neither control nor constructs (windows are disjoint and never
// cover the loop-back cycle).
func (e *emitter) mergeRows(outer, arm []rrow) []rrow {
	merged := make([]rrow, len(outer))
	for i := range outer {
		if outer[i].ctl.Kind != vliw.CtlNone || outer[i].cons != nil {
			e.fail(fmt.Errorf("codegen: construct window overlaps control at row %d", i))
			return merged
		}
		if ops := e.slots.Take(len(outer[i].ops) + len(arm[i].ops)); ops != nil {
			merged[i].ops = ops
			copy(ops[copy(ops, outer[i].ops):], arm[i].ops)
		} else {
			merged[i].ops = []vliw.SlotOp{}
		}
		merged[i].cons = arm[i].cons
	}
	return merged
}

// emitRows appends one instruction per row, expanding conditional
// constructs: the fork row carries a JZ to the out-of-line ELSE block
// (emitted later by flushPends), the THEN arm merges into the fall-through
// rows, and both paths rejoin after the window with identical timing.
func (e *emitter) emitRows(rows []rrow) {
	for i := 0; i < len(rows); i++ {
		r := rows[i]
		if r.cons == nil {
			e.append(vliw.Instr{Ops: r.ops, Ctl: r.ctl})
			continue
		}
		c := r.cons
		if r.ctl.Kind != vliw.CtlNone {
			e.fail(fmt.Errorf("codegen: construct start row carries control"))
			return
		}
		if i+c.length > len(rows) {
			e.fail(fmt.Errorf("codegen: construct window exceeds region (row %d len %d of %d)", i, c.length, len(rows)))
			return
		}
		jz := len(e.out)
		e.append(vliw.Instr{Ops: r.ops, Ctl: vliw.Ctl{Kind: vliw.CtlJZ, Reg: c.cond, RegRing: c.condRing}})
		inner := rows[i+1 : i+c.length]
		e.emitRows(e.mergeRows(inner, c.thenRows))
		join := len(e.out)
		if c.length == 1 {
			e.out[jz].Ctl.Target = join
		} else {
			e.pends = append(e.pends, pendElse{jz: jz, join: join, rows: e.mergeRows(inner, c.elseRows)})
		}
		i += c.length - 1
	}
}

// emitSegs emits a loop's rows, closing each repeated segment with its
// loop-back DBNZ in the segment's final row (whose sequencer field the
// builder left free).
func (e *emitter) emitSegs(p *loopPayload) {
	cursor := 0
	for _, sg := range p.segs {
		e.emitRows(p.rows[cursor:sg.start])
		p.rows[sg.end-1].ctl = vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: sg.counter, Target: len(e.out), Rotate: sg.rotate}
		e.emitRows(p.rows[sg.start:sg.end])
		cursor = sg.end
	}
	e.emitRows(p.rows[cursor:])
}

// flushPends emits every deferred ELSE block (and any blocks their nested
// constructs defer).  Call after the main instruction stream is complete:
// blocks are reached only via their JZ and leave only via their final
// jump, so placement after the halt is safe.
func (e *emitter) flushPends() {
	for len(e.pends) > 0 {
		p := e.pends[0]
		e.pends = e.pends[1:]
		e.out[p.jz].Ctl.Target = len(e.out)
		e.emitRows(p.rows)
		last := len(e.out) - 1
		if e.out[last].Ctl.Kind != vliw.CtlNone {
			e.fail(fmt.Errorf("codegen: ELSE block tail already carries control"))
			return
		}
		e.out[last].Ctl = vliw.Ctl{Kind: vliw.CtlJump, Target: p.join}
	}
}
