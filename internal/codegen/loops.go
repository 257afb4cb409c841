package codegen

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"softpipe/internal/depgraph"
	"softpipe/internal/hier"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/pipeline"
	"softpipe/internal/schedule"
	"softpipe/internal/vliw"
)

// emitLoop compiles one loop, software pipelining it when the mode and
// loop shape allow, otherwise falling back to locally compacted code
// ("when we run out of registers, we then resort to simple techniques
// that serialize the execution of loop iterations", Lam §2.3).
func (e *emitter) emitLoop(l *ir.LoopStmt) {
	if e.opts.Ctx != nil {
		if err := e.opts.Ctx.Err(); err != nil {
			e.fail(fmt.Errorf("codegen: compile aborted before loop %d: %w", l.ID, err))
			return
		}
	}
	static := l.CountReg == ir.NoReg
	rep := e.newLoopReport(l)
	done := false
	switch {
	case l.NoPipeline:
		rep.notScheduled("nopipeline pragma")
	case e.opts.Mode != ModePipelined:
		rep.Explain = &schedule.Explain{PreFailure: "unpipelined baseline"}
	case static && l.CountImm <= 0:
		rep.notScheduled("zero trip count")
		done = true
	case static && blockHasInnerLoop(l.Body):
		// A nest never reaches the II search: its body is schedulable only
		// with its inner loops reduced (Lam §3.2), and then by list
		// scheduling.  Overlap and a rollback each replace the reason with
		// their own, and the report says which happened.
		rep.notScheduled(hier.ErrLoopInside.Error())
		done = !e.opts.DisableLoopReduction && !e.opts.DisableHier && e.tryOverlapped(l, &rep)
		rep.Explain.PreFailure = rep.Reason
	case static:
		done = e.tryPipelined(l, &rep)
	default:
		done = e.tryPipelinedRuntime(l, &rep)
	}
	if !done {
		e.emitUnpipelinedLoop(l, &rep)
	}
	e.report.Loops = append(e.report.Loops, rep)
}

// newLoopReport starts a loop's report with what is known before any
// planning; every path that reports a loop starts here.
func (e *emitter) newLoopReport(l *ir.LoopStmt) LoopReport {
	rep := LoopReport{
		LoopID: l.ID, BodyOps: blockOps(l.Body), TripCount: -1,
		HasCond: blockHasCond(l.Body), Flops: blockFlops(l.Body, e.m),
	}
	if l.CountReg == ir.NoReg {
		rep.TripCount = l.CountImm
	}
	return rep
}

// pipelinedWith records the accepted plan the loop was emitted from,
// whichever path emitted it.
func (rep *LoopReport) pipelinedWith(plan *pipeline.Plan) {
	rep.Pipelined = true
	rep.II = plan.II
	rep.MetLower = plan.SchedStats.MetLower
	rep.Unroll = plan.Unroll
	rep.Stages = plan.Stages
	rep.kernel = plan.Kernel()
}

// notScheduled records why the loop never reached the II search; that is
// all its explain report says.
func (rep *LoopReport) notScheduled(reason string) {
	rep.Reason = reason
	rep.Explain = &schedule.Explain{PreFailure: reason}
}

// planFailed records why a body did not plan.  A failed II search carries
// its per-candidate report; any earlier failure (analysis, profitability
// guards, missing resources) is a PreFailure line.
func (rep *LoopReport) planFailed(err error) {
	var ie *schedule.InfeasibleError
	if errors.As(err, &ie) {
		rep.Reason, rep.Explain = err.Error(), ie.Explain
	} else {
		rep.notScheduled(err.Error())
	}
}

// refuse records why a loop whose II search succeeded is not emitted from
// the plan: the search's report stands, and a note on it says so.
func (rep *LoopReport) refuse(reason string) {
	rep.Reason = reason
	rep.Explain.Notes = append(rep.Explain.Notes, "not pipelined: "+reason)
}

func blockHasInnerLoop(b *ir.Block) bool {
	for _, s := range b.Stmts {
		if _, ok := s.(*ir.LoopStmt); ok {
			return true
		}
	}
	return false
}

// blockFlops counts the floating-point operations one execution of the
// block performs, by machine flop weight.  Conditionals count their
// heavier arm (a peak-rate bound); nested loops multiply by their static
// trip count when known.
func blockFlops(b *ir.Block, m *machine.Machine) int {
	total := 0
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ir.OpStmt:
			if d := m.Desc(s.Op.Class); d != nil {
				total += d.Flops
			}
		case *ir.IfStmt:
			th, el := blockFlops(s.Then, m), blockFlops(s.Else, m)
			if el > th {
				th = el
			}
			total += th
		case *ir.LoopStmt:
			inner := blockFlops(s.Body, m)
			if s.CountReg == ir.NoReg && s.CountImm > 0 {
				total += inner * int(s.CountImm)
			} else {
				total += inner
			}
		}
	}
	return total
}

// blockOps counts the operations of the block tree, through conditionals
// and inner loops (each counted once, whatever its trip count).
func blockOps(b *ir.Block) (n int) {
	b.Walk(func(s ir.Stmt) bool {
		if _, isOp := s.(*ir.OpStmt); isOp {
			n++
		}
		return true
	})
	return n
}

func blockHasCond(b *ir.Block) (cond bool) {
	b.Walk(func(s ir.Stmt) bool {
		_, isIf := s.(*ir.IfStmt)
		cond = cond || isIf
		return !cond
	})
	return cond
}

// liveOutOf conservatively collects registers referenced outside the
// loop body (or named as results); expanded registers in this set need
// epilog fix-up moves.  The loop's own count is read on entry, outside;
// the conditions of its own conditionals are not.
func (e *emitter) liveOutOf(l *ir.LoopStmt) map[ir.VReg]bool {
	lo := map[ir.VReg]bool{}
	e.irp.Body.Walk(func(s ir.Stmt) bool {
		switch s := s.(type) {
		case *ir.OpStmt:
			for _, r := range s.Op.Src {
				lo[r] = true
			}
		case *ir.IfStmt:
			lo[s.Cond] = true
		case *ir.LoopStmt:
			if s.CountReg != ir.NoReg {
				lo[s.CountReg] = true
			}
			return s != l
		}
		return true
	})
	for _, r := range e.irp.Results {
		lo[r.Reg] = true
	}
	return lo
}

// tryPipelined plans and emits the software-pipelined form of a loop
// with a compile-time trip count; the body may contain conditionals,
// which hierarchical reduction turns into pseudo-operations (Lam §3.1).
// It reports false (with the reason recorded) when the loop should fall
// back to locally compacted code.
func (e *emitter) tryPipelined(l *ir.LoopStmt, rep *LoopReport) bool {
	nodes, plan, ok := e.planBody(l, false, false, rep)
	if !ok {
		return false
	}
	p := &loopPayload{}
	if !e.countedRows(p, nodes, plan, l.CountImm, rep) {
		return false
	}
	e.closeRegion(p)
	for _, c := range p.counters {
		e.freeI(c)
	}
	e.releaseCopies()
	return true
}

// countedRows appends the pipelined form of a loop of n ≥ 1 iterations,
// n known at compile time, to p, and records how n was split in rep.
// No iteration runs unpipelined: with r, passes = plan.Split(n) the form
// is prolog, kernel × passes and a tail that starts the r left-over
// iterations itself, the pass count loaded in the prolog where a row has
// room for it (counterRow).  A loop too short for one kernel pass is
// its flat schedule — n iterations started II apart, no kernel and no
// counter — when that takes fewer cycles than the unpipelined loop
// (whyNotFlat); otherwise countedRows reports false with the reason
// recorded and p untouched.
func (e *emitter) countedRows(p *loopPayload, nodes []*depgraph.Node, plan *pipeline.Plan, n int64, rep *LoopReport) bool {
	if r, passes, ok := plan.Split(n); ok {
		counter := e.allocI()
		p.counters = append(p.counters, counter)
		start := len(p.rows)
		e.regionRows(p, nodes, plan, counter, int(r))
		load := vliw.SlotOp{Class: machine.ClassIConst, Dst: counter, IImm: passes}
		if at := e.counterRow(nodes, plan); at >= 0 {
			p.rows[start+at].ops = append(p.rows[start+at].ops, load)
		} else {
			p.rows = slices.Insert(p.rows, start, rrow{ops: []vliw.SlotOp{load}})
			p.segs[len(p.segs)-1].start++
			p.segs[len(p.segs)-1].end++
		}
		rep.Passes, rep.Tail = passes, r
	} else if why := e.whyNotFlat(rep.LoopID, nodes, plan, n); why == "" {
		// No loop-back advances a rotating base, so copies are addressed
		// statically: iteration i uses copy i mod Copies, as a ring at base i.
		static := *plan
		static.Rotating = false
		e.tailRows(p, nodes, &static, 0, int(n)-1)
		rep.Flat = true
	} else {
		rep.refuse(fmt.Sprintf("too few iterations (%d) for %d stages, unroll %d", n, plan.Stages, plan.Unroll))
		rep.Explain.Notes = append(rep.Explain.Notes, why)
		rep.Hoisted = 0 // the loop is emitted from its statements, not from the plan
		return false
	}
	rep.pipelinedWith(plan)
	return true
}

// counterRow is the row of plan's region, from its first, that takes the
// kernel's pass-count load: the latest before the kernel where the load's
// units are free and its value lands by the loop-back; -1 when none does
// and the load takes a row of its own in front.  It reads the prolog off
// the plan, so the cycles model (regionForm) and countedRows agree.
func (e *emitter) counterRow(nodes []*depgraph.Node, plan *pipeline.Plan) int {
	rot := 0
	use := machine.Usage{}
	if plan.Rotating {
		rot = 1 // the rotating-base clear
		use.Add(machine.ResBranch, 0, 1)
	}
	prolog := (plan.Stages - 1) * plan.II
	kstart, kend := rot+prolog, rot+prolog+plan.Unroll*plan.II
	for i, nd := range nodes {
		for t := plan.Time[i]; t < prolog; t += plan.II {
			for _, u := range nd.Reservation {
				use.Add(u.Resource, rot+t+u.Offset, 1)
			}
		}
	}
	fits := func(at int) bool {
		for _, u := range e.m.Desc(machine.ClassIConst).Reservation {
			if at+u.Offset >= kstart || use[machine.ResUse{Resource: u.Resource, Offset: at + u.Offset}] >= e.m.ResourceCount[u.Resource] {
				return false
			}
		}
		return at+e.m.Latency(machine.ClassIConst) <= kend-1
	}
	for at := kstart - 1; at >= 0; at-- {
		if fits(at) {
			return at
		}
	}
	return -1
}

// whyNotFlat says why n iterations of loop are not its flat schedule, ""
// when they are: when that is shorter than the unpipelined loop, which with
// a conditional is control flow of data-dependent length, never offered.
func (e *emitter) whyNotFlat(loop int, nodes []*depgraph.Node, plan *pipeline.Plan, n int64) string {
	if slices.ContainsFunc(nodes, func(nd *depgraph.Node) bool { return nd.Op == nil }) {
		return "flat schedule not offered: the body has a conditional"
	}
	flat, unpipelined := e.compare("codegen.flat", loop, e.planForm(0, nodes, plan, int(n), false), e.repeatedForm(1, nodes, plan.Compact.Time, plan.Period), n)
	if flat < unpipelined {
		return ""
	}
	return fmt.Sprintf("flat schedule not taken: %d cycles ≥ %d unpipelined", flat, unpipelined)
}

// form is one way to emit a loop, as the cycles model sees it: lead cycles
// before its first iteration, period cycles from one iteration's start to
// the next's, and last cycles from the last one's start until everything
// it wrote has landed.  The back end's keep-the-shorter choices — whyNotFlat
// (Lam §2.4), tryRotation (§3.2) and keepFaster (the searched plan or the
// heuristic's) — compare cycles(form, n) before any form is emitted;
// TestCyclesModelPredictsSimulator pins it.
type form struct{ lead, period, last int }

// cycles is what n ≥ 1 iterations of f take.
func cycles(f form, n int64) int64 { return int64(f.lead) + (n-1)*int64(f.period) + int64(f.last) }

// repeatedForm is a body issuing nodes at time, repeated at period after lead
// cycles: the unpipelined loop behind its counter load, an outer body
// behind its peel (the outer counter load, in both forms, is left out).
func (e *emitter) repeatedForm(lead int, nodes []*depgraph.Node, time []int, period int) form {
	_, landed := e.span(nodes, time)
	return form{lead, period, max(period, landed)}
}

// planForm is n iterations of plan started II apart after lead cycles,
// then the drain and iteration n-1's live-out fix-up moves, one a row,
// through the rotating base when rotating (lead 0, static: the flat form).
func (e *emitter) planForm(lead int, nodes []*depgraph.Node, plan *pipeline.Plan, n int, rotating bool) form {
	_, landed := e.span(nodes, plan.Time)
	moves := fixupRegs(plan, n-1, rotating)
	last := landed + len(moves)
	for i, reg := range moves {
		last = max(last, landed+i+e.m.Latency(e.movClass(reg)))
	}
	return form{lead, plan.II, last}
}

// regionForm is plan's counted region of n iterations (regionRows),
// behind the rotating-base clear and the pass-count row, if emitted.
func (e *emitter) regionForm(nodes []*depgraph.Node, plan *pipeline.Plan, n int) form {
	lead := 0
	if plan.Rotating {
		lead++
	}
	if e.counterRow(nodes, plan) < 0 {
		lead++
	}
	return e.planForm(lead, nodes, plan, n, plan.Rotating)
}

// compare is one choice between forms a and b of a loop: what n iterations
// take as each.  A trace records it as a span named for the choice.
func (e *emitter) compare(choice string, loop int, a, b form, n int64) (int64, int64) {
	ca, cb := cycles(a, n), cycles(b, n)
	e.opts.Tracer.Begin(choice).Arg("loop", int64(loop)).Arg("cycles", ca).Arg("against", cb).End()
	return ca, cb
}

// span measures one iteration of a schedule of nodes (time[i] is node i's
// issue cycle): extent is the cycle after its last node ends, landed
// (≥ extent) the cycle by which all it wrote has landed, by the one
// per-node rule: a reduced loop where its rows' last write-back lands
// (landing), any other node at its writes' AvailLast.  An earlier
// iteration lands earlier, so landed−extent empty rows behind the last
// one leave nothing in flight.
func (e *emitter) span(nodes []*depgraph.Node, time []int) (extent, landed int) {
	for i, nd := range nodes {
		extent = max(extent, time[i]+schedule.Extent(nd))
		if p, ok := nd.Payload.(*loopPayload); ok {
			landed = max(landed, time[i]+e.landing(p.rows))
			continue
		}
		for _, w := range nd.Writes {
			landed = max(landed, time[i]+w.AvailLast)
		}
	}
	return extent, max(extent, landed)
}

// planBody reduces the loop body to scheduling nodes and plans its
// pipelining; shared by the static path, the runtime (two-version) path,
// which wants a power-of-two unroll, and loop reduction, which keeps
// marginal schedules (II within 99% of the unpipelined period) because
// its payoff is prolog/epilog overlap, not steady-state speed.
//
// Conditionals are reduced with their arm-private pure operations lifted
// out (hier.Reducer).  That shortens the indivisible windows, and with
// them the floor they put under II, but it is not always the better
// body: the lifted operations now run on every iteration and lengthen
// the schedule.  The whole-arm form of Lam §3.1 is planned as well, and
// kept, when the lifted body does not pipeline, is too short in
// iterations for its own stages, or loses to it (wholeWins: a lower II).
// That last plan is made only where the lifted II is above the whole-arm
// body's floor (pipeline.Body.Floor, the II its search would start
// from), so only where it could land on a lower II.  The part of the
// floor the nodes give (pipeline.ResourceFloor) is read first, and the
// body is built only where the lifted II is above that.
func (e *emitter) planBody(l *ir.LoopStmt, powerOfTwo, keepMarginal bool, rep *LoopReport) ([]*depgraph.Node, *pipeline.Plan, bool) {
	base := *rep
	reduce := func(lift bool, rep *LoopReport) ([]*depgraph.Node, int, bool) {
		nodes, hoisted, err := e.red.Reduce(l.ID, l.Body, lift)
		if err != nil {
			rep.notScheduled(err.Error())
		}
		return nodes, hoisted, err == nil
	}
	// runs reports whether the plan has an emitted form for the loop's
	// trip count (countedRows); a run-time count always has one.
	runs := func(nodes []*depgraph.Node, plan *pipeline.Plan) bool {
		_, _, ok := plan.Split(l.CountImm)
		return l.CountReg != ir.NoReg || ok || e.whyNotFlat(l.ID, nodes, plan, l.CountImm) == ""
	}

	lift := !e.opts.WholeArms && !e.opts.DisableHier
	nodes, hoisted, ok := reduce(lift, rep)
	if !ok {
		return nil, nil, false
	}
	plan, ok := e.planNodes(l, e.reducedBody(l, nodes, powerOfTwo, keepMarginal, rep), !lift, rep)
	if hoisted == 0 {
		return nodes, plan, ok
	}
	fits := ok && runs(nodes, plan)
	sp := e.opts.Tracer.Begin("codegen.wholearm").Arg("loop", int64(l.ID))
	if ok {
		sp.Arg("ii", int64(plan.II))
	}
	outcome := wholeSkipped
	wrep := base
	if whole, _, wok := reduce(false, &wrep); wok {
		var why string
		var wb loopBody // the whole-arm body, built once for its floor and its plan
		switch {
		case !ok:
			why = "the lifted body does not pipeline (" + rep.Reason + ")"
		case !fits:
			why = fmt.Sprintf("the lifted body's %d stages are too many for %d iterations", plan.Stages, l.CountImm)
		default:
			// Planned only where it could land below the lifted II, and no
			// plan lands below the body's floor: first the part of it the
			// nodes give, then, where the lifted II is above that, all of
			// it, which needs the body built.  A floor that cannot be had
			// means a plan that cannot be had either.
			floor, err := pipeline.ResourceFloor(whole, e.m)
			if err == nil && plan.II > floor {
				if wb = e.reducedBody(l, whole, powerOfTwo, keepMarginal, &wrep); wb.body != nil {
					floor, err = wb.body.Floor(wb.opts)
				}
			}
			if err == nil {
				sp.Arg("floor", int64(floor))
				if plan.II > floor {
					why = fmt.Sprintf("the lifted body lands on II %d", plan.II)
				}
			}
		}
		if wb.body == nil && (why != "" || wholeArmProbe != nil) {
			wb = e.reducedBody(l, whole, powerOfTwo, keepMarginal, &wrep)
		}
		if wholeArmProbe != nil && wb.body != nil {
			wholeArmProbe(l.ID, e.m, wb.body, wb.opts, why == "")
		}
		if why != "" {
			outcome = wholePlanned
			wplan, planned := e.planNodes(l, wb, true, &wrep)
			if planned && runs(whole, wplan) && (!fits || e.wholeWins(l, whole, wplan, nodes, plan)) {
				sp.Arg("outcome", wholeKept).End()
				wrep.Explain.Notes = append(wrep.Explain.Notes, "whole-arm conditionals kept: "+why)
				*rep = wrep
				return whole, wplan, true
			}
		}
	}
	sp.Arg("outcome", outcome).End()
	if ok {
		rep.Hoisted = hoisted
		e.opts.Tracer.Count("hier.hoisted_ops", int64(hoisted))
	}
	return nodes, plan, ok
}

// wholeWins: a whole-arm plan beats the lifted one with a lower II, and,
// where the exact search scheduled either, fewer cycles.
func (e *emitter) wholeWins(l *ir.LoopStmt, whole []*depgraph.Node, wplan *pipeline.Plan, lifted []*depgraph.Node, plan *pipeline.Plan) bool {
	if wplan.II >= plan.II {
		return false
	}
	if l.CountReg == ir.NoReg && (plan.SchedStats.Exact || wplan.SchedStats.Exact) {
		cw, okW := e.loopCycles(whole, wplan, l.CountImm)
		if cl, okL := e.loopCycles(lifted, plan, l.CountImm); okW && okL {
			return cw < cl
		}
	}
	return true
}

// wholeArmProbe, when set (by tests), is shown every whole-arm body
// planBody builds for a loop, with the options it is planned under and
// whether its plan was skipped.
var wholeArmProbe func(loop int, m *machine.Machine, b *pipeline.Body, opts pipeline.Options, skipped bool)

// The outcomes a codegen.wholearm span records: the whole-arm body was
// not planned (it cannot win), planned and not kept, or kept.
const (
	wholeSkipped int64 = iota
	wholePlanned
	wholeKept
)

// pipelineIntRegs is the int registers a pipelined loop's own code claims
// beside its body's: tryPipelinedRuntime's trip-count temporary, branch
// condition, remainder, kernel-pass counter and its stages−1 and unroll
// constants.  The copy budget leaves them free and regsFit counts them.
const pipelineIntRegs = 6

// loopBody is one reduced body of a loop, built and ready to plan: its
// pipeline.Body, the options its plan is made under (the copy budget
// included), and how many float and int registers it names that have no
// physical register yet.
type loopBody struct {
	body         *pipeline.Body
	opts         pipeline.Options
	needF, needI int
}

// reducedBody builds the body of a loop reduced to nodes for planNodes,
// or records in rep why it cannot be planned and returns one without a
// body.
func (e *emitter) reducedBody(l *ir.LoopStmt, nodes []*depgraph.Node, powerOfTwo, keepMarginal bool, rep *LoopReport) loopBody {
	if e.opts.DisableHier {
		for _, nd := range nodes {
			if nd.Payload != nil {
				rep.notScheduled("conditional construct (hierarchical reduction disabled)")
				return loopBody{}
			}
		}
	}
	baseRegs := map[ir.VReg]bool{}
	for _, nd := range nodes {
		for _, rd := range nd.Reads {
			baseRegs[rd.Reg] = true
		}
		for _, w := range nd.Writes {
			baseRegs[w.Reg] = true
		}
	}
	needF, needI := e.unmapped(baseRegs)
	baseF, baseI := e.regsNeeded(needF, needI)
	plOpts := pipeline.Options{
		Ctx:              e.opts.Ctx,
		Policy:           e.opts.Policy,
		DisableMVE:       e.opts.DisableMVE,
		HeuristicOnly:    e.opts.HeuristicOnly,
		LiveOut:          e.liveOutOf(l),
		IndependentMem:   l.Independent,
		PowerOfTwoUnroll: powerOfTwo,
		CopyBudgetF:      e.m.FloatRegs - baseF,
		CopyBudgetI:      e.m.IntRegs - baseI - pipelineIntRegs,
		RegKind:          e.irp.Kind,
		KeepMarginal:     keepMarginal,
		Tracer:           e.opts.Tracer,
	}
	body, err := pipeline.NewBody(e.opts.Ctx, nodes, l.ID, e.m, l.Independent)
	if err != nil {
		rep.planFailed(err)
		return loopBody{}
	}
	return loopBody{body, plOpts, needF, needI}
}

// planNodes plans the pipelining of a reduced body (none: reducedBody
// refused it), applying the register copy budget, keeps the faster of the
// search's plan and the heuristic's (keepFaster), and records the outcome
// in rep.  whole says which form the body is, for the codegen.plan span.
func (e *emitter) planNodes(l *ir.LoopStmt, lb loopBody, whole bool, rep *LoopReport) (*pipeline.Plan, bool) {
	if lb.body == nil {
		return nil, false
	}
	form := int64(0)
	if whole {
		form = 1
	}
	sp := e.opts.Tracer.Begin("codegen.plan").Arg("loop", int64(l.ID)).Arg("whole", form).Arg("nodes", int64(len(lb.body.Nodes)))
	e.bodies[l] = lb.body
	plan, err := lb.body.Plan(lb.opts)
	if err != nil {
		sp.End()
		rep.planFailed(err)
		return nil, false
	}
	sp.Arg("ii", int64(plan.II)).End()
	plan = e.keepFaster(l, lb, plan)
	rep.MII = plan.MII
	rep.ResMII = plan.ResMII
	rep.RecMII = plan.RecMII
	rep.HasRecur = plan.HasRecurrence
	rep.Explain = plan.Explain
	if st := plan.SchedStats; st != nil {
		rep.Proved = st.Proved
		rep.FellBack = st.FellBack
	}
	if !e.regsFit(lb, plan) {
		rep.refuse("register files too small for modulo variable expansion")
		return nil, false
	}
	rep.Rotating = plan.Rotating
	rep.CopyRegsF, rep.CopyRegsI = plan.CopyRegs(e.irp.Kind)
	return plan, true
}

// regsFit reports whether the register files hold the body's registers,
// the plan's expanded copies and the loop's counters.
func (e *emitter) regsFit(lb loopBody, plan *pipeline.Plan) bool {
	cf, ci := plan.CopyRegs(e.irp.Kind)
	peakF, peakI := e.regsNeeded(lb.needF+cf, lb.needI+ci+pipelineIntRegs)
	return peakF <= e.m.FloatRegs && peakI <= e.m.IntRegs
}

// keepFaster chooses between the searched plan and, where the search
// landed below the heuristic's II, the heuristic's (plan.Heuristic): the
// searched plan only if it fits the register files, the trip count is
// known and the cycles model says it is faster.  At a run-time count the
// heuristic's plan is kept, never slower than the heuristic alone.  The
// kept plan's explain report says which and why.
func (e *emitter) keepFaster(l *ir.LoopStmt, lb loopBody, plan *pipeline.Plan) *pipeline.Plan {
	h := plan.Heuristic
	if h == nil {
		return plan
	}
	var keep bool
	var why string
	switch nodes := lb.body.Nodes; {
	case !e.regsFit(lb, plan) || !e.regsFit(lb, h):
		keep, why = e.regsFit(lb, plan), "the other does not fit the register files"
	case l.CountReg != ir.NoReg:
		why = "the trip count is a run-time value"
	default:
		cs, okS := e.loopCycles(nodes, plan, l.CountImm)
		ch, okH := e.loopCycles(nodes, h, l.CountImm)
		why = "a plan too short for a kernel pass leaves a conditional body unpipelined, which the model does not price"
		if okS && okH {
			keep, why = cs < ch, fmt.Sprintf("%d iterations take %d cycles at the searched II %d, %d at the heuristic's II %d", l.CountImm, cs, plan.II, ch, h.II)
		}
	}
	kept, name := h, "heuristic's"
	if keep {
		kept, name = plan, "searched"
	}
	kept.Explain.Notes = append(kept.Explain.Notes, fmt.Sprintf("kept the %s plan (II %d): %s", name, kept.II, why))
	return kept
}

// loopCycles is what n iterations take as countedRows emits plan: its
// region, else the shorter of its flat schedule and the unpipelined loop;
// false when that is the control flow of a body with a conditional.
func (e *emitter) loopCycles(nodes []*depgraph.Node, plan *pipeline.Plan, n int64) (int64, bool) {
	if _, _, ok := plan.Split(n); ok {
		return cycles(e.regionForm(nodes, plan, int(n)), n), true
	}
	if slices.ContainsFunc(nodes, func(nd *depgraph.Node) bool { return nd.Op == nil }) {
		return 0, false
	}
	return min(cycles(e.planForm(0, nodes, plan, int(n), false), n), cycles(e.repeatedForm(1, nodes, plan.Compact.Time, plan.Period), n)), true
}

// tryPipelinedRuntime implements the two-version scheme of Lam §2.4 for
// loops whose trip count is a run-time value: if n < (stages-1)+unroll
// the unpipelined version runs all n iterations; otherwise
// r = (n-(stages-1)) mod unroll iterations run unpipelined and the rest
// on the pipelined loop.  The unroll degree is rounded to a power of two
// so the remainder is a mask and the pass count a shift.
func (e *emitter) tryPipelinedRuntime(l *ir.LoopStmt, rep *LoopReport) bool {
	nodes, plan, ok := e.planBody(l, true, false, rep)
	if !ok {
		return false
	}
	mm, u := plan.Stages, plan.Unroll
	log2u := 0
	for 1<<log2u < u {
		log2u++
	}
	if 1<<log2u != u {
		rep.refuse(fmt.Sprintf("internal: unroll %d not a power of two", u))
		return false
	}

	nPhys := e.physReg(l.CountReg, 0)
	t1 := e.allocI()
	cond := e.allocI()
	rreg := e.allocI()
	counter := e.allocI()
	m1c := e.allocI()
	uc := e.allocI()

	// t1 = n - (stages-1); if t1 < unroll, run everything unpipelined.
	e.append(vliw.Instr{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: m1c, IImm: int64(mm - 1)}}})
	e.append(vliw.Instr{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: uc, IImm: int64(u)}}})
	e.append(vliw.Instr{Ops: []vliw.SlotOp{{Class: machine.ClassISub, Dst: t1, Src: [3]int32{nPhys, m1c}}}})
	e.append(vliw.Instr{Ops: []vliw.SlotOp{{Class: machine.ClassICmp, Dst: cond, Src: [3]int32{t1, uc}, IImm: int64(ir.PredLT)}}})
	guardAt := len(e.out)
	e.append(vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlJNZ, Reg: cond}})

	// Remainder r = t1 & (u-1), run unpipelined first when nonzero.
	// With unroll 1 (always the case on rotating machines, and common
	// when copy counts stay at one) the remainder is identically zero
	// and the masked loop would be dead code.
	if u > 1 {
		e.append(vliw.Instr{Ops: []vliw.SlotOp{{Class: machine.ClassIAnd, Dst: rreg, Src: [3]int32{t1}, IImm: int64(u - 1)}}})
		skipRemAt := len(e.out)
		e.append(vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlJZ, Reg: rreg}})
		e.emitLoopBody(l, rreg, nil)
		e.out[skipRemAt].Ctl.Target = e.next()
		if e.err != nil {
			return false
		}
	}

	// Kernel passes = t1 >> log2(u) (the masked-off remainder already ran).
	e.append(vliw.Instr{Ops: []vliw.SlotOp{{Class: machine.ClassIShr, Dst: counter, Src: [3]int32{t1}, IImm: int64(log2u)}}})
	p := &loopPayload{}
	e.regionRows(p, nodes, plan, counter, 0)
	e.closeRegion(p)
	doneJmpAt := len(e.out)
	e.append(vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlJump}})

	// The unpipelined version for short counts.
	e.out[guardAt].Ctl.Target = e.next()
	e.emitUnpipelinedLoop(l, nil)
	e.out[doneJmpAt].Ctl.Target = e.next()

	e.freeI(t1)
	e.freeI(cond)
	e.freeI(rreg)
	e.freeI(counter)
	e.freeI(m1c)
	e.freeI(uc)
	e.releaseCopies()
	rep.pipelinedWith(plan)
	return true
}

// scheduleRow resolves cycle t of the plan's flat (unrolled-forever)
// schedule, keeping only iterations below bound when bound ≥ 0.
func (e *emitter) scheduleRow(nodes []*depgraph.Node, plan *pipeline.Plan, t, bound int) rrow {
	row := rrow{}
	ops := e.rowOps[:0]
	for i, nd := range nodes {
		sigma := plan.Time[i]
		if t < sigma || (t-sigma)%plan.II != 0 {
			continue
		}
		iter := (t - sigma) / plan.II
		if bound >= 0 && iter >= bound {
			continue
		}
		if nd.Op != nil {
			ops = append(ops, e.slotFor(nd.Op, iter, plan))
			continue
		}
		if row.cons != nil {
			e.fail(fmt.Errorf("codegen: overlapping construct windows at cycle %d", t))
			continue
		}
		row.cons = e.resolveConstruct(nd.Payload.(*hier.IfPayload), iter, plan)
	}
	row.ops = e.slots.Copy(ops)
	e.rowOps = ops
	return row
}

// regionRows appends one pipelined region to p: the rotating-base clear,
// the prolog, the kernel as a segment repeated on counter (which must
// hold the number of kernel passes ≥ 1 when the region is entered), and
// the tail (tailRows).  The tail is the epilog generalised: it starts `tail` more
// iterations (0 ≤ tail < Unroll, the remainder of Plan.Split) II apart
// while the pipeline empties — after any number of kernel passes the
// copy alignment is the one at the end of the prolog, so the flat
// schedule simply continues.  With tail 0 the rows are count-independent
// and serve the two-version scheme's run-time pass count.
func (e *emitter) regionRows(p *loopPayload, nodes []*depgraph.Node, plan *pipeline.Plan, counter int32, tail int) {
	sp := e.opts.Tracer.Begin("codegen.rows")
	mm, u, s := plan.Stages, plan.Unroll, plan.II
	if plan.Rotating {
		// The region may be re-entered (enclosing loop, two-version
		// scheme), so the rotating base starts from a known zero.
		p.rows = append(p.rows, rrow{ctl: vliw.Ctl{Kind: vliw.CtlRotClear}})
		p.rotating = true
	}
	t0 := (mm - 1) * s
	p.rows = slices.Grow(p.rows, t0+u*s)
	for t := 0; t < t0; t++ { // prolog
		p.rows = append(p.rows, e.scheduleRow(nodes, plan, t, -1))
	}
	kstart := len(p.rows)
	for t := t0; t < t0+u*s; t++ { // kernel
		p.rows = append(p.rows, e.scheduleRow(nodes, plan, t, -1))
	}
	p.segs = append(p.segs, loopSeg{start: kstart, end: len(p.rows), counter: counter, rotate: plan.Rotating})
	sp.End()
	e.tailRows(p, nodes, plan, t0, mm-2+tail) // iterations mm-1 .. mm-2+tail start, none after
}

// tailRows appends the plan's flat schedule from cycle from to the end of
// iteration last, starting none after it, then a drain of exactly what is
// still in flight (span) and last's live-out fix-up moves: the tail of a
// pipelined region, and the whole of a flat one.
func (e *emitter) tailRows(p *loopPayload, nodes []*depgraph.Node, plan *pipeline.Plan, from, last int) {
	defer e.opts.Tracer.Begin("codegen.rows").End()
	extent, landed := e.span(nodes, plan.Time)
	p.rows = slices.Grow(p.rows, max(0, last*plan.II+landed-from)+len(plan.Fixups))
	for t := from; t < last*plan.II+extent; t++ {
		p.rows = append(p.rows, e.scheduleRow(nodes, plan, t, last+1))
	}
	p.drain(landed - extent)
	p.rows = append(p.rows, e.fixupRows(plan, last)...)
}

// fixupRegs lists the live-out registers a pipelined loop must move from
// its final iteration's copy to the base register; class ≥ 0 is that
// iteration's unroll class.  Addressed statically the class picks the
// copy, and copy 0 is the base register itself; through a rotating base
// the copy depends on the pass count, so every register with copies moves.
func fixupRegs(plan *pipeline.Plan, class int, rotating bool) []ir.VReg {
	var regs []ir.VReg
	for _, reg := range plan.Fixups {
		if plan.Copies[reg] > 1 && (rotating || plan.CopyIndex(reg, class) != 0) {
			regs = append(regs, reg)
		}
	}
	return regs
}

func (e *emitter) movClass(reg ir.VReg) machine.Class {
	if e.irp.Kind(reg) == ir.KindFloat {
		return machine.ClassFMov
	}
	return machine.ClassIMov
}

// fixupRows builds the live-out fix-up moves of a pipelined loop whose
// final iteration is relative iteration `last` ≥ -1 (-1 is the last
// iteration of a kernel pass, class Unroll-1; copy counts divide the
// unroll), one move a row.  A rotating plan's move reads through a ring
// at the region's final rotating base.
func (e *emitter) fixupRows(plan *pipeline.Plan, last int) []rrow {
	class := last
	if class < 0 {
		class += plan.Unroll
	}
	var rows []rrow
	for _, reg := range fixupRegs(plan, class, plan.Rotating) {
		mov := vliw.SlotOp{Class: e.movClass(reg), Dst: e.physReg(reg, 0)}
		if ring := e.ringFor(reg, last, plan); ring != nil {
			mov.Src[0], mov.Rings = ring[0], &vliw.Rings{Src: [3][]int32{ring}}
		} else {
			mov.Src[0] = e.physReg(reg, plan.CopyIndex(reg, class))
		}
		rows = append(rows, rrow{ops: []vliw.SlotOp{mov}})
	}
	return rows
}

// emitUnpipelinedLoop lowers a loop as locally compacted code: the body
// is compacted (list-scheduled) but iterations never overlap; the period
// is padded so every inter-iteration dependence drains (the pipelines are
// emptied at iteration boundaries, Lam §2).
func (e *emitter) emitUnpipelinedLoop(l *ir.LoopStmt, rep *LoopReport) {
	if l.CountReg == ir.NoReg {
		if l.CountImm > 0 {
			counter := e.allocI()
			e.append(vliw.Instr{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: counter, IImm: l.CountImm}}})
			e.emitLoopBody(l, counter, rep)
			e.freeI(counter)
		}
		return
	}

	// Runtime trip count: guard against zero/negative counts, then loop
	// on a dedicated down-counter.
	count := e.physReg(l.CountReg, 0)
	zero := e.allocI()
	cond := e.allocI()
	counter := e.allocI()
	e.append(vliw.Instr{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: zero, IImm: 0}}})
	e.append(vliw.Instr{Ops: []vliw.SlotOp{{Class: machine.ClassIMov, Dst: counter, Src: [3]int32{count}}}})
	e.append(vliw.Instr{Ops: []vliw.SlotOp{{Class: machine.ClassICmp, Dst: cond, Src: [3]int32{count, zero}, IImm: int64(ir.PredLE)}}})
	guardAt := len(e.out)
	e.append(vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlJNZ, Reg: cond}})
	e.emitLoopBody(l, counter, rep)
	e.out[guardAt].Ctl.Target = e.next()
	e.freeI(zero)
	e.freeI(cond)
	e.freeI(counter)
}

// emitLoopBody emits the unpipelined loop over l's body on a counter the
// caller has loaded.  A straight-line body is compacted and padded to
// the dependence period, with the loop-back DBNZ in its final cycle;
// anything else is compiled recursively.
func (e *emitter) emitLoopBody(l *ir.LoopStmt, counter int32, rep *LoopReport) {
	ops, straight := l.Body.Ops()
	if !straight {
		e.emitGenericLoopBody(l, counter, rep)
		return
	}
	rows, err := e.compactRows(ops, l)
	if err != nil {
		e.fail(err)
		return
	}
	e.closeRegion(&loopPayload{rows: rows, segs: []loopSeg{{end: len(rows), counter: counter}}})
	if rep != nil && !rep.Pipelined && rep.II == 0 {
		rep.II = len(rows)
	}
}

// compactRows list-schedules a straight-line run of ops and resolves it
// to rows, recycling block-local registers (localAssign).  With l nil
// the run is a basic block: one row per cycle of the schedule.  With l
// set it is that loop's whole body, scheduled under the loop's own
// dependences and padded to the period at which every inter-iteration
// dependence has drained, so the rows can repeat as a segment.  A caller
// that repeats the rows claims its loop counter BEFORE calling:
// localAssign draws from the same free list, and the order of the claims
// decides the register numbers in the emitted code.
func (e *emitter) compactRows(ops []*ir.Op, l *ir.LoopStmt) ([]rrow, error) {
	defer e.opts.Tracer.Begin("codegen.compact").End()
	time, length, err := e.listSchedule(ops, l)
	if err != nil {
		return nil, err
	}
	period := 0
	if l != nil {
		period = length
	}
	cleanup := e.localAssign(ops, time, period)
	rows := make([]rrow, length)
	// Each row's ops are a slice of one block, sized by a count first.
	count := append(e.rowCount[:0], make([]int, length)...)
	for _, t := range time {
		count[t]++
	}
	block := e.slots.Take(len(ops))
	for i, n := range count {
		if n > 0 {
			rows[i].ops, block = block[:0:n], block[n:]
		}
	}
	e.rowCount = count
	for i, op := range ops {
		rows[time[i]].ops = append(rows[time[i]].ops, e.slotFor(op, 0, nil))
	}
	cleanup()
	return rows, nil
}

// listSchedule list-schedules a straight-line run of ops for compactRows:
// each op's issue cycle and the rows the run takes, which for a loop's
// body (l set) is the period at which it repeats.  A body planNodes built
// already is not built again: its Body holds the same schedule.
func (e *emitter) listSchedule(ops []*ir.Op, l *ir.LoopStmt) (time []int, length int, err error) {
	if b := e.bodies[l]; b != nil && slices.EqualFunc(b.Nodes, ops, func(nd *depgraph.Node, op *ir.Op) bool { return nd.Op == op }) {
		return b.Compact.Time, b.Period, nil
	}
	nodes := make([]*depgraph.Node, len(ops))
	for i, op := range ops {
		n, err := e.arena.NodeFromOp(e.m, op)
		if err != nil {
			return nil, 0, err
		}
		nodes[i] = n
	}
	loopID, independent := -1, false
	if l != nil {
		loopID, independent = l.ID, l.Independent
	}
	g, err := depgraph.BuildContext(e.ctx(), nodes, loopID, independent)
	if err == nil {
		err = e.aborted("before list scheduling")
	}
	if err != nil {
		return nil, 0, err
	}
	r, err := schedule.List(g, e.m)
	if err == nil {
		err = e.aborted("after list scheduling")
	}
	if err != nil {
		return nil, 0, err
	}
	if l != nil {
		return r.Time, schedule.PeriodFor(g, r, r.Length), nil
	}
	return r.Time, r.Length, nil
}

// ctx is the compile's context, never nil.
func (e *emitter) ctx() context.Context {
	if e.opts.Ctx == nil {
		return context.Background()
	}
	return e.opts.Ctx
}

// aborted is nil while the compile's context is live, and once it is done
// (canceled, past its deadline) the error that stops the compile at what.
func (e *emitter) aborted(what string) error {
	if e.opts.Ctx == nil || e.opts.Ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("codegen: compile aborted %s: %w", what, e.opts.Ctx.Err())
}

// emitGenericLoopBody lowers a loop whose body contains control
// constructs: the body is compiled recursively (each region drains), with
// the loop-back branch appended at the end.
func (e *emitter) emitGenericLoopBody(l *ir.LoopStmt, counter int32, rep *LoopReport) {
	start := e.next()
	e.loopDepth++
	first, _ := e.posRange(l.Body)
	e.loopBodyStart = append(e.loopBodyStart, first)
	e.emitBlock(l.Body)
	e.loopBodyStart = e.loopBodyStart[:len(e.loopBodyStart)-1]
	e.loopDepth--
	e.append(vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: counter, Target: start}})
	if rep != nil && !rep.Pipelined && rep.II == 0 {
		rep.II = len(e.out) - int(start)
	}
}
