package schedule

import (
	"errors"
	"fmt"
	"time"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// DefaultExactBudget is the per-Search wall-clock budget of the exact
// backend when Options.Budget is zero.  Past it the heuristic schedule
// is kept (Stats.FellBack); the budget bounds proof effort, never
// correctness.
const DefaultExactBudget = 250 * time.Millisecond

const exInf = int(1) << 28

// ExactSearcher is the EffortExact backend: it runs the heuristic
// Searcher first, then tries to prove each smaller initiation interval
// feasible or infeasible by exhaustive branch-and-bound over the modulo
// reservation table with dependence-range (difference-constraint)
// propagation.  The first feasible interval found this way is by
// construction the optimum; if every interval below the heuristic's is
// refuted within the budget, the heuristic schedule is returned with
// Stats.Proved set.
//
// Completeness rests on two symmetries of modulo schedules: shifting a
// weakly connected component of the dependence graph by a multiple of
// the candidate interval changes neither the reservation-table rows nor
// any difference constraint (components share no edges), so the first
// node placed in each component need only scan the s slots [0, s); and
// any feasible schedule can be "gap-compressed" — a suffix of a
// component, sorted by issue time, shifted down by s whenever a gap
// exceeds maxDelay+s — so the remaining nodes of a component need only
// scan a window of width (size-1)·(maxDelay+s) around their anchor.
// Issue times may go negative during the search; the final schedule is
// renormalized per component by multiples of s.
type ExactSearcher struct {
	a    *depgraph.Analysis
	m    *machine.Machine
	heur *Searcher

	n       int
	arcs    []exArc
	outA    [][]int32 // arc indices with From == v
	inA     [][]int32 // arc indices with To == v
	h       []int     // omega-0 critical-path heights (variable order tie-break)
	comp    []int     // weakly-connected component of each node
	ncomp   int
	members [][]int // nodes of each weak component
	payLen  []int   // reduced-construct occupancy (0 for simple ops)

	// Per-decision scratch.
	s        int  // candidate interval of the current decision
	maxC     int  // max positive arc weight at the current interval
	tight    bool // current pass clamps components to the one-hop window
	maxCompN int  // largest weak-component size
	lo, hi   []int
	placed   []bool
	anchored []bool
	trail    []trailEntry
	queue    []int
	inQueue  []bool
	tab      *ModTable
	brRes    [1]machine.ResUse

	deadline time.Time
	explored int64
}

// exArc is one dependence edge with its weight instantiated at the
// candidate interval: σ(to) − σ(from) ≥ w where w = delay − s·omega.
type exArc struct {
	from, to     int
	delay, omega int
	w            int
}

type trailEntry struct {
	node int
	isHi bool
	old  int
}

// NewExactSearcher prepares the exact backend for one analyzed loop.
func NewExactSearcher(a *depgraph.Analysis, m *machine.Machine) *ExactSearcher {
	g := a.Graph
	n := len(g.Nodes)
	ex := &ExactSearcher{
		a: a, m: m,
		heur:    NewSearcher(a, m),
		n:       n,
		outA:    make([][]int32, n),
		inA:     make([][]int32, n),
		comp:    make([]int, n),
		lo:      make([]int, n),
		hi:      make([]int, n),
		placed:  make([]bool, n),
		inQueue: make([]bool, n),
		payLen:  make([]int, n),
		tab:     NewModTable(1, m),
	}
	// Reduced constructs must fit within one interval row so the emitted
	// kernel can fork into their branches without crossing the loop-back
	// boundary; the pipeline treats a schedule that breaks this as an
	// internal error, so the exact search folds it into feasibility
	// rather than proving intervals "feasible" that cannot be emitted.
	for v, nd := range g.Nodes {
		if nd.Payload != nil {
			ex.payLen[v] = nd.Len
		}
	}
	for _, e := range g.Edges {
		ai := int32(len(ex.arcs))
		ex.arcs = append(ex.arcs, exArc{from: e.From, to: e.To, delay: e.Delay, omega: e.Omega})
		ex.outA[e.From] = append(ex.outA[e.From], ai)
		ex.inA[e.To] = append(ex.inA[e.To], ai)
	}
	ex.h, _, _ = heights(g, indexOmega0(g, n), nil, nil, nil)
	// Weakly connected components by union-find over all edges.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.Edges {
		a, b := find(e.From), find(e.To)
		if a != b {
			parent[a] = b
		}
	}
	id := map[int]int{}
	for v := 0; v < n; v++ {
		r := find(v)
		c, ok := id[r]
		if !ok {
			c = len(id)
			id[r] = c
			ex.members = append(ex.members, nil)
		}
		ex.comp[v] = c
		ex.members[c] = append(ex.members[c], v)
	}
	ex.ncomp = len(ex.members)
	ex.anchored = make([]bool, ex.ncomp)
	for _, mem := range ex.members {
		if len(mem) > ex.maxCompN {
			ex.maxCompN = len(mem)
		}
	}
	return ex
}

// Search runs the heuristic search, then spends the remaining budget
// proving smaller intervals feasible or infeasible.  The result is never
// worse than the heuristic's; context errors abort, budget exhaustion
// falls back.
func (ex *ExactSearcher) Search(opts Options) (*Result, *Stats, error) {
	budget := opts.Budget
	if budget <= 0 {
		budget = DefaultExactBudget
	}
	ex.deadline = time.Now().Add(budget)

	hr, st, herr := ex.heur.Search(opts)
	st.Effort = EffortExact

	maxII := opts.MaxII
	if maxII <= 0 {
		maxII = DefaultMaxII(ex.a)
	}
	floor := ex.a.MII
	if opts.MinII > floor {
		floor = opts.MinII
	}

	if herr != nil {
		var ie *InfeasibleError
		if !errors.As(herr, &ie) {
			// Context cancellation or a misconfigured MaxII: not ours to
			// second-guess.
			return nil, st, herr
		}
		// The heuristic found nothing; the exact search gets the whole
		// range.  Any feasible interval it finds is the optimum.
		r, aerr := ex.refine(opts, st, floor, maxII, nil)
		if aerr != nil {
			return nil, st, aerr
		}
		if r != nil {
			return r, st, nil
		}
		return nil, st, herr
	}

	r, aerr := ex.refine(opts, st, floor, hr.II-1, hr)
	if aerr != nil {
		return nil, st, aerr
	}
	if r != nil {
		return r, st, nil
	}
	return hr, st, nil
}

// refine scans candidate intervals [floor, hiBound] in increasing order,
// deciding each exactly.  It returns a better result than the fallback,
// or nil to keep the fallback (with st.Proved set when every candidate
// was refuted, st.FellBack when the budget ran out first).  A non-nil
// error is a context abort.
func (ex *ExactSearcher) refine(opts Options, st *Stats, floor, hiBound int, fallback *Result) (*Result, error) {
	defer func() { st.ExactNodes = ex.explored }()
	if hiBound < floor {
		// The heuristic met the search floor; nothing to prove.
		st.Proved = fallback != nil
		return nil, nil
	}
	for s := floor; s <= hiBound; s++ {
		if err := ctxErr(opts.Ctx, s); err != nil {
			return nil, err
		}
		if !time.Now().Before(ex.deadline) {
			ex.fellBack(st, s, hiBound)
			return nil, nil
		}
		st.Attempts++
		verdict, times := ex.decide(opts, s)
		switch verdict {
		case decFeasible:
			st.Achieved = s
			st.MetLower = s == st.MII
			st.Proved = true
			st.FellBack = false
			res := ex.buildResult(s, times)
			ex.heur.record(Attempt{II: s, OK: true, Node: -1, Comp: -1, Note: "exact: feasible"})
			ex.heur.exp.Achieved = s
			res.Explain = ex.heur.exp
			return res, nil
		case decInfeasible:
			ex.heur.record(Attempt{II: s, Node: -1, Comp: -1, Note: "exact: proved infeasible",
				Cause: Cause{LoFrom: -1, HiFrom: -1}})
		case decAbortCtx:
			return nil, ctxErr(opts.Ctx, s)
		case decAbortBudget:
			ex.fellBack(st, s, hiBound)
			return nil, nil
		}
	}
	if fallback != nil {
		// Every interval below the heuristic's was exhaustively refuted:
		// the heuristic schedule is optimal.
		st.Proved = true
	}
	return nil, nil
}

func (ex *ExactSearcher) fellBack(st *Stats, s, hiBound int) {
	st.FellBack = true
	ex.heur.exp.Notes = append(ex.heur.exp.Notes, fmt.Sprintf(
		"exact search budget exhausted with candidates [%d, %d] undecided; heuristic schedule kept", s, hiBound))
}

func (ex *ExactSearcher) buildResult(s int, times []int) *Result {
	res := &Result{II: s, Time: times}
	for v, t := range times {
		if e := t + Extent(ex.a.Graph.Nodes[v]); e > res.Length {
			res.Length = e
		}
	}
	return res
}

// Decision verdicts.
const (
	decFeasible = iota
	decInfeasible
	decAbortBudget
	decAbortCtx
)

// decide runs the exhaustive decision procedure for one candidate
// interval: decFeasible returns an optimal-at-s schedule (issue times
// normalized so each component's earliest node lands in [0, s)),
// decInfeasible is a completed refutation, and the abort verdicts mean
// the search was cut short and nothing was proved.
func (ex *ExactSearcher) decide(opts Options, s int) (int, []int) {
	ex.s = s
	ex.maxC = 0
	for i := range ex.arcs {
		a := &ex.arcs[i]
		a.w = a.delay - s*a.omega
		if a.from == a.to && a.w > 0 {
			// σ(v) − σ(v) ≥ w > 0 is unsatisfiable at this interval.
			return decInfeasible, nil
		}
		if a.w > ex.maxC {
			ex.maxC = a.w
		}
	}
	// Tight pass first: clamping every component to the one-hop window
	// maxC+s around its anchor finds the compact schedules that exist in
	// practice, and keeps issue times (hence register lifetimes and the
	// MVE unroll degree downstream) from stretching just because the
	// completeness window allows it.  Only a tight-pass refutation needs
	// the full gap-compression window to be sound; a tight-pass success
	// or abort stands on its own.
	ex.tight = true
	verdict, times := ex.decidePass(opts)
	if verdict != decInfeasible || ex.maxCompN <= 2 {
		// For components of ≤ 2 nodes the windows coincide.
		return verdict, times
	}
	ex.tight = false
	return ex.decidePass(opts)
}

// decidePass runs one exhaustive pass at the current interval and window
// policy.
func (ex *ExactSearcher) decidePass(opts Options) (int, []int) {
	s := ex.s
	for v := 0; v < ex.n; v++ {
		ex.lo[v], ex.hi[v] = -exInf, exInf
		ex.placed[v] = false
		ex.inQueue[v] = false
	}
	for c := range ex.anchored {
		ex.anchored[c] = false
	}
	ex.trail = ex.trail[:0]
	ex.queue = ex.queue[:0]
	ex.tab.Reset(s)
	if opts.ReserveBranch {
		ex.brRes[0] = machine.ResUse{Resource: opts.BranchResource}
		ex.tab.Place(ex.brRes[:], s-1)
	}
	verdict := ex.dfs(opts, 0)
	if verdict != decFeasible {
		return verdict, nil
	}
	times := make([]int, ex.n)
	for v := range times {
		times[v] = ex.lo[v]
	}
	// Shift each component by a multiple of s so its earliest issue time
	// lands in [0, s): rows and all (intra-component) difference
	// constraints are invariant under the shift, and Verify requires
	// non-negative times.
	for _, mem := range ex.members {
		minT := exInf
		for _, v := range mem {
			if times[v] < minT {
				minT = times[v]
			}
		}
		if shift := -floorDiv(minT, s) * s; shift != 0 {
			for _, v := range mem {
				times[v] += shift
			}
		}
	}
	return decFeasible, times
}

// dfs is the branch-and-bound core: pick the unplaced node with the
// tightest window (deterministically), try each slot in its window
// against the modulo reservation table, propagate difference
// constraints, and backtrack on wipeout.
func (ex *ExactSearcher) dfs(opts Options, depth int) int {
	if depth == ex.n {
		return decFeasible
	}
	ex.explored++
	if ex.explored&127 == 0 {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return decAbortCtx
		}
		if !time.Now().Before(ex.deadline) {
			return decAbortBudget
		}
	}
	v, anchor := ex.pickVar()
	var cLo, cHi int
	if anchor {
		// First node of its component: any schedule can be shifted by a
		// multiple of s, so scanning one window of width s is complete.
		cLo, cHi = 0, ex.s-1
		if ex.lo[v] > cLo {
			cLo = ex.lo[v]
		}
		if ex.hi[v] < cHi {
			cHi = ex.hi[v]
		}
	} else {
		cLo, cHi = ex.lo[v], ex.hi[v]
	}
	res := ex.a.Graph.Nodes[v].Reservation
	c := ex.comp[v]
	for t := cLo; t <= cHi; t++ {
		if l := ex.payLen[v]; l > 0 {
			if r := ((t % ex.s) + ex.s) % ex.s; r+l > ex.s {
				continue
			}
		}
		if !ex.tab.Fits(res, t) {
			continue
		}
		mark := len(ex.trail)
		ex.tab.Place(res, t)
		ex.placed[v] = true
		if anchor {
			ex.anchored[c] = true
		}
		ok := ex.assign(v, t, anchor)
		if ok {
			st := ex.dfs(opts, depth+1)
			if st != decInfeasible {
				return st
			}
		}
		ex.placed[v] = false
		if anchor {
			ex.anchored[c] = false
		}
		ex.tab.Remove(res, t)
		ex.undo(mark)
	}
	return decInfeasible
}

// pickVar returns the next node to place: nodes of already-anchored
// components ordered by (window width asc, height desc, index asc);
// when none remain, the highest node of a fresh component becomes its
// anchor.
func (ex *ExactSearcher) pickVar() (int, bool) {
	best, bestW := -1, 0
	bestAnchor := false
	for v := 0; v < ex.n; v++ {
		if ex.placed[v] {
			continue
		}
		anchor := !ex.anchored[ex.comp[v]]
		w := exInf
		if !anchor {
			w = ex.hi[v] - ex.lo[v]
		}
		if best == -1 || w < bestW ||
			(w == bestW && (ex.h[v] > ex.h[best] || (ex.h[v] == ex.h[best] && v < best))) {
			best, bestW, bestAnchor = v, w, anchor
		}
	}
	return best, bestAnchor
}

// assign fixes node v at time t and propagates difference constraints to
// a fixpoint; false means some window wiped out.  When v anchors its
// component, every member is first clamped to the gap-compression window
// around t.
func (ex *ExactSearcher) assign(v, t int, anchor bool) bool {
	if anchor {
		span := ex.maxC + ex.s
		if !ex.tight {
			span *= len(ex.members[ex.comp[v]]) - 1
		}
		for _, w := range ex.members[ex.comp[v]] {
			if w == v {
				continue
			}
			if !ex.tighten(w, t-span, t+span) {
				return false
			}
		}
	}
	if !ex.tighten(v, t, t) {
		return false
	}
	for len(ex.queue) > 0 {
		u := ex.queue[len(ex.queue)-1]
		ex.queue = ex.queue[:len(ex.queue)-1]
		ex.inQueue[u] = false
		for _, ai := range ex.outA[u] {
			a := &ex.arcs[ai]
			if a.to == u {
				continue
			}
			if nl := ex.lo[u] + a.w; nl > ex.lo[a.to] {
				if nl > ex.hi[a.to] {
					return false // undo drains the queue
				}
				ex.setLo(a.to, nl)
			}
		}
		for _, ai := range ex.inA[u] {
			a := &ex.arcs[ai]
			if a.from == u {
				continue
			}
			if nh := ex.hi[u] - a.w; nh < ex.hi[a.from] {
				if nh < ex.lo[a.from] {
					return false // undo drains the queue
				}
				ex.setHi(a.from, nh)
			}
		}
	}
	return true
}

// tighten narrows node w's window to its intersection with [nl, nh],
// recording changes on the trail and queueing w for propagation; false
// means the window wiped out.
func (ex *ExactSearcher) tighten(w, nl, nh int) bool {
	if nl > ex.lo[w] {
		if nl > ex.hi[w] {
			return false // undo drains the queue
		}
		ex.setLo(w, nl)
	}
	if nh < ex.hi[w] {
		if nh < ex.lo[w] {
			return false // undo drains the queue
		}
		ex.setHi(w, nh)
	}
	return true
}

func (ex *ExactSearcher) setLo(v, nl int) {
	ex.trail = append(ex.trail, trailEntry{node: v, isHi: false, old: ex.lo[v]})
	ex.lo[v] = nl
	ex.push(v)
}

func (ex *ExactSearcher) setHi(v, nh int) {
	ex.trail = append(ex.trail, trailEntry{node: v, isHi: true, old: ex.hi[v]})
	ex.hi[v] = nh
	ex.push(v)
}

func (ex *ExactSearcher) push(v int) {
	if !ex.inQueue[v] {
		ex.inQueue[v] = true
		ex.queue = append(ex.queue, v)
	}
}

func (ex *ExactSearcher) undo(mark int) {
	for i := len(ex.trail) - 1; i >= mark; i-- {
		e := ex.trail[i]
		if e.isHi {
			ex.hi[e.node] = e.old
		} else {
			ex.lo[e.node] = e.old
		}
	}
	ex.trail = ex.trail[:mark]
	for _, v := range ex.queue {
		ex.inQueue[v] = false
	}
	ex.queue = ex.queue[:0]
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
