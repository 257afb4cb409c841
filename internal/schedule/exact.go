package schedule

import (
	"context"
	"errors"
	"fmt"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// NodeBudget bounds the decision nodes one Search's branch-and-bound
// explores; past it the heuristic schedule is kept (Stats.FellBack).  A
// count, not a time, so a verdict is the same on every host and thread
// count (Options.Ctx is the only clock).  Sized from the largest searches
// at the default: 1,484 nodes (fuzz277662679890 on Warp, one of the
// corpus digest's exact objects), at most 222 on the corpus digest's
// default point, which holds the gap report's corpus.  Its nomve and
// unroll4 points search up to 45,145 and 837,437 nodes (≈ 1 µs each);
// those past the budget keep the heuristic's.
const NodeBudget = 10_000

const exInf = int(1) << 28

// ExactSearcher is the II search every compile runs (New): it runs the
// heuristic Searcher first, and only where that lands above the search
// floor tries to prove each smaller initiation interval feasible or
// infeasible by exhaustive branch-and-bound over the modulo reservation
// table with dependence-range (difference-constraint) propagation.  The
// first feasible interval found this way is by construction the optimum;
// if every interval below the heuristic's is refuted within NodeBudget,
// the heuristic schedule is returned with Stats.Proved set.
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
//
// The search backjumps (conflict-directed backjumping).  Every refuted
// subtree returns its conflict set: the placements its failure rests on,
// so that no schedule the search must find agrees with them.  A frame
// whose own node is not in its child's conflict set returns that set at
// once, without trying its other slots: the child's failure does not
// depend on where the frame put its node, so every other slot fails the
// same way.  The sets are built from four rules:
//
//   - Bounds.  Every window bound carries the placements it rests on.  A
//     bound propagated along an arc inherits its source bound's set; the
//     anchor's gap-compression clamp and a placement's own [t, t] rest on
//     that placement.  A wipeout is explained by its two clashing bounds.
//   - Resources.  A slot that does not fit the modulo table is explained
//     by the placed nodes occupying the full cell ModTable.Conflict names.
//   - Static rules.  The branch reservation, the payload-row rule and an
//     anchor's [0, s) window rest on no placement.
//   - Frames.  A frame's set is the union of its window bounds' sets, each
//     slot's explanation and each refuted child's set, less its own node.
//
// Only subtrees that contain no schedule are skipped, and the search
// visits the rest in the same order, so the first schedule found, every
// interval's verdict and every issue time are those of plain
// chronological backtracking; only the explored-node count falls.
//
// A fifth rule refutes an interval before any search (refuteRigid).  At
// interval s, Lam §2.2.2's closure of a recurrence component gives the
// longest path D(u, v) between any two members, and every schedule meets
// σ(v) − σ(u) ≥ D(u, v).  Where the paths both ways cancel, D(u, v) +
// D(v, u) = 0, the offset σ(v) − σ(u) is forced, so the members of such
// a rigid group issue at fixed offsets from its first member, and their
// reservations at fixed rows of the modulo table.  A row that holds more
// of a resource than the machine has refutes s.  It is a relaxation —
// every other node, the loop-back's reservation and the payload-row rule
// are left out — so what it refutes no search could schedule, and it
// never claims a schedule: an interval it cannot refute is searched.  So
// every verdict, schedule and explain report is the search's; the rule
// only spares the search's nodes (Stats.ExactRigid counts the intervals).
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
	loWhy    []uint64 // conflict set each bound rests on (see bit)
	hiWhy    []uint64
	placed   []bool
	anchored []bool
	trail    []trailEntry
	queue    []int
	inQueue  []bool
	tab      *ModTable
	cell     []uint64 // placed nodes occupying each (row, resource) cell of tab
	cellSave []uint64 // cell words overwritten by placements, restored LIFO
	rowSeen  []int64  // per depth and row: frame stamp of the cached fit
	rowFits  []bool
	brRes    [1]machine.ResUse

	// Rigid-group scratch (refuteRigid).
	paths  []int // PathsAt of the current component
	group  []int // per member position: its group's first member, or −1
	rowUse []int // (row, resource) reservations of the current group
	used   []int // rowUse cells the current group touched

	budget   int64 // decision nodes one Search may explore (NodeBudget)
	explored int64 // decision nodes the current Search explored
	rigid    int   // intervals the current Search refuted by refuteRigid
}

// rigidWitness is refuteRigid's evidence for one refuted interval: either
// a member on a positive cycle, or a rigid group whose reservations put
// Count uses of Res on one row.
type rigidWitness struct {
	Comp    int   // SCC index
	Cycle   int   // graph node on a positive cycle, or −1
	Members []int // graph nodes of the group, its first member first
	Offsets []int // each member's forced issue offset from the first
	Res     machine.Resource
	Row     int // row of the full cell, relative to the first member's
	Count   int // Res reservations the members put on Row
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
	why  uint64 // the bound's conflict set before the change
}

// bit is node v's member of a conflict set.  A set is one word: up to 64
// nodes each has its own bit; beyond that, bit v&63 stands for every node
// congruent to v, so a set may name nodes its failure does not rest on.
// That only ever keeps a frame from backjumping, never makes it skip a
// schedule, as long as no bit is cleared for one of the nodes it shares.
func bit(v int) uint64 { return 1 << (uint(v) & 63) }

// NewExactSearcher prepares the II search for an analyzed loop; the
// branch-and-bound's scratch is built on first use (prepare).
func NewExactSearcher(a *depgraph.Analysis, m *machine.Machine) *ExactSearcher {
	return &ExactSearcher{a: a, m: m, heur: NewSearcher(a, m), budget: NodeBudget}
}

// prepare builds the branch-and-bound's scratch once: most loops never
// search, because the heuristic meets the floor or refuteRigid suffices.
func (ex *ExactSearcher) prepare() {
	if ex.tab != nil {
		return
	}
	g := ex.a.Graph
	n := len(g.Nodes)
	ex.n = n
	ex.outA, ex.inA = make([][]int32, n), make([][]int32, n)
	ex.comp, ex.lo, ex.hi, ex.payLen = make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	ex.loWhy, ex.hiWhy = make([]uint64, n), make([]uint64, n)
	ex.placed, ex.inQueue = make([]bool, n), make([]bool, n)
	ex.tab = NewModTable(1, ex.m)
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
}

// Search runs the heuristic search, then, below its II, spends up to
// NodeBudget decision nodes proving smaller intervals feasible or
// infeasible.  The result's II is never above the heuristic's; context
// errors abort, budget exhaustion falls back.  Options.Budget is ignored.
func (ex *ExactSearcher) Search(opts Options) (*Result, *Stats, error) {
	floor, maxII, err := searchRange(ex.a, opts)
	if err != nil {
		return nil, &Stats{MII: floor}, err
	}
	ex.explored, ex.rigid = 0, 0

	hr, st, herr := ex.heur.Search(opts)
	if herr != nil {
		var ie *InfeasibleError
		if !errors.As(herr, &ie) {
			// Context cancellation: not ours to second-guess.
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
	defer func() { st.ExactNodes, st.ExactRigid = ex.explored, ex.rigid }()
	if hiBound < floor {
		// The heuristic met the search floor; nothing to prove.
		st.Proved = fallback != nil
		return nil, nil
	}
	for s := floor; s <= hiBound; s++ {
		if err := ctxErr(opts.Ctx, s); err != nil {
			return nil, err
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
			ex.heur.record(Attempt{II: s, Node: -1, Comp: -1, Note: "exact: proved infeasible"})
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
		"exact search node budget exhausted with candidates [%d, %d] undecided; heuristic schedule kept", s, hiBound))
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
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if w, err := ex.refuteRigid(ctx, s); err != nil {
		return decAbortCtx, nil
	} else if w != nil {
		ex.rigid++
		return decInfeasible, nil
	}
	ex.prepare()
	ex.s = s
	ex.maxC = 0
	for i := range ex.arcs {
		a := &ex.arcs[i]
		a.w = a.delay - s*a.omega
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

// refuteRigid is the search-free refutation of interval s (see
// ExactSearcher): a witness when some recurrence component has a positive
// cycle at s, or a rigid group that overfills a row; nil when neither
// shows.  In a component with a positive cycle (below the recurrence
// bound) the sweep's entries are walks rather than paths, but some
// diagonal entry is positive, and that is all that is read there: the
// groups are read only once no diagonal entry is.  The error is ctx's,
// wrapped, from inside a sweep.
func (ex *ExactSearcher) refuteRigid(ctx context.Context, s int) (*rigidWitness, error) {
	nodes := ex.a.Graph.Nodes
	nres := len(ex.m.ResourceCount)
	ex.rowUse = resize(ex.rowUse, s*nres)
	ex.used = ex.used[:0]
	for ci, comp := range ex.a.SCC.Components {
		if !ex.a.Cyclic(ci) {
			continue
		}
		d, err := ex.a.PathsAt(ctx, ci, s, ex.paths)
		if err != nil {
			return nil, err
		}
		ex.paths = d
		k := len(comp)
		for i := 0; i < k; i++ {
			if d[i*k+i] > 0 {
				return &rigidWitness{Comp: ci, Cycle: comp[i]}, nil
			}
		}
		group := resize(ex.group, k)
		ex.group = group
		for i := range group {
			group[i] = -1
		}
		for r := 0; r < k; r++ {
			if group[r] >= 0 {
				continue
			}
			for j := r; j < k; j++ {
				off := 0
				if j != r {
					if group[j] >= 0 || d[r*k+j]+d[j*k+r] != 0 {
						continue
					}
					off = d[r*k+j]
				}
				group[j] = r
				for _, u := range nodes[comp[j]].Reservation {
					at := floorMod(off+u.Offset, s)*nres + int(u.Resource)
					if ex.rowUse[at] == 0 {
						ex.used = append(ex.used, at)
					}
					if ex.rowUse[at]++; ex.rowUse[at] > ex.m.ResourceCount[u.Resource] {
						return ex.witness(ci, comp, d, s, r, j, u.Resource, at/nres), nil
					}
				}
			}
			for _, at := range ex.used {
				ex.rowUse[at] = 0
			}
			ex.used = ex.used[:0]
		}
	}
	return nil, nil
}

// witness spells out the group refuteRigid found overfilling a row at
// interval s: the members of component ci's group rooted at position r,
// up to position last, and their uses of res on row.
func (ex *ExactSearcher) witness(ci int, comp, d []int, s, r, last int, res machine.Resource, row int) *rigidWitness {
	k := len(comp)
	w := &rigidWitness{Comp: ci, Cycle: -1, Res: res, Row: row}
	for j := r; j <= last; j++ {
		if ex.group[j] != r {
			continue
		}
		off := 0
		if j != r {
			off = d[r*k+j]
		}
		w.Members = append(w.Members, comp[j])
		w.Offsets = append(w.Offsets, off)
		for _, u := range ex.a.Graph.Nodes[comp[j]].Reservation {
			if u.Resource == res && floorMod(off+u.Offset, s) == row {
				w.Count++
			}
		}
	}
	return w
}

// decidePass runs one exhaustive pass at the current interval and window
// policy.
func (ex *ExactSearcher) decidePass(opts Options) (int, []int) {
	s := ex.s
	for v := 0; v < ex.n; v++ {
		ex.lo[v], ex.hi[v] = -exInf, exInf
		ex.loWhy[v], ex.hiWhy[v] = 0, 0
		ex.placed[v] = false
		ex.inQueue[v] = false
	}
	for c := range ex.anchored {
		ex.anchored[c] = false
	}
	ex.trail = ex.trail[:0]
	ex.queue = ex.queue[:0]
	ex.tab.Reset(s)
	ex.cell = resize(ex.cell, s*ex.tab.nres)
	ex.cellSave = ex.cellSave[:0]
	ex.rowSeen = resize(ex.rowSeen, ex.n*s)
	ex.rowFits = resize(ex.rowFits, ex.n*s)
	if opts.ReserveBranch {
		// The loop-back's reservation rests on no placement: no bit.
		ex.brRes[0] = machine.ResUse{Resource: opts.BranchResource}
		ex.tab.Place(ex.brRes[:], s-1)
	}
	verdict, _ := ex.dfs(opts, 0)
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
// constraints, and backtrack on wipeout.  A refutation also returns its
// conflict set (see ExactSearcher); a child's refutation that does not
// rest on this frame's placement refutes the frame too.
func (ex *ExactSearcher) dfs(opts Options, depth int) (int, uint64) {
	if depth == ex.n {
		return decFeasible, 0
	}
	if ex.explored >= ex.budget {
		return decAbortBudget, 0
	}
	ex.explored++
	if ex.explored&127 == 0 && opts.Ctx != nil && opts.Ctx.Err() != nil {
		return decAbortCtx, 0
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
	// The window's bounds exclude every slot outside it.
	why := ex.loWhy[v] | ex.hiWhy[v]
	self := bit(v)
	res := ex.a.Graph.Nodes[v].Reservation
	c := ex.comp[v]
	// The table is the same for every slot of this frame, so whether a
	// slot fits depends only on its row: decide each row once.
	stamp := ex.explored
	rowSeen := ex.rowSeen[depth*ex.s : (depth+1)*ex.s]
	rowFits := ex.rowFits[depth*ex.s : (depth+1)*ex.s]
	for t := cLo; t <= cHi; t++ {
		r := ex.tab.row(t)
		if rowSeen[r] != stamp {
			rowSeen[r] = stamp
			rowFits[r] = ex.fits(v, res, t, r, &why)
		}
		if !rowFits[r] {
			continue
		}
		mark := len(ex.trail)
		ex.occupy(res, t, self)
		ex.placed[v] = true
		if anchor {
			ex.anchored[c] = true
		}
		jump := false
		if ok, wipe := ex.assign(v, t, anchor); !ok {
			why |= wipe
		} else if st, sub := ex.dfs(opts, depth+1); st != decInfeasible {
			return st, 0
		} else if sub&self == 0 {
			why, jump = sub, true
		} else {
			why |= sub
		}
		ex.placed[v] = false
		if anchor {
			ex.anchored[c] = false
		}
		ex.vacate(res, t)
		ex.undo(mark)
		if jump {
			return decInfeasible, why
		}
	}
	if ex.n <= 64 {
		why &^= self
	}
	return decInfeasible, why
}

// fits reports whether node v may issue at time t (row r), adding to
// *why the placements that stop it: none for the payload-row rule, the
// occupants of the full cell for the modulo table.
func (ex *ExactSearcher) fits(v int, res []machine.ResUse, t, r int, why *uint64) bool {
	if l := ex.payLen[v]; l > 0 && r+l > ex.s {
		return false
	}
	q, row, full := ex.tab.Conflict(res, t)
	if full {
		*why |= ex.cell[row*ex.tab.nres+int(q)]
	}
	return !full
}

// occupy places a reservation pattern at time t in the table, adding the
// placing node's bit to each cell it uses.
func (ex *ExactSearcher) occupy(res []machine.ResUse, t int, self uint64) {
	ex.tab.Place(res, t)
	for _, u := range res {
		at := ex.tab.row(t+u.Offset)*ex.tab.nres + int(u.Resource)
		ex.cellSave = append(ex.cellSave, ex.cell[at])
		ex.cell[at] |= self
	}
}

// vacate undoes the matching occupy.  The cells are restored from the
// saved words, not cleared bit by bit, because beyond 64 nodes a bit is
// shared (see bit).
func (ex *ExactSearcher) vacate(res []machine.ResUse, t int) {
	ex.tab.Remove(res, t)
	for i := len(res) - 1; i >= 0; i-- {
		u := res[i]
		at := ex.tab.row(t+u.Offset)*ex.tab.nres + int(u.Resource)
		last := len(ex.cellSave) - 1
		ex.cell[at] = ex.cellSave[last]
		ex.cellSave = ex.cellSave[:last]
	}
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
// a fixpoint; false means some window wiped out, with the conflict set
// of the two clashing bounds.  When v anchors its component, every
// member is first clamped to the gap-compression window around t.
func (ex *ExactSearcher) assign(v, t int, anchor bool) (bool, uint64) {
	self := bit(v)
	if anchor {
		span := ex.maxC + ex.s
		if !ex.tight {
			span *= len(ex.members[ex.comp[v]]) - 1
		}
		for _, w := range ex.members[ex.comp[v]] {
			if w == v {
				continue
			}
			if ok, why := ex.tighten(w, t-span, t+span, self); !ok {
				return false, why
			}
		}
	}
	if ok, why := ex.tighten(v, t, t, self); !ok {
		return false, why
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
					return false, ex.loWhy[u] | ex.hiWhy[a.to] // undo drains the queue
				}
				ex.setLo(a.to, nl, ex.loWhy[u])
			}
		}
		for _, ai := range ex.inA[u] {
			a := &ex.arcs[ai]
			if a.from == u {
				continue
			}
			if nh := ex.hi[u] - a.w; nh < ex.hi[a.from] {
				if nh < ex.lo[a.from] {
					return false, ex.hiWhy[u] | ex.loWhy[a.from] // undo drains the queue
				}
				ex.setHi(a.from, nh, ex.hiWhy[u])
			}
		}
	}
	return true, 0
}

// tighten narrows node w's window to its intersection with [nl, nh],
// which rests on the placements in why, recording changes on the trail
// and queueing w for propagation; false means the window wiped out, with
// the conflict set of the clash.
func (ex *ExactSearcher) tighten(w, nl, nh int, why uint64) (bool, uint64) {
	if nl > ex.lo[w] {
		if nl > ex.hi[w] {
			return false, why | ex.hiWhy[w] // undo drains the queue
		}
		ex.setLo(w, nl, why)
	}
	if nh < ex.hi[w] {
		if nh < ex.lo[w] {
			return false, why | ex.loWhy[w] // undo drains the queue
		}
		ex.setHi(w, nh, why)
	}
	return true, 0
}

func (ex *ExactSearcher) setLo(v, nl int, why uint64) {
	ex.trail = append(ex.trail, trailEntry{node: v, isHi: false, old: ex.lo[v], why: ex.loWhy[v]})
	ex.lo[v], ex.loWhy[v] = nl, why
	ex.push(v)
}

func (ex *ExactSearcher) setHi(v, nh int, why uint64) {
	ex.trail = append(ex.trail, trailEntry{node: v, isHi: true, old: ex.hi[v], why: ex.hiWhy[v]})
	ex.hi[v], ex.hiWhy[v] = nh, why
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
			ex.hi[e.node], ex.hiWhy[e.node] = e.old, e.why
		} else {
			ex.lo[e.node], ex.loWhy[e.node] = e.old, e.why
		}
	}
	ex.trail = ex.trail[:mark]
	for _, v := range ex.queue {
		ex.inQueue[v] = false
	}
	ex.queue = ex.queue[:0]
}

func floorMod(a, b int) int { return a - floorDiv(a, b)*b }

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
