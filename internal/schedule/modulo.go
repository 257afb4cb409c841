package schedule

import (
	"context"
	"fmt"
	"slices"
	"time"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// Options tunes the modulo scheduler.
type Options struct {
	// Ctx, when non-nil, is checked before each candidate initiation
	// interval's heuristic attempt and exact decision, once a pivot of
	// each longest-path sweep and every 128 branch-and-bound nodes: a
	// canceled or deadlined context aborts the search with an error
	// wrapping ctx.Err() instead of running to MaxII.  The serving layer
	// threads per-request deadlines through here.
	Ctx context.Context
	// MaxII bounds the iterative search; 0 means DefaultMaxII.
	MaxII int
	// MinII raises the search floor above the natural MII (the pipeliner
	// passes the longest construct window, which must fit in one interval).
	MinII int
	// BinarySearch replaces the upward scan with the FPS-164 compiler's
	// binary search (Touzeau 1984) by the heuristic alone: the exact
	// search does not run and Stats.Proved is false.  Lam §2.2 argues
	// linear search is preferable because schedulability is not
	// monotonic in II; the flag is that comparison, for the tests that
	// hold the linear scan to it.
	BinarySearch bool
	// ReserveBranch pre-reserves the sequencer's branch field in the
	// last kernel cycle (offset II-1) for the loop-back branch, so body
	// branches (reduced conditionals) cannot collide with it.
	ReserveBranch bool
	// BranchResource identifies the sequencer resource when
	// ReserveBranch is set.
	BranchResource machine.Resource
	// Budget is accepted and ignored (NodeBudget and Ctx bound a search)
	// until ROADMAP item 3 deletes it.
	Budget time.Duration
}

// DefaultMaxII returns a search bound large enough that any legal loop
// schedules: past it every node can be laid out serially.
func DefaultMaxII(a *depgraph.Analysis) int {
	total := a.MII + 16
	for _, n := range a.Graph.Nodes {
		total += Extent(n)
	}
	for _, e := range a.Graph.Edges {
		if e.Delay > 0 {
			total += e.Delay
		}
	}
	return total
}

// Stats reports how the search went (exposed for the evaluation section:
// Table 4-2's efficiency column is MII/achieved II).
type Stats struct {
	MII      int
	Achieved int
	Attempts int // number of candidate IIs tried
	// Backtracks counts failed placement probes: slots the list scheduler
	// scanned and rejected before finding a fit (or giving up).
	Backtracks int
	MetLower   bool
	// Exact reports that the exact search scheduled the interval the
	// search returned, one the heuristic failed.
	Exact bool
	// Proved reports that the search refuted every candidate interval
	// below Achieved: the schedule is optimal, not just heuristically
	// good.
	Proved bool
	// FellBack reports that the branch-and-bound ran out of NodeBudget
	// and the heuristic searched on alone.
	FellBack bool
	// ExactNodes counts decision-tree nodes the exact search explored.
	ExactNodes int64
	// ExactRigid counts the candidate intervals the exact search refuted
	// without searching, from their rigid recurrence groups (see
	// Searcher).
	ExactRigid int
	// Paths counts the longest-path matrices (depgraph PathsAt) the
	// search computed: at most one per cyclic component per interval.
	Paths int
}

// compEdge is an intra-component omega-0 edge in member-index space.
type compEdge struct {
	from, to, delay int
}

// crossEdge is a condensed inter-component edge.  The effective delay of
// the condensation depends on the per-attempt internal offsets, so only
// the II-independent parts are kept here; Searcher.cdelay holds the
// instantiated delays of the current attempt, parallel to this slice.
type crossEdge struct {
	gfrom, gto   int // graph-node endpoints
	from, to     int // component endpoints
	delay, omega int
}

// compData is the per-component preprocessing and scratch of the
// searcher.  Everything except dense, denseAt, lo, hi, times, sched, deg is
// independent of the candidate initiation interval and computed once.
type compData struct {
	edges  []compEdge // omega-0 intra-component edges, from != to
	indeg  []int      // indegrees over edges
	h      []int      // list priority: critical-path height over edges
	zero   []int      // intra-iteration longest paths (ZeroPaths), once zeroed
	zeroed bool

	dense   []int // longest paths at interval denseAt (PathsAt), 0: none
	denseAt int
	lo, hi  []int // precedence-constrained ranges
	times   []int // issue time per member
	sched   []bool
	deg     []int
}

// Searcher is the II search every compile runs (New): the iterative
// search of Lam §2.2, trying candidate intervals upward from the search
// floor.  At each interval the heuristic attempts a schedule first
// (attempt); where it fails, the exact search decides the interval:
// refuteRigid, then an exhaustive branch-and-bound over the modulo
// reservation table with dependence-range (difference-constraint)
// propagation, within NodeBudget decision nodes a Search.  The first
// interval either schedules is the answer.  When the exact search decided
// every interval below it, that is the optimum (Stats.Proved); once the
// budget runs out the heuristic searches on alone (Stats.FellBack).  A
// Searcher without the exact search (NewSearcher) is the heuristic alone,
// the comparison point codegen.Options.HeuristicOnly reaches.
//
// The heuristic front-loads every II-independent computation (SCC member
// indexing, intra-component edge lists, list priorities, condensation
// edges) and keeps all scheduling scratch — modulo reservation tables and
// distance matrices included — alive across candidate intervals, so
// trying II = s+1 after s fails allocates almost nothing.  Each cyclic
// component's longest paths at an interval are computed once, and the
// heuristic and refuteRigid read the same matrix (pathsAt).
//
// The branch-and-bound's completeness rests on two symmetries of modulo
// schedules: shifting a weakly connected component of the dependence
// graph by a multiple of the candidate interval changes neither the
// reservation-table rows nor any difference constraint (components share
// no edges), so the first node placed in each component need only scan
// the s slots [0, s); and any feasible schedule can be "gap-compressed" —
// a suffix of a component, sorted by issue time, shifted down by s
// whenever a gap exceeds maxDelay+s — so the remaining nodes of a
// component need only scan a window of width (size-1)·(maxDelay+s)
// around their anchor.  Issue times may go negative during the search;
// the final schedule is renormalized per component by multiples of s.
//
// The branch-and-bound backjumps (conflict-directed backjumping).  Every
// refuted subtree returns its conflict set: the placements its failure
// rests on, so that no schedule the search must find agrees with them.  A
// frame whose own node is not in its child's conflict set returns that set
// at once, without trying its other slots: the child's failure does not
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
//
// A Searcher is not safe for concurrent use; compile pipelines create one
// per loop.
type Searcher struct {
	a *depgraph.Analysis
	m *machine.Machine

	comps []compData // one per cyclic component, in component order
	cyc   []int      // cyc[ci] indexes comps for a cyclic component, -1 otherwise
	// cross is sorted by source component.  TarjanSCC numbers components
	// in reverse topological order, so every cross edge runs to a
	// lower-numbered component than it leaves.
	cross  []crossEdge
	cindeg []int // condensation indegrees over cross

	// Condensation scheduling scratch, reused across attempts.
	intTime []int
	compLen []int
	vres    [][]machine.ResUse
	cdelay  []int // per-cross-edge condensed delay of the current attempt
	ch      []int
	deg     []int
	vtime   []int
	placed  []bool
	condTab *ModTable
	compTab *ModTable

	// exp is the explain report: for every candidate II, which op failed
	// placement and the binding constraint.  It accumulates across Search
	// calls on the same Searcher and lands in Result.Explain (or
	// InfeasibleError.Explain on total failure).
	exp *Explain
	// retries counts failed placement probes of the current Search call,
	// paths the longest-path matrices it computed.
	retries, paths int

	ex *exact // nil: the heuristic alone
}

// comp is cyclic component ci's preprocessing and scratch.
func (sr *Searcher) comp(ci int) *compData { return &sr.comps[sr.cyc[ci]] }

// NewSearcher prepares a reusable searcher for the analyzed loop.
func NewSearcher(a *depgraph.Analysis, m *machine.Machine) *Searcher {
	g := a.Graph
	n := len(g.Nodes)
	nc := len(a.SCC.Components)
	// Everything per node and per component comes out of a few blocks,
	// sized by a counting pass: the per-member scratch of every cyclic
	// component (k members: six int lists of k and two k×k path
	// matrices), its omega-0 edges, the condensation's edges and each
	// component's reservations.
	members, cyclic, compEdges, crosses, uses, paths := 0, 0, 0, 0, 0, 0
	for ci, comp := range a.SCC.Components {
		if a.Cyclic(ci) {
			members += len(comp)
			cyclic++
			paths += 2 * len(comp) * len(comp)
		}
		for _, v := range comp {
			uses += len(g.Nodes[v].Reservation)
		}
	}
	ints := make([]int, n+7*nc+6*members+len(g.Edges)+paths)
	cut := func(k int) []int {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	ecount := cut(nc)
	for _, e := range g.Edges {
		cf, ct := a.SCC.Comp[e.From], a.SCC.Comp[e.To]
		switch {
		case cf != ct:
			crosses++
		case e.Omega == 0 && e.From != e.To && a.Cyclic(cf):
			compEdges++
			ecount[cf]++
		}
	}
	sr := &Searcher{
		a: a, m: m,
		cindeg:  cut(nc),
		intTime: cut(n),
		compLen: cut(nc),
		vres:    make([][]machine.ResUse, nc),
		ch:      cut(nc),
		deg:     cut(nc),
		vtime:   cut(nc),
		placed:  make([]bool, nc+members),
		cross:   make([]crossEdge, 0, crosses),
		cdelay:  cut(crosses),
		condTab: NewModTable(1, m),
		compTab: NewModTable(1, m),
		exp:     &Explain{ResMII: a.ResMII, RecMII: a.RecMII},
		cyc:     cut(nc),
	}
	sched := sr.placed[nc:]
	sr.placed = sr.placed[:nc:nc]
	allUses := make([]machine.ResUse, uses)
	allEdges := make([]compEdge, compEdges)
	memberIdx := sr.intTime // free until the first attempt
	for _, comp := range a.SCC.Components {
		for i, v := range comp {
			memberIdx[v] = i
		}
	}
	sr.comps = make([]compData, 0, cyclic)
	for ci, comp := range a.SCC.Components {
		k := 0
		for _, v := range comp {
			k += len(g.Nodes[v].Reservation)
		}
		sr.vres[ci], allUses = allUses[:0:k], allUses[k:]
		sr.cyc[ci] = -1
		if !a.Cyclic(ci) {
			continue
		}
		sr.cyc[ci] = len(sr.comps)
		sr.comps = append(sr.comps, compData{})
		k = len(comp)
		cd := sr.comp(ci)
		cd.indeg = cut(k)
		cd.h = cut(k)
		cd.lo = cut(k)
		cd.hi = cut(k)
		cd.times = cut(k)
		cd.deg = cut(k)
		cd.zero, cd.dense = cut(k * k)[:0], cut(k * k)[:0]
		cd.sched, sched = sched[:k:k], sched[k:]
		for i, v := range comp {
			cd.h[i] = Extent(g.Nodes[v])
		}
	}
	// Each cyclic component's omega-0 edges are one run of allEdges.
	for ci, k := range ecount {
		if k > 0 {
			sr.comp(ci).edges, allEdges = allEdges[:0:k], allEdges[k:]
		}
	}
	for _, e := range g.Edges {
		cf, ct := a.SCC.Comp[e.From], a.SCC.Comp[e.To]
		if cf != ct {
			sr.cross = append(sr.cross, crossEdge{
				gfrom: e.From, gto: e.To,
				from: cf, to: ct,
				delay: e.Delay, omega: e.Omega,
			})
			sr.cindeg[ct]++
			continue
		}
		if e.Omega == 0 && e.From != e.To && a.Cyclic(cf) {
			cd := sr.comp(cf)
			cd.edges = append(cd.edges, compEdge{
				from: memberIdx[e.From], to: memberIdx[e.To], delay: e.Delay,
			})
			cd.indeg[memberIdx[e.To]]++
		}
	}
	clear(memberIdx)
	slices.SortFunc(sr.cross, func(x, y crossEdge) int { return x.from - y.from })
	// Heights within each component by reverse relaxation over the
	// omega-0 edges (|comp| sweeps suffice on a DAG).
	for ci := range sr.comps {
		cd := &sr.comps[ci]
		for range cd.h {
			for _, e := range cd.edges {
				if c := cd.h[e.to] + e.delay; c > cd.h[e.from] {
					cd.h[e.from] = c
				}
			}
		}
	}
	return sr
}

// Search finds the smallest feasible initiation interval ≥ the search
// floor by one upward scan (see Searcher) and returns the kernel
// schedule; with Options.BinarySearch it is the heuristic's binary search
// alone.  It may be called repeatedly (e.g. with a raised MinII); scratch
// carries over between calls.  Context errors abort; Options.Budget is
// ignored.
func (sr *Searcher) Search(opts Options) (*Result, *Stats, error) {
	floor, maxII, err := searchRange(sr.a, opts)
	st := &Stats{MII: floor}
	if err != nil {
		return nil, st, err
	}
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	sr.retries, sr.paths = 0, 0
	if sr.ex != nil {
		sr.ex.explored, sr.ex.rigid = 0, 0
	}
	sr.exp.MII, sr.exp.MaxII = floor, maxII
	var r *Result
	if opts.BinarySearch {
		r, err = sr.searchBinary(opts, floor, maxII, st)
	} else {
		r, err = sr.scan(opts, floor, maxII, st)
	}
	st.Backtracks, st.Paths = sr.retries, sr.paths
	if sr.ex != nil {
		st.ExactNodes, st.ExactRigid = sr.ex.explored, sr.ex.rigid
	}
	if err != nil {
		return nil, st, err
	}
	if r == nil {
		return nil, st, &InfeasibleError{MII: floor, MaxII: maxII, Binary: opts.BinarySearch, Explain: sr.exp}
	}
	st.Achieved, st.MetLower = r.II, r.II == floor
	st.Proved = sr.ex != nil && !st.FellBack && !opts.BinarySearch
	sr.exp.Achieved = r.II
	r.Explain = sr.exp
	return r, st, nil
}

// scan tries the candidate intervals [lo, hi] upward and returns the
// first schedule found, or nil.  At each interval the heuristic attempts
// one; where it fails, the exact search decides the interval while its
// node budget lasts.  An error is a context abort or a broken invariant.
func (sr *Searcher) scan(opts Options, lo, hi int, st *Stats) (*Result, error) {
	deciding := sr.ex != nil
	undecided := 0 // the first interval the node budget left undecided
	for s := lo; s <= hi; s++ {
		if err := ctxErr(opts.Ctx, s); err != nil {
			return nil, err
		}
		st.Attempts++
		r, err := sr.attempt(opts, s)
		if err != nil {
			return nil, err
		}
		if r != nil {
			sr.noteUndecided(undecided, s-1)
			return r, nil
		}
		if !deciding {
			continue
		}
		if err := ctxErr(opts.Ctx, s); err != nil {
			return nil, err
		}
		switch verdict, times := sr.decide(opts, s); verdict {
		case decFeasible:
			st.Exact = true
			sr.record(Attempt{II: s, OK: true, Node: -1, Comp: -1, Note: "exact: feasible"})
			r := &Result{II: s, Time: times}
			for v, t := range times {
				r.Length = max(r.Length, t+Extent(sr.a.Graph.Nodes[v]))
			}
			return r, nil
		case decInfeasible:
			sr.record(Attempt{II: s, Node: -1, Comp: -1, Note: "exact: proved infeasible"})
		case decAbortCtx:
			return nil, ctxErr(opts.Ctx, s)
		case decAbortBudget:
			st.FellBack, deciding, undecided = true, false, s
		}
	}
	sr.noteUndecided(undecided, hi)
	return nil, nil
}

// noteUndecided records in the explain report that the node budget left
// the intervals [from, to] to the heuristic alone (from 0: it did not).
func (sr *Searcher) noteUndecided(from, to int) {
	if from > 0 {
		sr.exp.Notes = append(sr.exp.Notes, fmt.Sprintf(
			"exact search node budget exhausted with candidates [%d, %d] undecided; heuristic schedule kept", from, to))
	}
}

// pathsAt returns cyclic component ci's longest paths at interval s,
// computing them only when the matrix held is not s's.
func (sr *Searcher) pathsAt(ctx context.Context, ci, s int) ([]int, error) {
	cd := sr.comp(ci)
	if cd.denseAt != s {
		cd.denseAt = 0 // a sweep the context ends leaves no matrix
		d, err := sr.a.PathsAt(ctx, ci, s, cd.dense)
		if err != nil {
			return nil, err
		}
		cd.dense, cd.denseAt = d, s
		sr.paths++
	}
	return cd.dense, nil
}

// searchRange is the candidate intervals [floor, maxII] a search under
// opts tries: from the MII, raised to opts.MinII, up to opts.MaxII
// (0 means DefaultMaxII).  An explicit MaxII below the floor is a caller
// misconfiguration, not infeasibility, and fails distinguishably instead
// of reporting an empty range as "no feasible initiation interval".
func searchRange(a *depgraph.Analysis, opts Options) (floor, maxII int, err error) {
	floor, maxII = max(a.MII, opts.MinII), opts.MaxII
	if maxII <= 0 {
		maxII = DefaultMaxII(a)
	}
	if maxII < floor {
		return floor, maxII, fmt.Errorf("schedule: Options.MaxII %d is below the search floor %d (MII %d): %w",
			maxII, floor, a.MII, ErrMaxIIBelowMII)
	}
	return floor, maxII, nil
}

// Modulo finds the smallest feasible initiation interval ≥ the MII using
// the iterative approach of Lam §2.2 and returns the kernel schedule.
// It is the one-shot form of NewSearcher(a, m).Search(opts): the
// heuristic alone.
func Modulo(a *depgraph.Analysis, m *machine.Machine, opts Options) (*Result, *Stats, error) {
	return NewSearcher(a, m).Search(opts)
}

// searchBinary is the FPS-164 compiler's binary search for the smallest
// interval in [floor, maxII] the heuristic schedules; nil if none.
func (sr *Searcher) searchBinary(opts Options, floor, maxII int, st *Stats) (*Result, error) {
	lo, hi := floor, maxII
	var best *Result
	for lo <= hi {
		mid := (lo + hi) / 2
		if err := ctxErr(opts.Ctx, mid); err != nil {
			return nil, err
		}
		st.Attempts++
		r, err := sr.attempt(opts, mid)
		if err != nil {
			return nil, err
		}
		if r != nil {
			best, hi = r, mid-1
		} else {
			lo = mid + 1
		}
	}
	return best, nil
}

// ctxErr reports a canceled or deadlined search context as an error
// naming the candidate interval the search was about to try.
func ctxErr(ctx context.Context, candidate int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("schedule: II search aborted before candidate %d: %w", candidate, err)
	}
	return nil
}

// attempt tries to build a schedule with initiation interval s; a nil
// result means infeasible under the non-backtracking heuristics, an error
// that opts.Ctx ended under the longest-path sweeps.
func (sr *Searcher) attempt(opts Options, s int) (*Result, error) {
	a, g := sr.a, sr.a.Graph
	n := len(g.Nodes)
	nc := len(a.SCC.Components)

	// 1. Schedule each nontrivial component individually: internal
	// offsets intTime, normalized to start at 0.
	intTime := sr.intTime
	compLen := sr.compLen
	for i := range intTime {
		intTime[i] = 0
	}
	for ci := range compLen {
		compLen[ci] = 0
	}
	for ci, comp := range a.SCC.Components {
		if !a.Cyclic(ci) {
			continue
		}
		// The component's longest paths at this candidate interval, once:
		// every range update in scheduleComponent is then two array reads.
		// Its intra-iteration paths are the same at every interval.
		cd := sr.comp(ci)
		var err error
		if !cd.zeroed {
			if cd.zero, err = a.ZeroPaths(opts.Ctx, ci, cd.zero); err != nil {
				return nil, err
			}
			cd.zeroed = true
		}
		if _, err = sr.pathsAt(opts.Ctx, ci, s); err != nil {
			return nil, err
		}
		if ok, err := sr.scheduleComponent(ci, comp, s); !ok {
			return nil, err
		}
		minT := cd.times[0]
		for _, t := range cd.times {
			if t < minT {
				minT = t
			}
		}
		for i, v := range comp {
			intTime[v] = cd.times[i] - minT
			if e := intTime[v] + Extent(g.Nodes[v]); e > compLen[ci] {
				compLen[ci] = e
			}
		}
	}

	// 2. Reduce the graph: one vertex per component, with the aggregate
	// resource usage of its members (Lam §2.2.2).
	for ci, comp := range a.SCC.Components {
		sr.vres[ci] = sr.vres[ci][:0]
		for _, v := range comp {
			for _, u := range g.Nodes[v].Reservation {
				sr.vres[ci] = append(sr.vres[ci], machine.ResUse{Resource: u.Resource, Offset: u.Offset + intTime[v]})
			}
		}
	}
	for i, e := range sr.cross {
		sr.cdelay[i] = intTime[e.gfrom] + e.delay - intTime[e.gto]
	}

	// 3. List-schedule the acyclic condensation against the shared
	// modulo reservation table.
	tab := sr.condTab
	tab.Reset(s)
	if opts.ReserveBranch {
		tab.Place([]machine.ResUse{{Resource: opts.BranchResource}}, s-1)
	}

	// Priorities: critical-path height over omega-0 condensed edges, in
	// one pass over sr.cross: sorted by source, with every edge running
	// to a lower-numbered component, it reaches each target's height
	// only after the last edge that raises it.
	ch := sr.ch
	for ci := range ch {
		ch[ci] = compLen[ci]
		if ch[ci] == 0 { // trivial component
			ch[ci] = Extent(g.Nodes[a.SCC.Components[ci][0]])
		}
	}
	for ei, e := range sr.cross {
		if e.omega == 0 {
			ch[e.from] = max(ch[e.from], ch[e.to]+sr.cdelay[ei])
		}
	}

	vtime := sr.vtime
	placed := sr.placed
	for i := range placed {
		placed[i] = false
	}
	deg := sr.deg
	copy(deg, sr.cindeg)
	for count := 0; count < nc; count++ {
		// Some component is always ready: the highest-numbered one not
		// yet placed, whose predecessors all number higher.
		best := -1
		for i := 0; i < nc; i++ {
			if placed[i] || deg[i] > 0 {
				continue
			}
			if best == -1 || ch[i] > ch[best] || (ch[i] == ch[best] && i < best) {
				best = i
			}
		}
		earliest := 0
		for ei, e := range sr.cross {
			if e.to != best || !placed[e.from] {
				continue
			}
			if t := vtime[e.from] + sr.cdelay[ei] - s*e.omega; t > earliest {
				earliest = t
			}
		}
		t, ok := findSlot(tab, sr.vres[best], earliest, s)
		if ok {
			sr.retries += t - earliest
		} else {
			sr.retries += s
		}
		if !ok {
			members := a.SCC.Components[best]
			sr.fail(s, members[0], best, len(members) > 1, tab, sr.vres[best], earliest, earliest+s-1)
			return nil, nil
		}
		tab.Place(sr.vres[best], t)
		vtime[best] = t
		placed[best] = true
		for _, e := range sr.cross {
			if e.from == best {
				deg[e.to]--
			}
		}
	}

	// 4. Recover per-node times.
	sr.record(Attempt{II: s, OK: true, Node: -1, Comp: -1})
	res := &Result{II: s, Time: make([]int, n)}
	for ci, comp := range a.SCC.Components {
		for _, v := range comp {
			res.Time[v] = vtime[ci] + intTime[v]
			if e := res.Time[v] + Extent(g.Nodes[v]); e > res.Length {
				res.Length = e
			}
		}
	}
	return res, nil
}

// findSlot scans the s consecutive slots starting at `earliest` for one
// where the reservation fits; by the periodicity of the modulo table, if
// none of them fits no later slot can (Lam §2.2.1).
func findSlot(tab *ModTable, res []machine.ResUse, earliest, s int) (int, bool) {
	for t := earliest; t < earliest+s; t++ {
		if tab.Fits(res, t) {
			return t, true
		}
	}
	return 0, false
}

// scheduleComponent schedules one strongly connected component for target
// interval s using the precedence-constrained-range algorithm of Lam
// §2.2.2.  Issue times land in sr.comps[ci].times (member-index order);
// false means a resource conflict, or, with an error, a broken invariant.
func (sr *Searcher) scheduleComponent(ci int, comp []int, s int) (bool, error) {
	const inf = int(1) << 30
	g := sr.a.Graph
	cd := sr.comp(ci)
	k := len(comp)

	copy(cd.deg, cd.indeg)
	for i := 0; i < k; i++ {
		cd.lo[i] = -inf
		cd.hi[i] = inf
		cd.sched[i] = false
	}
	tab := sr.compTab
	tab.Reset(s)

	for count := 0; count < k; count++ {
		best := -1
		for i := 0; i < k; i++ {
			if cd.sched[i] || cd.deg[i] > 0 {
				continue
			}
			if best == -1 || cd.h[i] > cd.h[best] || (cd.h[i] == cd.h[best] && comp[i] < comp[best]) {
				best = i
			}
		}
		if best == -1 || cd.lo[best] > cd.hi[best] {
			// Analyze rejects omega-0 cycles, and the longest paths are
			// exact at every s ≥ MII, so no range empties (DESIGN.md).
			return false, fmt.Errorf("%w: component %d at II=%d: no member placeable", errInternal, ci, s)
		}
		l, u := cd.lo[best], cd.hi[best]
		// Anchor the scan at the intra-iteration lower bound so that a
		// node with no omega-0 constraint from the scheduled set does
		// not drift a whole iteration early on inter-iteration slack:
		// anchored this way, the lower bound stays fixed as s grows
		// while the upper bound relaxes (the paper's property 2).
		anchor := 0
		for j := 0; j < k; j++ {
			if !cd.sched[j] {
				continue
			}
			if d := cd.zero[j*k+best]; d != depgraph.NegInf {
				if t := cd.times[j] + d; t > anchor {
					anchor = t
				}
			}
		}
		start := anchor
		if start > u {
			start = u - (s - 1)
		}
		if start < l {
			start = l
		}
		limit := start + s - 1
		if u < limit {
			limit = u
		}
		placedAt := -1
		for t := start; t <= limit; t++ {
			if tab.Fits(g.Nodes[comp[best]].Reservation, t) {
				placedAt = t
				break
			}
			sr.retries++
		}
		if placedAt == -1 {
			v := comp[best]
			sr.fail(s, v, ci, false, tab, g.Nodes[v].Reservation, start, limit)
			return false, nil
		}
		tab.Place(g.Nodes[comp[best]].Reservation, placedAt)
		cd.times[best] = placedAt
		cd.sched[best] = true
		for _, e := range cd.edges {
			if e.from == best {
				cd.deg[e.to]--
			}
		}
		// Update precedence-constrained ranges from the longest paths at
		// s.
		row := cd.dense[best*k : (best+1)*k]
		for j := 0; j < k; j++ {
			if cd.sched[j] {
				continue
			}
			if d := row[j]; d != depgraph.NegInf {
				cd.lo[j] = max(cd.lo[j], placedAt+d)
			}
			if d := cd.dense[j*k+best]; d != depgraph.NegInf {
				cd.hi[j] = min(cd.hi[j], placedAt-d)
			}
		}
	}
	return true, nil
}
