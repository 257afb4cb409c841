package schedule

import (
	"context"
	"fmt"
	"time"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// Options tunes the modulo scheduler.
type Options struct {
	// Ctx, when non-nil, is checked between candidate initiation
	// intervals and once a pivot of each longest-path sweep inside one: a
	// canceled or deadlined context aborts the search with an error
	// wrapping ctx.Err() instead of running to MaxII.  The serving layer
	// threads per-request deadlines through here.
	Ctx context.Context
	// MaxII bounds the iterative search; 0 means DefaultMaxII.
	MaxII int
	// MinII raises the search floor above the natural MII (the pipeliner
	// passes the longest construct window, which must fit in one interval).
	MinII int
	// BinarySearch switches the II search from the paper's linear scan
	// to the FPS-164 compiler's binary search (Touzeau 1984).  Lam §2.2
	// argues linear search is preferable because schedulability is not
	// monotonic in II; the flag exists for the ablation benchmark.
	BinarySearch bool
	// ReserveBranch pre-reserves the sequencer's branch field in the
	// last kernel cycle (offset II-1) for the loop-back branch, so body
	// branches (reduced conditionals) cannot collide with it.
	ReserveBranch bool
	// BranchResource identifies the sequencer resource when
	// ReserveBranch is set.
	BranchResource machine.Resource
	// Budget bounds the wall-clock time of one Search call of the exact
	// backend (EffortExact), measured from entry; past it the exact
	// search stops and the heuristic schedule is kept (Stats.FellBack).
	// 0 means DefaultExactBudget.  The heuristic backend ignores it.
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
	// Effort names the backend that produced the result.
	Effort Effort
	// Proved reports that the exact backend exhaustively refuted every
	// candidate interval below Achieved: the schedule is optimal, not
	// just heuristically good.
	Proved bool
	// FellBack reports that the exact backend hit its time budget and
	// returned the heuristic schedule unchanged.
	FellBack bool
	// ExactNodes counts decision-tree nodes the exact search explored.
	ExactNodes int64
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
// searcher.  Everything except dense, lo, hi, times, sched, deg is
// independent of the candidate initiation interval and computed once.
type compData struct {
	edges  []compEdge // omega-0 intra-component edges, from != to
	indeg  []int      // indegrees over edges
	h      []int      // list priority: critical-path height over edges
	zero   []int      // intra-iteration longest paths (ZeroPaths), once zeroed
	zeroed bool

	dense  []int // longest paths at the current candidate II (PathsAt)
	lo, hi []int // precedence-constrained ranges
	// loFrom/hiFrom track which already-placed member imposed each bound
	// (-1 = unset), so the explain report can name the constraining node.
	loFrom, hiFrom []int
	times          []int // issue time per member
	sched          []bool
	deg            []int
}

// Searcher runs the iterative search of Lam §2.2 for one analyzed loop.
// It front-loads every II-independent computation (SCC member indexing,
// intra-component edge lists, list priorities, condensation edges) and
// keeps all scheduling scratch — modulo reservation tables and distance
// matrices included — alive across candidate intervals, so trying
// II = s+1 after s fails allocates almost nothing.  A Searcher is not
// safe for concurrent use; compile pipelines create one per loop.
type Searcher struct {
	a *depgraph.Analysis
	m *machine.Machine

	comps  []compData // one per cyclic component, in component order
	cyc    []int      // cyc[ci] indexes comps for a cyclic component, -1 otherwise
	cross  []crossEdge
	cindeg []int // condensation indegrees over cross

	// Condensation scheduling scratch, reused across attempts.
	intTime []int
	compLen []int
	vres    [][]machine.ResUse
	cdelay  []int // per-cross-edge condensed delay of the current attempt
	ch      []int
	deg     []int
	order   []int
	ready   []int
	vtime   []int
	placed  []bool
	condTab *ModTable
	compTab *ModTable

	// exp is the explain report: for every candidate II, which op failed
	// placement and the binding constraint.  It accumulates across Search
	// calls on the same Searcher and lands in Result.Explain (or
	// InfeasibleError.Explain on total failure).
	exp *Explain
	// retries counts failed placement probes of the current Search call.
	retries int
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
	// component (k members: eight int lists of k and two k×k path
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
	ints := make([]int, n+7*nc+8*members+len(g.Edges)+paths)
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
		order:   make([]int, 0, 2*nc),
		vtime:   cut(nc),
		placed:  make([]bool, nc+members),
		cross:   make([]crossEdge, 0, crosses),
		cdelay:  cut(crosses),
		condTab: NewModTable(1, m),
		compTab: NewModTable(1, m),
		exp:     &Explain{ResMII: a.ResMII, RecMII: a.RecMII},
		cyc:     cut(nc),
	}
	sr.order, sr.ready = sr.order[:0:nc], sr.order[nc:nc]
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
		cd.loFrom = cut(k)
		cd.hiFrom = cut(k)
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

// Search finds the smallest feasible initiation interval ≥ the MII using
// the iterative approach of Lam §2.2 and returns the kernel schedule.
// It may be called repeatedly (e.g. with a raised MinII); scratch
// carries over between calls.
func (sr *Searcher) Search(opts Options) (*Result, *Stats, error) {
	maxII := opts.MaxII
	if maxII <= 0 {
		maxII = DefaultMaxII(sr.a)
	}
	floor := sr.a.MII
	if opts.MinII > floor {
		floor = opts.MinII
	}
	st := &Stats{MII: floor}
	sr.retries = 0
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	if maxII < floor {
		// An explicit MaxII below the search floor is a caller
		// misconfiguration, not infeasibility: fail loudly and
		// distinguishably instead of reporting an empty range as "no
		// feasible initiation interval".
		return nil, st, fmt.Errorf("schedule: Options.MaxII %d is below the search floor %d (MII %d): %w",
			maxII, floor, sr.a.MII, ErrMaxIIBelowMII)
	}
	sr.exp.MII = floor
	sr.exp.MaxII = maxII
	if opts.BinarySearch {
		r, err := sr.searchBinary(opts, floor, maxII, st)
		st.Backtracks = sr.retries
		return r, st, err
	}
	for s := floor; s <= maxII; s++ {
		if err := ctxErr(opts.Ctx, s); err != nil {
			st.Backtracks = sr.retries
			return nil, st, err
		}
		st.Attempts++
		r, err := sr.attempt(opts, s)
		if err != nil {
			st.Backtracks = sr.retries
			return nil, st, err
		}
		if r != nil {
			st.Achieved = s
			st.MetLower = s == st.MII
			st.Backtracks = sr.retries
			sr.exp.Achieved = s
			r.Explain = sr.exp
			return r, st, nil
		}
	}
	st.Backtracks = sr.retries
	return nil, st, &InfeasibleError{MII: st.MII, MaxII: maxII, Explain: sr.exp}
}

// Modulo finds the smallest feasible initiation interval ≥ the MII using
// the iterative approach of Lam §2.2 and returns the kernel schedule.
// It is the one-shot form of NewSearcher(a, m).Search(opts).
func Modulo(a *depgraph.Analysis, m *machine.Machine, opts Options) (*Result, *Stats, error) {
	return NewSearcher(a, m).Search(opts)
}

func (sr *Searcher) searchBinary(opts Options, floor, maxII int, st *Stats) (*Result, error) {
	lo, hi := floor, maxII
	var best *Result
	bestII := -1
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
			best, bestII = r, mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if best == nil {
		return nil, &InfeasibleError{MII: floor, MaxII: maxII, Binary: true, Explain: sr.exp}
	}
	st.Achieved = bestII
	st.MetLower = bestII == st.MII
	sr.exp.Achieved = bestII
	best.Explain = sr.exp
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
		if cd.dense, err = a.PathsAt(opts.Ctx, ci, s, cd.dense); err != nil {
			return nil, err
		}
		if !sr.scheduleComponent(ci, comp, s) {
			return nil, nil
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

	// Priorities: critical-path height over omega-0 condensed edges.
	ch := sr.ch
	for ci := range ch {
		ext := compLen[ci]
		if ext == 0 { // trivial component
			ext = Extent(g.Nodes[a.SCC.Components[ci][0]])
		}
		ch[ci] = ext
	}
	// Topological order (condensation is a DAG over all edges), then
	// heights by reverse topological sweep over omega-0 edges.
	deg := sr.deg
	copy(deg, sr.cindeg)
	order := sr.order[:0]
	ready := sr.ready[:0]
	for i := 0; i < nc; i++ {
		if deg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		v := ready[0]
		for _, w := range ready {
			if w < v {
				v = w
			}
		}
		for i, w := range ready {
			if w == v {
				ready = append(ready[:i], ready[i+1:]...)
				break
			}
		}
		order = append(order, v)
		for _, e := range sr.cross {
			if e.from == v {
				deg[e.to]--
				if deg[e.to] == 0 {
					ready = append(ready, e.to)
				}
			}
		}
	}
	sr.order, sr.ready = order, ready
	if len(order) != nc {
		// Should not happen: condensation is acyclic.
		sr.record(failAttempt(s, -1, -1, "", false, Cause{Kind: CauseMalformed, LoFrom: -1, HiFrom: -1}))
		return nil, nil
	}
	for i := nc - 1; i >= 0; i-- {
		v := order[i]
		for ei, e := range sr.cross {
			if e.from != v || e.omega != 0 {
				continue
			}
			if c := ch[e.to] + sr.cdelay[ei]; c > ch[v] {
				ch[v] = c
			}
		}
	}

	vtime := sr.vtime
	placed := sr.placed
	for i := range placed {
		placed[i] = false
	}
	copy(deg, sr.cindeg)
	for count := 0; count < nc; count++ {
		best := -1
		for i := 0; i < nc; i++ {
			if placed[i] || deg[i] > 0 {
				continue
			}
			if best == -1 || ch[i] > ch[best] || (ch[i] == ch[best] && i < best) {
				best = i
			}
		}
		if best == -1 {
			sr.record(failAttempt(s, -1, -1, "", false, Cause{Kind: CauseMalformed, LoFrom: -1, HiFrom: -1}))
			return nil, nil
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
			cause := Cause{Kind: CauseResource, WinLo: earliest, WinHi: earliest + s - 1, LoFrom: -1, HiFrom: -1}
			if rr, row, blocked := tab.Conflict(sr.vres[best], earliest); blocked {
				cause.Resource, cause.Row = rr, row
			}
			sr.record(failAttempt(s, members[0], best, g.Nodes[members[0]].String(), len(members) > 1, cause))
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
// false means failure.
func (sr *Searcher) scheduleComponent(ci int, comp []int, s int) bool {
	const inf = int(1) << 30
	g := sr.a.Graph
	cd := sr.comp(ci)
	k := len(comp)

	copy(cd.deg, cd.indeg)
	for i := 0; i < k; i++ {
		cd.lo[i] = -inf
		cd.hi[i] = inf
		cd.loFrom[i] = -1
		cd.hiFrom[i] = -1
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
		if best == -1 {
			// Omega-0 cycle; rejected earlier by Analyze.
			sr.record(failAttempt(s, -1, ci, "", false, Cause{Kind: CauseMalformed, LoFrom: -1, HiFrom: -1}))
			return false
		}
		l, u := cd.lo[best], cd.hi[best]
		if l > u {
			v := comp[best]
			cause := Cause{Kind: CauseDependence, Lo: l, Hi: u, LoFrom: -1, HiFrom: -1}
			if f := cd.loFrom[best]; f >= 0 {
				cause.LoFrom = comp[f]
				cause.LoEdge = directEdge(g, comp[f], v)
			}
			if f := cd.hiFrom[best]; f >= 0 {
				cause.HiFrom = comp[f]
				cause.HiEdge = directEdge(g, v, comp[f])
			}
			sr.record(failAttempt(s, v, ci, g.Nodes[v].String(), false, cause))
			return false
		}
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
			cause := Cause{Kind: CauseResource, WinLo: start, WinHi: limit, LoFrom: -1, HiFrom: -1}
			if rr, row, blocked := tab.Conflict(g.Nodes[v].Reservation, start); blocked {
				cause.Resource, cause.Row = rr, row
			}
			sr.record(failAttempt(s, v, ci, g.Nodes[v].String(), false, cause))
			return false
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
				if t := placedAt + d; t > cd.lo[j] {
					cd.lo[j] = t
					cd.loFrom[j] = best
				}
			}
			if d := cd.dense[j*k+best]; d != depgraph.NegInf {
				if t := placedAt - d; t < cd.hi[j] {
					cd.hi[j] = t
					cd.hiFrom[j] = best
				}
			}
		}
	}
	return true
}
