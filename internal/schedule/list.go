package schedule

import (
	"container/heap"
	"fmt"
	"slices"
	"sync"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// Result is a complete schedule of one loop body (or basic block).
type Result struct {
	// II is the initiation interval: iterations start every II cycles.
	// For unpipelined schedules II equals Length.
	II int
	// Time[i] is the issue cycle σ of node i, relative to iteration
	// start; all times are ≥ 0.
	Time []int
	// Length is one past the last issue-or-reservation cycle of any
	// node (the compacted length of one iteration).
	Length int
	// Explain is the II-search explain report (why each candidate II
	// below the accepted one failed); nil for a list schedule.
	Explain *Explain
}

// Verify checks the schedule against every edge of the graph and the
// resource capacities of machine m; it returns the first violation.
func Verify(g *depgraph.Graph, m *machine.Machine, r *Result) error {
	if r.II < 1 {
		return fmt.Errorf("schedule: II %d < 1", r.II)
	}
	if len(r.Time) != len(g.Nodes) {
		return fmt.Errorf("schedule: %d times for %d nodes", len(r.Time), len(g.Nodes))
	}
	for i, t := range r.Time {
		if t < 0 {
			return fmt.Errorf("schedule: node %d at negative time %d", i, t)
		}
	}
	for _, e := range g.Edges {
		if r.Time[e.To]-r.Time[e.From] < e.Delay-r.II*e.Omega {
			return fmt.Errorf("schedule: edge n%d->n%d (%v d=%d w=%d) violated: σ=%d,%d II=%d",
				e.From, e.To, e.Kind, e.Delay, e.Omega, r.Time[e.From], r.Time[e.To], r.II)
		}
	}
	tab := NewModTable(r.II, m)
	for i, n := range g.Nodes {
		if !tab.Fits(n.Reservation, r.Time[i]) {
			return fmt.Errorf("schedule: resource overflow placing %s at %d (II=%d)", n, r.Time[i], r.II)
		}
		tab.Place(n.Reservation, r.Time[i])
	}
	return nil
}

// omega0Index holds the intra-iteration (omega = 0) edges of a graph in
// compressed sparse rows, built once per scheduling call so the height
// sweep and the placement loop touch only each node's own edges instead
// of rescanning the full edge list per node: node v's outgoing edges are
// the indices out[outAt[v]:outAt[v+1]] into g.Edges, its incoming ones
// in[inAt[v]:inAt[v+1]], in edge order, self-edges included (the
// consumers keep the original per-edge guards).
type omega0Index struct {
	outAt, inAt []int
	out, in     []int32
}

// outs and ins are v's outgoing and incoming omega-0 edge indices.
func (ix *omega0Index) outs(v int) []int32 { return ix.out[ix.outAt[v]:ix.outAt[v+1]] }
func (ix *omega0Index) ins(v int) []int32  { return ix.in[ix.inAt[v]:ix.inAt[v+1]] }

// index fills ix with g's omega-0 edges over n nodes, reusing its
// storage.
func (ix *omega0Index) index(g *depgraph.Graph, n int) {
	ix.outAt = resize(ix.outAt, n+1)
	ix.inAt = resize(ix.inAt, n+1)
	m := 0
	for _, e := range g.Edges {
		if e.Omega == 0 {
			ix.outAt[e.From+1]++
			ix.inAt[e.To+1]++
			m++
		}
	}
	for v := 0; v < n; v++ {
		ix.outAt[v+1] += ix.outAt[v]
		ix.inAt[v+1] += ix.inAt[v]
	}
	ix.out = slices.Grow(ix.out[:0], m)[:m]
	ix.in = slices.Grow(ix.in[:0], m)[:m]
	// Fill from the back, so each row ends up in edge order with the
	// offsets intact.
	for i := len(g.Edges) - 1; i >= 0; i-- {
		if e := g.Edges[i]; e.Omega == 0 {
			ix.outAt[e.From+1]--
			ix.out[ix.outAt[e.From+1]] = int32(i)
			ix.inAt[e.To+1]--
			ix.in[ix.inAt[e.To+1]] = int32(i)
		}
	}
	// Each offset now points at its row's first entry, one row late.
	copy(ix.outAt, ix.outAt[1:])
	copy(ix.inAt, ix.inAt[1:])
	ix.outAt[n], ix.inAt[n] = m, m
}

func indexOmega0(g *depgraph.Graph, n int) *omega0Index {
	ix := &omega0Index{}
	ix.index(g, n)
	return ix
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// heights computes the list-scheduling priority into h (len(g.Nodes)
// long, or nil to allocate): the critical-path height of each node over
// intra-iteration (omega = 0) edges.  The omega-0 subgraph is acyclic in
// any legal program.  Heights are longest paths, the same in every
// topological order, so the order is whatever a stack of ready nodes
// gives; indeg and order are scratch, returned for reuse.
func heights(g *depgraph.Graph, ix *omega0Index, h, indeg, order []int) ([]int, []int, []int) {
	n := len(g.Nodes)
	if h == nil {
		h = make([]int, n)
	}
	for i := range h {
		h[i] = Extent(g.Nodes[i])
	}
	indeg = resize(indeg, n)
	for _, e := range g.Edges {
		if e.Omega == 0 && e.From != e.To {
			indeg[e.To]++
		}
	}
	order = order[:0]
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for next := 0; next < len(order); next++ {
		for _, ei := range ix.outs(order[next]) {
			if e := &g.Edges[ei]; e.From != e.To {
				if indeg[e.To]--; indeg[e.To] == 0 {
					order = append(order, e.To)
				}
			}
		}
	}
	if len(order) != n {
		// Defensive: fall back to extents; Analyze rejects such graphs.
		return h, indeg, order
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		for _, ei := range ix.outs(v) {
			e := &g.Edges[ei]
			if c := h[e.To] + e.Delay; c > h[v] {
				h[v] = c
			}
		}
	}
	return h, indeg, order
}

// ready holds the nodes whose omega-0 predecessors are all placed, the
// greatest height first and, among equal heights, the lowest index.
type ready struct{ nodes, h []int }

func (r *ready) Len() int { return len(r.nodes) }
func (r *ready) Less(i, j int) bool {
	a, b := r.nodes[i], r.nodes[j]
	return r.h[a] > r.h[b] || r.h[a] == r.h[b] && a < b
}
func (r *ready) Swap(i, j int) { r.nodes[i], r.nodes[j] = r.nodes[j], r.nodes[i] }
func (r *ready) Push(x any)    { r.nodes = append(r.nodes, x.(int)) }
func (r *ready) Pop() any {
	last := r.nodes[len(r.nodes)-1]
	r.nodes = r.nodes[:len(r.nodes)-1]
	return last
}

// listScratch is what one List call needs and does not return; List
// calls take it from listPool, so a compile's many list schedules share
// a few.
type listScratch struct {
	ix              omega0Index
	h, indeg, order []int
	scheduled       []bool
	q               ready
	tab             FlatTable
}

var listPool = sync.Pool{New: func() any { return new(listScratch) }}

// List performs basic-block list scheduling (Fisher 1979): nodes are
// placed in a topological order of the omega-0 edges, each at the
// earliest cycle that satisfies its scheduled predecessors and the flat
// reservation table.  Inter-iteration edges are ignored here; callers
// that loop the block (the unpipelined baseline) must pad the iteration
// period using PeriodFor.
func List(g *depgraph.Graph, m *machine.Machine) (*Result, error) {
	sc := listPool.Get().(*listScratch)
	defer listPool.Put(sc)
	n := len(g.Nodes)
	res := &Result{Time: make([]int, n)}
	ix := &sc.ix
	ix.index(g, n)
	sc.h, sc.indeg, sc.order = heights(g, ix, resize(sc.h, n), sc.indeg, sc.order)
	h := sc.h

	indeg := resize(sc.indeg, n)
	for _, e := range g.Edges {
		if e.Omega == 0 && e.From != e.To {
			indeg[e.To]++
		}
	}
	q := &sc.q
	q.nodes, q.h = q.nodes[:0], h
	for i, d := range indeg {
		if d == 0 {
			q.nodes = append(q.nodes, i)
		}
	}
	heap.Init(q)
	scheduled := resize(sc.scheduled, n)
	sc.scheduled = scheduled
	tab := &sc.tab
	tab.reset(m, reservationBound(g, m))
	extent := totalExtent(g)
	for placed := 0; placed < n; placed++ {
		// Place the ready node with the greatest height.
		if q.Len() == 0 {
			return nil, fmt.Errorf("schedule: cycle among omega-0 edges")
		}
		best := heap.Pop(q).(int)
		earliest := 0
		for _, ei := range ix.ins(best) {
			e := &g.Edges[ei]
			if !scheduled[e.From] {
				continue
			}
			if t := res.Time[e.From] + e.Delay; t > earliest {
				earliest = t
			}
		}
		t := earliest
		bound := earliest + tab.Len() + extent + 64
		for !tab.Fits(g.Nodes[best].Reservation, t) {
			t++
			if t > bound {
				return nil, fmt.Errorf("schedule: node %s cannot be placed (oversubscribed reservation?)", g.Nodes[best])
			}
		}
		tab.Place(g.Nodes[best].Reservation, t)
		res.Time[best] = t
		scheduled[best] = true
		if end := t + Extent(g.Nodes[best]); end > res.Length {
			res.Length = end
		}
		for _, ei := range ix.outs(best) {
			if e := &g.Edges[ei]; e.To != best {
				if indeg[e.To]--; indeg[e.To] == 0 {
					heap.Push(q, e.To)
				}
			}
		}
	}
	res.II = res.Length
	return res, nil
}

// reservationBound is a lower bound on the cycles a list schedule of g
// occupies: its busiest resource's uses over the units there are.  It
// sizes the flat table up front.
func reservationBound(g *depgraph.Graph, m *machine.Machine) int {
	var uses [64]int
	bound := 0
	for _, nd := range g.Nodes {
		for _, u := range nd.Reservation {
			if int(u.Resource) < len(uses) {
				uses[u.Resource]++
			}
		}
	}
	for r, c := range m.ResourceCount {
		if r < len(uses) && c > 0 {
			bound = max(bound, (uses[r]+c-1)/c)
		}
	}
	return bound
}

// PeriodFor returns the iteration period a non-overlapped (unpipelined)
// loop must use so that every inter-iteration dependence of the schedule
// is honored: the smallest B ≥ minLen with
// σ(to) + B·ω ≥ σ(from) + delay for every edge.
func PeriodFor(g *depgraph.Graph, r *Result, minLen int) int {
	b := minLen
	for _, e := range g.Edges {
		if e.Omega == 0 {
			continue
		}
		need := r.Time[e.From] + e.Delay - r.Time[e.To]
		if need <= 0 {
			continue
		}
		if v := ceilDiv(need, e.Omega); v > b {
			b = v
		}
	}
	return b
}

func totalExtent(g *depgraph.Graph) int {
	n := 0
	for _, nd := range g.Nodes {
		n += Extent(nd)
	}
	return n
}

func ceilDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}
