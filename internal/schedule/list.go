package schedule

import (
	"container/heap"
	"fmt"

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

// omega0Index holds the intra-iteration (omega = 0) edges bucketed by
// endpoint, built once per scheduling call so the height sweep and the
// placement loop touch only each node's own edges instead of rescanning
// the full edge list per node (previously O(V·E)).
type omega0Index struct {
	// outs[v] are the omega-0 edges with From == v, self-edges included
	// (the consumers preserve the original per-edge guards).
	outs [][]depgraph.Edge
	// ins[v] are the omega-0 edges with To == v, self-edges included.
	ins [][]depgraph.Edge
}

func indexOmega0(g *depgraph.Graph, n int) *omega0Index {
	ix := &omega0Index{outs: make([][]depgraph.Edge, n), ins: make([][]depgraph.Edge, n)}
	for _, e := range g.Edges {
		if e.Omega != 0 {
			continue
		}
		ix.outs[e.From] = append(ix.outs[e.From], e)
		ix.ins[e.To] = append(ix.ins[e.To], e)
	}
	return ix
}

// heights computes the list-scheduling priority: the critical-path height
// of each node over intra-iteration (omega = 0) edges.  The omega-0
// subgraph is acyclic in any legal program.
func heights(g *depgraph.Graph, ix *omega0Index) []int {
	n := len(g.Nodes)
	h := make([]int, n)
	order, ok := topoOrder(g, n, func(e depgraph.Edge) bool { return e.Omega == 0 })
	if !ok {
		// Defensive: fall back to extents; Analyze rejects such graphs.
		for i, nd := range g.Nodes {
			h[i] = Extent(nd)
		}
		return h
	}
	for i := range h {
		h[i] = Extent(g.Nodes[i])
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		for _, e := range ix.outs[v] {
			if c := h[e.To] + e.Delay; c > h[v] {
				h[v] = c
			}
		}
	}
	return h
}

// topoOrder returns a topological order over the edges selected by keep.
func topoOrder(g *depgraph.Graph, n int, keep func(depgraph.Edge) bool) ([]int, bool) {
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range g.Edges {
		if !keep(e) || e.From == e.To {
			continue
		}
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	var order []int
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		// Lowest index first for determinism.
		best := 0
		for i := range ready {
			if ready[i] < ready[best] {
				best = i
			}
		}
		v := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	return order, len(order) == n
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

// List performs basic-block list scheduling (Fisher 1979): nodes are
// placed in a topological order of the omega-0 edges, each at the
// earliest cycle that satisfies its scheduled predecessors and the flat
// reservation table.  Inter-iteration edges are ignored here; callers
// that loop the block (the unpipelined baseline) must pad the iteration
// period using PeriodFor.
func List(g *depgraph.Graph, m *machine.Machine) (*Result, error) {
	n := len(g.Nodes)
	res := &Result{Time: make([]int, n)}
	ix := indexOmega0(g, n)
	h := heights(g, ix)

	indeg := make([]int, n)
	for _, e := range g.Edges {
		if e.Omega == 0 && e.From != e.To {
			indeg[e.To]++
		}
	}
	q := &ready{h: h}
	for i, d := range indeg {
		if d == 0 {
			q.nodes = append(q.nodes, i)
		}
	}
	heap.Init(q)
	scheduled := make([]bool, n)
	tab := NewFlatTable(m)
	extent := totalExtent(g)
	for placed := 0; placed < n; placed++ {
		// Place the ready node with the greatest height.
		if q.Len() == 0 {
			return nil, fmt.Errorf("schedule: cycle among omega-0 edges")
		}
		best := heap.Pop(q).(int)
		earliest := 0
		for _, e := range ix.ins[best] {
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
		for _, e := range ix.outs[best] {
			if e.To != best {
				if indeg[e.To]--; indeg[e.To] == 0 {
					heap.Push(q, e.To)
				}
			}
		}
	}
	res.II = res.Length
	return res, nil
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
