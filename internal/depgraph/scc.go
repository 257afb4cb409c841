package depgraph

import "slices"

// SCC computes the strongly connected components of the graph with
// Tarjan's algorithm (Tarjan 1972, reference [29] of the paper).
// Components are returned in reverse topological order of the condensed
// graph (callers usually want topological order: iterate in reverse).
// Comp maps node index -> component index.
type SCC struct {
	Components [][]int
	Comp       []int
}

// TarjanSCC runs Tarjan's algorithm on g.
func TarjanSCC(g *Graph) *SCC {
	n, m := len(g.Nodes), len(g.Edges)
	// One block of scratch: successor lists in edge order, packed (node
	// v's are succ[first[v]:first[v+1]]), Tarjan's index and low-link per
	// node, and its stack.
	block := make([]int, (n+1)+m+n+n+n+n)
	first, block := block[:n+1], block[n+1:]
	succ, block := block[:m], block[m:]
	fill, block := block[:n], block[n:]
	index, block := block[:n], block[n:]
	low, block := block[:n], block[n:]
	stack := block[:0:n]
	for _, e := range g.Edges {
		first[e.From+1]++
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	copy(fill, first[:n])
	for _, e := range g.Edges {
		succ[fill[e.From]] = e.To
		fill[e.From]++
	}

	// Components are runs of one member array, in the order found.
	members := make([]int, 0, n)
	s := &SCC{Comp: make([]int, n), Components: make([][]int, 0, n)}
	for i := range s.Comp {
		s.Comp[i] = -1
	}
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	next := 0

	// Iterative Tarjan to avoid deep recursion on long bodies.
	type frame struct {
		v, ei int
	}
	call := make([]frame, 0, n)
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		call = append(call[:0], frame{v: root})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if first[v]+f.ei < first[v+1] {
				w := succ[first[v]+f.ei]
				f.ei++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// Finished v.
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				start := len(members)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					s.Comp[w] = len(s.Components)
					members = append(members, w)
					if w == v {
						break
					}
				}
				// Keep members in program order for deterministic
				// scheduling.  They came off the stack latest first, so
				// reversed they are usually nearly sorted already, but
				// a cycle walked against program order comes out
				// descending, so the sort must not be quadratic.
				comp := members[start:len(members):len(members)]
				slices.Reverse(comp)
				slices.Sort(comp)
				s.Components = append(s.Components, comp)
			}
		}
	}
	return s
}

// sccEdge is a dependence edge inside one component, endpoints renumbered
// to member positions.
type sccEdge struct{ from, to, delay, omega int }

// edges lists, per component, the dependence edges that stay inside it,
// all in one array.  A component lies on a dependence cycle (a self-loop
// included) exactly when its list is not empty.
func (s *SCC) edges(g *Graph) [][]sccEdge {
	pos := make([]int, len(g.Nodes))
	for _, comp := range s.Components {
		for i, v := range comp {
			pos[v] = i
		}
	}
	// Count per component, then cut one array into the lists; pos is
	// reused as the fill cursor once every edge is renumbered.
	count := make([]int, len(s.Components)+1)
	for _, e := range g.Edges {
		if ci := s.Comp[e.From]; ci == s.Comp[e.To] {
			count[ci+1]++
		}
	}
	for ci := range s.Components {
		count[ci+1] += count[ci]
	}
	all := make([]sccEdge, count[len(s.Components)])
	edges := make([][]sccEdge, len(s.Components))
	for ci := range edges {
		edges[ci] = all[count[ci]:count[ci]:count[ci+1]]
	}
	for _, e := range g.Edges {
		if ci := s.Comp[e.From]; ci == s.Comp[e.To] {
			edges[ci] = append(edges[ci], sccEdge{pos[e.From], pos[e.To], e.Delay, e.Omega})
		}
	}
	return edges
}
