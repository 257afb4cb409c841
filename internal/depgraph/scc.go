package depgraph

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
	n := len(g.Nodes)
	// Successor lists in edge order, packed into one array: node v's are
	// succ[first[v]:first[v+1]].
	first := make([]int, n+1)
	for _, e := range g.Edges {
		first[e.From+1]++
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	succ := make([]int, len(g.Edges))
	fill := append([]int(nil), first[:n]...)
	for _, e := range g.Edges {
		succ[fill[e.From]] = e.To
		fill[e.From]++
	}

	s := &SCC{Comp: make([]int, n)}
	for i := range s.Comp {
		s.Comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	// Iterative Tarjan to avoid deep recursion on long bodies.
	type frame struct {
		v, ei int
	}
	var call []frame
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
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					s.Comp[w] = len(s.Components)
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				// Keep members in program order for deterministic
				// scheduling.
				for i, j := 0, len(comp)-1; i < j; i, j = i+1, j-1 {
					comp[i], comp[j] = comp[j], comp[i]
				}
				sortInts(comp)
				s.Components = append(s.Components, comp)
			}
		}
	}
	return s
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// IsTrivial reports whether component c is a single node without a
// self-loop (i.e. not part of any dependence cycle).
func (s *SCC) IsTrivial(g *Graph, c int) bool {
	comp := s.Components[c]
	if len(comp) > 1 {
		return false
	}
	v := comp[0]
	for _, e := range g.Edges {
		if e.From == v && e.To == v {
			return false
		}
	}
	return true
}

// sccEdge is a dependence edge inside one component, endpoints renumbered
// to member positions.
type sccEdge struct{ from, to, delay, omega int }

// edges lists, per component, the dependence edges that stay inside it.
// A component lies on a dependence cycle (!IsTrivial) exactly when its
// list is not empty.
func (s *SCC) edges(g *Graph) [][]sccEdge {
	pos := make([]int, len(g.Nodes))
	for _, comp := range s.Components {
		for i, v := range comp {
			pos[v] = i
		}
	}
	edges := make([][]sccEdge, len(s.Components))
	for _, e := range g.Edges {
		if ci := s.Comp[e.From]; ci == s.Comp[e.To] {
			edges[ci] = append(edges[ci], sccEdge{pos[e.From], pos[e.To], e.Delay, e.Omega})
		}
	}
	return edges
}
