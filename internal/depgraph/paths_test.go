package depgraph_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// bareGraph is n resource-free nodes joined by edges.
func bareGraph(n int, edges ...depgraph.Edge) *depgraph.Graph {
	g := &depgraph.Graph{Edges: edges}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, &depgraph.Node{Index: i, Len: 1})
	}
	return g
}

// ring is one recurrence circuit through n nodes, every edge at iteration
// distance 1, so a path between two of its members winds up to n−1
// iterations.
func ring(n int, delay func(i int) int) *depgraph.Graph {
	g := bareGraph(n)
	for i := 0; i < n; i++ {
		g.Edges = append(g.Edges, depgraph.Edge{From: i, To: (i + 1) % n, Delay: delay(i), Omega: 1})
	}
	return g
}

// checkComponentPaths compares every component's PathsAt at the intervals
// MII…MII+5, entry for entry, with the all-pairs oracle on the whole
// graph (a path between two members of a component never leaves it), and
// ZeroPaths with the oracle on the omega-0 subgraph.  It also holds the
// components to reverse topological order, which the II search's
// condensation relies on: no edge runs to a higher-numbered component.
// ok=false means Analyze refused g.
func checkComponentPaths(t *testing.T, name string, g *depgraph.Graph) (ok bool) {
	t.Helper()
	a, err := depgraph.Analyze(g, machine.Warp())
	if err != nil {
		if _, orErr := depgraph.RecurrenceMIIOracle(g); orErr == nil {
			t.Fatalf("%s: Analyze refused (%v) what the oracle accepts\n%v", name, err, g)
		}
		return false
	}
	for _, e := range g.Edges {
		if cf, ct := a.SCC.Comp[e.From], a.SCC.Comp[e.To]; cf < ct {
			t.Fatalf("%s: edge n%d->n%d runs from component %d up to %d", name, e.From, e.To, cf, ct)
		}
	}
	compare := func(what string, want [][]int, paths func(ci int) ([]int, error)) {
		t.Helper()
		for ci, comp := range a.SCC.Components {
			got, err := paths(ci)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, what, err)
			}
			k, diffs := len(comp), 0
			for i, u := range comp {
				for j, v := range comp {
					if got[i*k+j] != want[u][v] {
						if diffs++; diffs == 1 {
							t.Errorf("%s: %s: dist(%d,%d) = %d, oracle %d", name, what, u, v, got[i*k+j], want[u][v])
						}
					}
				}
			}
			if diffs > 1 {
				t.Errorf("%s: %s: %d of %d entries of component %d differ", name, what, diffs, k*k, ci)
			}
		}
	}
	ctx := context.Background()
	var buf []int
	for s := a.MII; s <= a.MII+5; s++ {
		want, feasible := depgraph.LongestPathsAt(g, s)
		if !feasible {
			t.Fatalf("%s: oracle says II=%d ≥ MII %d is infeasible\n%v", name, s, a.MII, g)
		}
		compare(fmt.Sprintf("PathsAt(%d)", s), want, func(ci int) (_ []int, err error) {
			buf, err = a.PathsAt(ctx, ci, s, buf)
			return buf, err
		})
	}
	zero := &depgraph.Graph{Nodes: g.Nodes}
	for _, e := range g.Edges {
		if e.Omega == 0 {
			zero.Edges = append(zero.Edges, e)
		}
	}
	want, feasible := depgraph.LongestPathsAt(zero, 1)
	if !feasible {
		t.Fatalf("%s: Analyze accepted a positive omega-0 cycle\n%v", name, g)
	}
	compare("ZeroPaths", want, func(ci int) ([]int, error) { return a.ZeroPaths(ctx, ci, nil) })
	return true
}

// TestComponentPathsMatchOracle cross-checks the per-component longest
// paths against direct Bellman–Ford on random strongly connected graphs
// and on components whose paths wind through many iterations: rings
// longer than 64 nodes and a short ring whose omegas sum past 64 (a
// symbolic closure that capped the winding at 64 lost 66 of the 4,290
// off-diagonal entries of the 66-ring and 1,200 of the 80-ring's 6,320).
func TestComponentPathsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(5)
		g := bareGraph(n)
		// Ring to guarantee strong connectivity, plus random chords.
		for i := 0; i < n; i++ {
			omega := 0
			if i == n-1 {
				omega = 1 + rng.Intn(2)
			}
			g.Edges = append(g.Edges, depgraph.Edge{From: i, To: (i + 1) % n, Delay: 1 + rng.Intn(6), Omega: omega})
		}
		for k := 0; k < rng.Intn(4); k++ {
			g.Edges = append(g.Edges, depgraph.Edge{
				From:  rng.Intn(n),
				To:    rng.Intn(n),
				Delay: rng.Intn(8) - 1,
				Omega: rng.Intn(3),
			})
		}
		if checkComponentPaths(t, fmt.Sprintf("trial %d", trial), g) {
			checked++
		}
	}
	if checked < 400 {
		t.Errorf("only %d of 500 random graphs were legal", checked)
	}
	for _, n := range []int{40, 66, 80, 120} {
		if !checkComponentPaths(t, fmt.Sprintf("ring%d/even", n), ring(n, func(int) int { return 10 })) ||
			!checkComponentPaths(t, fmt.Sprintf("ring%d/uneven", n), ring(n, func(i int) int { return 1 + i*7%13 })) {
			t.Errorf("ring of %d nodes refused", n)
		}
	}
	// Five nodes, iteration distance 20 an edge: the path 0→4 spans 80
	// iterations.  The chords give some pairs a second, shorter-winding path.
	wide := bareGraph(5,
		depgraph.Edge{From: 0, To: 1, Delay: 30, Omega: 20},
		depgraph.Edge{From: 1, To: 2, Delay: 45, Omega: 20},
		depgraph.Edge{From: 2, To: 3, Delay: 20, Omega: 20},
		depgraph.Edge{From: 3, To: 4, Delay: 50, Omega: 20},
		depgraph.Edge{From: 4, To: 0, Delay: 35, Omega: 20},
		depgraph.Edge{From: 1, To: 3, Delay: 5},
		depgraph.Edge{From: 4, To: 2, Delay: 2, Omega: 1})
	if !checkComponentPaths(t, "wide-omegas", wide) {
		t.Error("wide-omega component refused")
	}
}

func TestTarjanKnownGraph(t *testing.T) {
	// 0→1→2→0 cycle plus tail 2→3→4.
	g := &depgraph.Graph{Nodes: []*depgraph.Node{{}, {}, {}, {}, {}}}
	for i := range g.Nodes {
		g.Nodes[i].Index = i
	}
	g.Edges = []depgraph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0, Omega: 1},
		{From: 2, To: 3}, {From: 3, To: 4},
	}
	scc := depgraph.TarjanSCC(g)
	sizes := map[int]int{}
	for _, c := range scc.Components {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[1] != 2 {
		t.Fatalf("components wrong: %v", scc.Components)
	}
	if scc.Comp[0] != scc.Comp[1] || scc.Comp[1] != scc.Comp[2] {
		t.Errorf("cycle not grouped")
	}
	// Condensation order: component of 0/1/2 must come after 3 and 4 in
	// reverse topological order (Tarjan emits sinks first).
	c012 := scc.Comp[0]
	if !(scc.Comp[4] < scc.Comp[3] && scc.Comp[3] < c012) {
		t.Errorf("reverse topological order violated: %v", scc.Comp)
	}
}
