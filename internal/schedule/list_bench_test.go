package schedule

import (
	"testing"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// denseGraph builds a layered synthetic dependence graph with ~fanout
// omega-0 edges per node — the shape where the old per-node full-edge
// rescan in heights/List cost O(V·E).
func denseGraph(nodes, fanout int) *depgraph.Graph {
	m := machine.Warp()
	g := &depgraph.Graph{}
	classes := []machine.Class{machine.ClassFAdd, machine.ClassFMul, machine.ClassIAdd, machine.ClassLoad, machine.ClassAdrAdd}
	for i := 0; i < nodes; i++ {
		c := classes[i%len(classes)]
		d := m.Desc(c)
		g.Nodes = append(g.Nodes, &depgraph.Node{
			Index:       i,
			Len:         1,
			Reservation: d.Reservation,
		})
		lat := d.Latency
		for f := 1; f <= fanout; f++ {
			to := i + f
			if to >= nodes {
				break
			}
			g.Edges = append(g.Edges, depgraph.Edge{From: i, To: to, Delay: lat, Kind: depgraph.DepFlow})
		}
	}
	return g
}

// BenchmarkList is the regression benchmark for the omega-0 edge index:
// before the index, each placement rescanned all of g.Edges three times
// (priority heights, earliest-slot computation, indegree updates).
func BenchmarkList(b *testing.B) {
	m := machine.Warp()
	g := denseGraph(600, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := List(g, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeights isolates the priority computation itself.
func BenchmarkHeights(b *testing.B) {
	g := denseGraph(600, 8)
	ix := indexOmega0(g, len(g.Nodes))
	var h, indeg, order []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, indeg, order = heights(g, ix, h, indeg, order)
	}
}
