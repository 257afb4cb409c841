package depgraph

import (
	"context"
	"fmt"
	"math"
)

// NegInf marks "no path" distances.
const NegInf = math.MinInt32

// PathsAt computes the longest paths between the members of component ci
// at the concrete initiation interval s ≥ MII.  Entry i*k+j of the
// row-major k×k result (members in SCC.Components[ci] order) is the
// largest total delay − s·omega over the paths from member i to member j
// inside the component, NegInf when there is none.  No cycle is positive
// at such an s, so one Floyd–Warshall sweep is exact.  (Below the
// recurrence bound a component with a positive cycle gets lengths of
// walks, not paths, and a positive diagonal entry, which is all the exact
// search reads there.)  The iterative search runs it once per component
// per candidate interval rather than solving for every s symbolically up
// front (Lam §2.2.2; DESIGN.md, "Substitutions").  dst is reused when its
// capacity suffices.  The sweep is cubic in k and polls ctx once a pivot.
func (a *Analysis) PathsAt(ctx context.Context, ci, s int, dst []int) ([]int, error) {
	return a.paths(ctx, ci, s, false, dst)
}

// ZeroPaths is PathsAt over the omega-0 edges only: the longest
// intra-iteration paths, the same at every interval.  The scheduler
// anchors its earliest-slot scan here so that nodes do not float a whole
// iteration backward on inter-iteration slack (which would defeat the
// property that ranges widen as the initiation interval grows, Lam
// §2.2.2).
func (a *Analysis) ZeroPaths(ctx context.Context, ci int, dst []int) ([]int, error) {
	return a.paths(ctx, ci, 0, true, dst)
}

func (a *Analysis) paths(ctx context.Context, ci, s int, zeroOnly bool, dst []int) ([]int, error) {
	k := len(a.SCC.Components[ci])
	if cap(dst) < k*k {
		dst = make([]int, k*k)
	}
	dst = dst[:k*k]
	for i := range dst {
		dst[i] = NegInf
	}
	for _, e := range a.edges[ci] {
		if zeroOnly && e.omega != 0 {
			continue
		}
		if w := e.delay - s*e.omega; w > dst[e.from*k+e.to] {
			dst[e.from*k+e.to] = w
		}
	}
	for p := 0; p < k; p++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("depgraph: longest paths of a %d-node component aborted: %w", k, err)
		}
		via := dst[p*k : (p+1)*k]
		for i := 0; i < k; i++ {
			ip := dst[i*k+p]
			if ip == NegInf {
				continue
			}
			row := dst[i*k : (i+1)*k]
			for j, pj := range via {
				if pj != NegInf && ip+pj > row[j] {
					row[j] = ip + pj
				}
			}
		}
	}
	return dst, nil
}

func ceilDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

// --- Concrete oracles ---------------------------------------------------
//
// Independent all-pairs formulations over the whole graph that tests
// compare Recurrence.MIIFrom (mii.go) and PathsAt against; nothing on a
// compile path calls them.

// LongestPathsAt computes all-pairs longest paths over the whole graph at
// a concrete initiation interval by Bellman–Ford-style relaxation.
// It returns ok=false if a positive cycle exists (ii is infeasible).
func LongestPathsAt(g *Graph, ii int) (dist [][]int, ok bool) {
	n := len(g.Nodes)
	dist = make([][]int, n)
	for i := range dist {
		dist[i] = make([]int, n)
		for j := range dist[i] {
			dist[i][j] = NegInf
		}
	}
	for _, e := range g.Edges {
		w := e.Delay - ii*e.Omega
		if w > dist[e.From][e.To] {
			dist[e.From][e.To] = w
		}
	}
	for iter := 0; iter <= n; iter++ {
		changed := false
		for _, e := range g.Edges {
			w := e.Delay - ii*e.Omega
			for s := 0; s < n; s++ {
				if dist[s][e.From] == NegInf {
					continue
				}
				if nd := dist[s][e.From] + w; nd > dist[s][e.To] {
					dist[s][e.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			return dist, true
		}
	}
	return nil, false
}

// RecurrenceMIIOracle finds the recurrence MII by binary search over the
// feasibility predicate "no positive cycle at ii", each probe an
// all-pairs LongestPathsAt over the whole graph.
func RecurrenceMIIOracle(g *Graph) (int, error) {
	// Upper bound: total positive delay.
	hi := 1
	for _, e := range g.Edges {
		if e.Delay > 0 {
			hi += e.Delay
		}
	}
	if _, ok := LongestPathsAt(g, hi); !ok {
		return 0, fmt.Errorf("depgraph: dependence cycle with zero iteration distance")
	}
	lo := 1
	for lo < hi {
		mid := (lo + hi) / 2
		if _, ok := LongestPathsAt(g, mid); ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
