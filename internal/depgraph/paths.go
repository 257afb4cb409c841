package depgraph

import (
	"context"
	"fmt"
	"math"
)

// DistPair is one Pareto point of the parametric longest-path problem:
// a path with total delay D and total iteration difference P contributes
// the constraint σ(v) − σ(u) ≥ D − s·P.  Keeping the Pareto frontier over
// (maximize D, minimize P) lets the closure be computed once with the
// initiation interval s symbolic, exactly the preprocessing step of Lam
// §2.2.2, and evaluated for each candidate s during the linear search.
type DistPair struct {
	D int
	P int
}

// PairSet is a Pareto frontier sorted by increasing P with strictly
// increasing D (a pair with higher P must buy strictly more delay).
type PairSet []DistPair

// NegInf marks "no path" distances.
const NegInf = math.MinInt32

// insertPair merges p into the frontier, preserving the invariant.
// It reports whether the frontier changed.
func insertPair(s PairSet, p DistPair) (PairSet, bool) {
	// Find position by P.
	i := 0
	for i < len(s) && s[i].P < p.P {
		i++
	}
	if i < len(s) && s[i].P == p.P {
		if s[i].D >= p.D {
			return s, false
		}
		s[i].D = p.D
	} else {
		// Dominated by an earlier (smaller P) entry with >= D?
		if i > 0 && s[i-1].D >= p.D {
			return s, false
		}
		s = append(s, DistPair{})
		copy(s[i+1:], s[i:])
		s[i] = p
	}
	// The (possibly raised) entry may now dominate later ones or be
	// dominated by an earlier one.
	if i > 0 && s[i-1].D >= s[i].D {
		copy(s[i:], s[i+1:])
		return s[:len(s)-1], false
	}
	// Remove later entries dominated by the new one.
	j := i + 1
	for j < len(s) && s[j].D <= s[i].D {
		j++
	}
	if j > i+1 {
		copy(s[i+1:], s[j:])
		s = s[:len(s)-(j-i-1)]
	}
	return s, true
}

// Eval returns the longest distance at a concrete initiation interval,
// or NegInf if the set is empty.
func (s PairSet) Eval(ii int) int {
	best := NegInf
	for _, p := range s {
		if d := p.D - ii*p.P; d > best {
			best = d
		}
	}
	return best
}

// Closure holds the all-points symbolic longest-path closure of one
// strongly connected component.
//
// Pairs are stored with delays transformed to D' = D − SMin·P, where SMin
// is a lower bound on every initiation interval the closure will be
// evaluated at (the resource MII).  Under that transform the ordinary
// Pareto rule also prunes pairs that can never win anywhere on
// [SMin, ∞), which keeps the frontiers tiny on components with many
// inter-iteration edges.
type Closure struct {
	// Members of the component, and their index within the closure.
	Members []int
	Pos     map[int]int
	// SMin is the evaluation-domain floor the transform used.
	SMin int
	// Dist[i][j] is the Pareto frontier of transformed path lengths from
	// Members[i] to Members[j] (paths staying inside the component).
	Dist [][]PairSet
}

// maxWind is the hard ceiling on the iteration-difference of retained
// paths; the effective cap per component is the total omega of its edges
// (any path beyond that repeats a node, and removing the repeated cycle
// never hurts for s ≥ the recurrence MII, where cycle slack d−s·p ≤ 0).
const maxWind = 64

// NewClosure solves the all-points longest path problem for component
// comp of graph g, with the initiation interval symbolic.  Evaluations
// are valid for intervals ≥ sMin (pass 1 when no better bound is known).
func NewClosure(g *Graph, comp []int, sMin int) (*Closure, error) {
	return newClosure(context.TODO(), g, comp, sMin)
}

// newClosure is NewClosure under a deadline: the relaxation polls ctx once
// per pivot (one pivot is O(n²) pair merges, a sweep O(n³)).
func newClosure(ctx context.Context, g *Graph, comp []int, sMin int) (*Closure, error) {
	if sMin < 1 {
		sMin = 1
	}
	c := &Closure{Members: comp, Pos: make(map[int]int, len(comp)), SMin: sMin}
	n := len(comp)
	for i, v := range comp {
		c.Pos[v] = i
	}
	c.Dist = make([][]PairSet, n)
	for i := range c.Dist {
		c.Dist[i] = make([]PairSet, n)
	}
	// Per-component winding cap: the sum of edge omegas bounds the
	// iteration difference of any simple path.
	cap := 0
	for _, e := range g.Edges {
		if _, ok1 := c.Pos[e.From]; ok1 {
			if _, ok2 := c.Pos[e.To]; ok2 {
				cap += e.Omega
			}
		}
	}
	if cap < 1 {
		cap = 1
	}
	if cap > maxWind {
		cap = maxWind
	}
	// Seed with edges internal to the component.
	for _, e := range g.Edges {
		i, ok1 := c.Pos[e.From]
		j, ok2 := c.Pos[e.To]
		if !ok1 || !ok2 {
			continue
		}
		if e.Omega == 0 && e.From == e.To && e.Delay > 0 {
			return nil, fmt.Errorf("depgraph: node %d depends on itself within one iteration (delay %d)", e.From, e.Delay)
		}
		c.Dist[i][j], _ = insertPair(c.Dist[i][j], DistPair{D: e.Delay - sMin*e.Omega, P: e.Omega})
	}
	// Relax to fixpoint (Floyd–Warshall over the Pareto semiring; repeat
	// until stable because cycles can be profitable to traverse more
	// than once up to the winding cap).
	for {
		changed := false
		for k := 0; k < n; k++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("depgraph: closure of a %d-node component aborted: %w", n, err)
			}
			for i := 0; i < n; i++ {
				if len(c.Dist[i][k]) == 0 {
					continue
				}
				for j := 0; j < n; j++ {
					if len(c.Dist[k][j]) == 0 {
						continue
					}
					for _, a := range c.Dist[i][k] {
						for _, b := range c.Dist[k][j] {
							p := DistPair{D: a.D + b.D, P: a.P + b.P}
							if p.P > cap {
								continue
							}
							var ch bool
							c.Dist[i][j], ch = insertPair(c.Dist[i][j], p)
							changed = changed || ch
						}
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	// A cycle with iteration difference 0 and positive delay is an
	// illegal program (value needed before it is produced).  P=0 pairs
	// are untouched by the transform.
	for i := range c.Dist {
		for _, p := range c.Dist[i][i] {
			if p.P == 0 && p.D > 0 {
				return nil, fmt.Errorf("depgraph: zero-distance dependence cycle through node %d (delay %d)", c.Members[i], p.D)
			}
		}
	}
	return c, nil
}

// DistAt returns the longest path distance from node u to node v (graph
// indices) at initiation interval ii ≥ SMin, or NegInf when no path
// exists.
func (c *Closure) DistAt(u, v, ii int) int {
	i, ok1 := c.Pos[u]
	j, ok2 := c.Pos[v]
	if !ok1 || !ok2 {
		return NegInf
	}
	return c.Dist[i][j].Eval(ii - c.SMin)
}

// DistZero returns the longest intra-iteration (omega = 0) path distance
// from u to v, or NegInf when no such path exists.  The scheduler anchors
// its earliest-slot scan here so that nodes do not float a whole
// iteration backward on inter-iteration slack (which would defeat the
// property that ranges widen as the initiation interval grows, Lam
// §2.2.2).
func (c *Closure) DistZero(u, v int) int {
	i, ok1 := c.Pos[u]
	j, ok2 := c.Pos[v]
	if !ok1 || !ok2 {
		return NegInf
	}
	s := c.Dist[i][j]
	if len(s) > 0 && s[0].P == 0 {
		return s[0].D
	}
	return NegInf
}

// InstantiateAt densely evaluates the closure at a concrete initiation
// interval ii ≥ SMin.  The returned slice is row-major n×n over member
// indices (n = len(Members)); entry i*n+j is the longest path distance
// from Members[i] to Members[j], NegInf when no path exists.  dst is
// reused when its capacity suffices, so the iterative II search can
// instantiate once per (component, candidate interval) into the same
// buffer instead of re-evaluating Pareto frontiers at every placement.
func (c *Closure) InstantiateAt(ii int, dst []int) []int {
	n := len(c.Members)
	if cap(dst) < n*n {
		dst = make([]int, n*n)
	} else {
		dst = dst[:n*n]
	}
	t := ii - c.SMin
	for i, row := range c.Dist {
		out := dst[i*n : (i+1)*n]
		for j, s := range row {
			out[j] = s.Eval(t)
		}
	}
	return dst
}

// ZeroMatrix densely extracts the intra-iteration (omega = 0) distances
// in the same row-major member-index layout as InstantiateAt.  The
// matrix does not depend on the initiation interval, so callers compute
// it once per component and reuse it across the whole II search.
func (c *Closure) ZeroMatrix(dst []int) []int {
	n := len(c.Members)
	if cap(dst) < n*n {
		dst = make([]int, n*n)
	} else {
		dst = dst[:n*n]
	}
	for i, row := range c.Dist {
		out := dst[i*n : (i+1)*n]
		for j, s := range row {
			if len(s) > 0 && s[0].P == 0 {
				out[j] = s[0].D
			} else {
				out[j] = NegInf
			}
		}
	}
	return dst
}

// RecurrenceMII returns the smallest initiation interval permitted by the
// component's cycles: max over cycles of ceil(delay(c)/omega(c)).
// Cycles already satisfied at SMin contribute nothing (the overall MII
// includes the resource bound SMin was derived from).
func (c *Closure) RecurrenceMII() int {
	mii := 0
	for i := range c.Dist {
		for _, p := range c.Dist[i][i] {
			if p.P <= 0 || p.D <= 0 {
				continue
			}
			if v := c.SMin + ceilDiv(p.D, p.P); v > mii {
				mii = v
			}
		}
	}
	return mii
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
// Independent all-pairs formulations that tests and the ablation benches
// compare against; nothing on a compile path calls them.  The production
// recurrence bound is RecurrenceMII (mii.go).

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
