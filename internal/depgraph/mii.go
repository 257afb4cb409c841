package depgraph

import (
	"context"
	"fmt"

	"softpipe/internal/machine"
)

// MissingResourceError reports that the target machine provides zero
// units of a resource some scheduled operation reserves: no initiation
// interval can host the loop.  It surfaces as a structured compile
// error (and in the II-search explain report) instead of the division
// by zero the naive resource-MII formula would hit.
type MissingResourceError struct {
	Resource machine.Resource
	Machine  string
	// Node renders one operation reserving the missing resource; empty
	// when only an implicit reservation (e.g. the loop-back branch)
	// needs it.
	Node string
}

func (e *MissingResourceError) Error() string {
	who := e.Node
	if who == "" {
		who = "an implicit reservation"
	}
	return fmt.Sprintf("depgraph: machine %s lacks resource %v required by %s", e.Machine, e.Resource, who)
}

// ResourceMII returns the lower bound on the initiation interval imposed
// by resource usage: the maximum over resources of
// ceil(total uses / available units) (Lam §2.2, resource constraints).
// It fails with a *MissingResourceError when some reserved resource has
// zero units on m.
func ResourceMII(g *Graph, m *machine.Machine) (int, error) {
	return ResourceMIIExtra(g, m, nil)
}

// ResourceMIIExtra is ResourceMII with additional reserved uses counted
// (the pipeliner reserves the sequencer's branch field for the loop-back
// branch in every steady-state window).
func ResourceMIIExtra(g *Graph, m *machine.Machine, extra []machine.ResUse) (int, error) {
	uses := make([]int, len(m.ResourceCount))
	firstUser := make([]*Node, len(m.ResourceCount))
	for _, n := range g.Nodes {
		for _, u := range n.Reservation {
			if int(u.Resource) >= len(uses) {
				return 0, &MissingResourceError{Resource: u.Resource, Machine: m.Name, Node: n.String()}
			}
			if uses[u.Resource] == 0 {
				firstUser[u.Resource] = n
			}
			uses[u.Resource]++
		}
	}
	for _, u := range extra {
		if int(u.Resource) >= len(uses) {
			return 0, &MissingResourceError{Resource: u.Resource, Machine: m.Name}
		}
		uses[u.Resource]++
	}
	mii := 1
	for r, cnt := range uses {
		if cnt == 0 {
			continue
		}
		if m.ResourceCount[r] <= 0 {
			who := ""
			if firstUser[r] != nil {
				who = firstUser[r].String()
			}
			return 0, &MissingResourceError{Resource: machine.Resource(r), Machine: m.Name, Node: who}
		}
		if v := ceilDiv(cnt, m.ResourceCount[r]); v > mii {
			mii = v
		}
	}
	return mii, nil
}

// Bounds holds the two lower bounds on the initiation interval that
// Lam §2.2 derives before any scheduling starts.
type Bounds struct {
	ResMII int
	// RecMII is the raw recurrence bound — the smallest interval at which
	// no dependence cycle has positive slack — whether or not it exceeds
	// ResMII; 0 when the graph has no recurrence.
	RecMII int
	// MII is max(ResMII, RecMII, 1).
	MII int
	// HasRecurrence reports a nontrivial strongly connected component.
	HasRecurrence bool
}

// Analysis bundles the preprocessing results the iterative scheduler
// needs: the SCC decomposition, the MII bounds and each component's own
// edges, from which PathsAt and ZeroPaths compute longest paths at the
// interval being tried.
type Analysis struct {
	Graph *Graph
	SCC   *SCC
	edges [][]sccEdge // indexed by component; see SCC.edges
	Bounds
}

// Cyclic reports whether component c lies on a dependence cycle, a
// self-loop included.
func (a *Analysis) Cyclic(c int) bool { return len(a.edges[c]) > 0 }

// MIIBounds computes the resource and recurrence bounds of an
// already-filtered graph: what a caller needs when it only asks how fast
// a set of operations could run on m (the partition planner), not where
// to place them.  The bounds and errors are Analyze's.
func MIIBounds(g *Graph, m *machine.Machine) (Bounds, error) {
	a, err := AnalyzeContext(context.Background(), g, m)
	if err != nil {
		return Bounds{}, err
	}
	return a.Bounds, nil
}

// Analyze performs the paper's preprocessing step on an already-filtered
// graph: find components and derive the MII.
func Analyze(g *Graph, m *machine.Machine) (*Analysis, error) {
	return AnalyzeContext(context.TODO(), g, m)
}

// AnalyzeContext is Analyze under a deadline: the recurrence bound's
// positive-cycle probes poll ctx once a relaxation pass, and the analysis
// fails with an error wrapping ctx.Err() once ctx is done.
func AnalyzeContext(ctx context.Context, g *Graph, m *machine.Machine) (*Analysis, error) {
	res, err := ResourceMII(g, m)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Graph: g, SCC: TarjanSCC(g), Bounds: Bounds{ResMII: res, MII: res}}
	a.edges = a.SCC.edges(g)
	for _, ce := range a.edges {
		a.HasRecurrence = a.HasRecurrence || len(ce) > 0
	}
	if a.HasRecurrence {
		if a.RecMII, err = recurrenceMII(ctx, a.SCC, a.edges); err != nil {
			return nil, err
		}
	}
	a.MII = max(a.MII, a.RecMII, 1)
	return a, nil
}

// RecurrenceMII returns the recurrence bound of g: the smallest
// initiation interval s ≥ 1 at which no dependence cycle is positive,
// i.e. max over cycles of ceil(delay/omega) (Lam §2.2, precedence
// constraints).  It fails when a cycle has positive delay at iteration
// distance zero — a self-dependence included — since no interval then
// satisfies it.  This is the production bound; RecurrenceMIIOracle is
// the all-pairs formulation tests compare it against.
func RecurrenceMII(g *Graph) (int, error) {
	scc := TarjanSCC(g)
	return recurrenceMII(context.Background(), scc, scc.edges(g))
}

// recurrenceMII binary-searches each component that has edges for its
// smallest feasible interval.  Cycles never leave a component, so the
// bound of the graph is the largest bound of any component, and a
// component already feasible at the running maximum costs one probe.
// A probe is a single-source longest-path relaxation (O(V·E) on the
// component, no distance matrix).
func recurrenceMII(ctx context.Context, scc *SCC, edges [][]sccEdge) (int, error) {
	scratch := make([]int, len(scc.Comp))
	rec := 1
	for ci, ce := range edges {
		if len(ce) == 0 {
			continue
		}
		dist := scratch[:len(scc.Components[ci])]
		positive, err := positiveCycleAt(ctx, ce, dist, rec)
		if err != nil {
			return 0, err
		}
		if !positive {
			continue
		}
		// Any cycle with omega ≥ 1 is non-positive once s exceeds the
		// component's total positive delay; one still positive there has
		// iteration distance zero.
		hi := 1
		for _, e := range ce {
			if e.delay > 0 {
				hi += e.delay
			}
		}
		if hi > rec {
			if positive, err = positiveCycleAt(ctx, ce, dist, hi); err != nil {
				return 0, err
			}
		}
		if positive {
			return 0, fmt.Errorf("depgraph: dependence cycle with zero iteration distance")
		}
		lo := rec + 1
		for lo < hi {
			mid := (lo + hi) / 2
			if positive, err = positiveCycleAt(ctx, ce, dist, mid); err != nil {
				return 0, err
			}
			if positive {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		rec = lo
	}
	return rec, nil
}

// positiveCycleAt reports whether the component has a cycle of positive
// total weight delay − ii·omega.  Longest paths from a virtual source
// joined to every member by a zero edge have at most len(dist)−1 real
// edges unless such a cycle exists, so a relaxation pass that still
// improves something after that many passes proves one.  It polls ctx
// once a pass.
func positiveCycleAt(ctx context.Context, edges []sccEdge, dist []int, ii int) (bool, error) {
	for i := range dist {
		dist[i] = 0
	}
	for range dist {
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("depgraph: recurrence bound of a %d-node component aborted: %w", len(dist), err)
		}
		changed := false
		for _, e := range edges {
			if d := dist[e.from] + e.delay - ii*e.omega; d > dist[e.to] {
				dist[e.to] = d
				changed = true
			}
		}
		if !changed {
			return false, nil
		}
	}
	return true, nil
}
