package depgraph

import (
	"context"
	"fmt"
	"sync"

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

// ResourceMIIExtra returns the lower bound on the initiation interval
// imposed by resource usage: the maximum over resources of
// ceil(total uses / available units) (Lam §2.2, resource constraints).
// It reads only the nodes of a body, and counts additional reserved uses
// (the pipeliner reserves the sequencer's branch field for the loop-back
// branch in every steady-state window).  It fails with a
// *MissingResourceError when some reserved resource has zero units on m.
func ResourceMIIExtra(nodes []*Node, m *machine.Machine, extra []machine.ResUse) (int, error) {
	uses := make([]int, len(m.ResourceCount))
	firstUser := make([]*Node, len(m.ResourceCount))
	for _, n := range nodes {
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

// Analyze performs the paper's preprocessing step on an already-filtered
// graph: find components and derive the MII.
func Analyze(g *Graph, m *machine.Machine) (*Analysis, error) {
	return AnalyzeContext(context.TODO(), g, m)
}

// AnalyzeContext is Analyze under a deadline: the recurrence bound's
// relaxation passes poll ctx, and the analysis fails with an error
// wrapping ctx.Err() once ctx is done.
func AnalyzeContext(ctx context.Context, g *Graph, m *machine.Machine) (*Analysis, error) {
	res, err := ResourceMIIExtra(g.Nodes, m, nil)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Graph: g, SCC: TarjanSCC(g), Bounds: Bounds{ResMII: res, MII: res}}
	a.edges = a.SCC.edges(g)
	for _, ce := range a.edges {
		a.HasRecurrence = a.HasRecurrence || len(ce) > 0
	}
	if a.HasRecurrence {
		// From 1, not from ResMII: RecMII is reported on its own.
		r := recurrences.Get().(*Recurrence)
		a.RecMII, err = r.MIIFrom(ctx, len(g.Nodes), g.Edges, 1)
		recurrences.Put(r)
		if err != nil {
			return nil, err
		}
	}
	a.MII = max(a.MII, a.RecMII, 1)
	return a, nil
}

// recurrences holds AnalyzeContext's scratch between analyses: a compile
// analyzes one loop body after another (and re-analyzes a body per MVE
// retry), so its bounds allocate nothing once the storage has grown.
var recurrences = sync.Pool{New: func() any { return new(Recurrence) }}

// Recurrence computes recurrence bounds of graphs given as bare edge
// lists, in storage it keeps between calls: once it has grown to the
// largest graph it is given, a bound allocates nothing.  Analyze bounds
// RecMII this way, and the partition planner bounds every candidate
// stage from the edges of its body graph that the stage keeps, without
// building a Graph.  The zero value is ready to use; it is not safe for
// concurrent use.
type Recurrence struct {
	first, dist, pred, seen []int
	edges                   []sccEdge
	weighted                []weightedEdge
}

// weightedEdge is an edge as one relaxation probe reads it: its weight
// delay − s·omega at the probe's interval s, in half an sccEdge's bytes.
// A pass over these, not over the sccEdges, is what keeps a long ladder's
// bound as fast as the binary search it replaced: skipping the cycle look
// after passes that changed no improving edge is not enough on its own.
type weightedEdge struct {
	from, to int32
	weight   int
}

// MIIFrom returns the smallest interval s ≥ lo at which no cycle of the
// graph on nodes 0..n-1 with the given edges has positive weight
// delay − s·omega, i.e. max(lo, max over cycles of ⌈delay/omega⌉) (Lam
// §2.2, precedence constraints): with lo the resource bound, that is the
// MII, and a graph already feasible at lo costs one probe.  Only From,
// To, Delay and Omega are read.  It fails when a cycle has positive
// delay at iteration distance zero — a self-dependence included — since
// no interval then satisfies it, and with an error wrapping ctx.Err()
// once ctx is done (polled once a relaxation pass).
//
// Rather than binary-search s, it jumps: a probe that finds a positive
// cycle moves s to that cycle's own bound ⌈delay/omega⌉, which no
// feasible interval is below, so s never passes the answer and the first
// probe that finds no positive cycle ends the search.  Cycles never
// leave a strongly connected component, so the whole graph is searched
// at once.  RecurrenceMIIOracle is the all-pairs formulation tests hold
// it to.
func (r *Recurrence) MIIFrom(ctx context.Context, n int, edges []Edge, lo int) (int, error) {
	// The edges by source in node order: a body's distance-0 edges all
	// point forward, so one relaxation pass in that order follows every
	// chain of them.
	first := grow(r.first, n+1)
	clear(first)
	for _, e := range edges {
		first[e.From+1]++
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	all := r.edges
	if cap(all) < len(edges) {
		all = make([]sccEdge, len(edges), max(len(edges), 2*cap(all)))
	}
	all = all[:len(edges)]
	// Any cycle with omega ≥ 1 is non-positive once s exceeds the total
	// positive delay; one still positive there has iteration distance
	// zero.
	hi := 1
	for _, e := range edges {
		all[first[e.From]] = sccEdge{e.From, e.To, e.Delay, e.Omega}
		first[e.From]++
		hi += max(e.Delay, 0)
	}
	r.first, r.edges = first, all
	r.dist, r.pred, r.seen = grow(r.dist, n), grow(r.pred, n), grow(r.seen, n)
	for s := max(lo, 1); ; {
		positive, delay, omega, err := r.cycleAt(ctx, all, s)
		if err != nil || !positive {
			return s, err
		}
		switch {
		case s >= hi || omega == 0 && delay > 0:
			return 0, fmt.Errorf("depgraph: dependence cycle with zero iteration distance")
		case omega > 0:
			s = max(s+1, ceilDiv(delay, omega))
		default:
			s++ // positive, but the cycle was not found
		}
	}
}

// cycleAt reports whether the graph with edges ce has a cycle of
// positive weight delay − s·omega, and when it can name one, that
// cycle's total delay and omega.  Longest paths from a virtual source
// joined to every node by a zero edge have at most len(r.dist)−1 real
// edges unless such a cycle exists, so a relaxation pass that still
// improves something after that many passes proves one.  It also keeps
// each node's last improving edge: a cycle of those edges is a positive
// one (it is checked all the same), so a look for one finds a positive
// cycle long before the passes prove that one exists.  It looks after a
// pass that changed some node's improving edge, the only passes after
// which the look can find what it did not before: a pass costs O(E), a
// look O(V), and on a long chain most passes only lengthen paths along
// the edges already kept.
func (r *Recurrence) cycleAt(ctx context.Context, ce []sccEdge, s int) (positive bool, delay, omega int, err error) {
	if len(ce) == 0 {
		return false, 0, 0, nil // no edge, no cycle: not even a pass to run
	}
	dist, pred := r.dist, r.pred
	for v := range dist {
		dist[v], pred[v] = 0, -1
	}
	we := r.weighted[:0]
	for _, e := range ce {
		we = append(we, weightedEdge{int32(e.from), int32(e.to), e.delay - s*e.omega})
	}
	r.weighted = we
	for range dist {
		if err := ctx.Err(); err != nil {
			return false, 0, 0, fmt.Errorf("depgraph: recurrence bound of a %d-node graph aborted: %w", len(dist), err)
		}
		changed, newPred := false, false
		for x, e := range we {
			if d := dist[e.from] + e.weight; d > dist[e.to] {
				dist[e.to] = d
				changed = true
				if pred[e.to] != x {
					pred[e.to], newPred = x, true
				}
			}
		}
		if !changed {
			return false, 0, 0, nil
		}
		if !newPred {
			continue
		}
		if delay, omega, ok := r.predCycle(ce); ok && delay-s*omega > 0 {
			return true, delay, omega, nil
		}
	}
	return true, 0, 0, nil
}

// predCycle looks for a cycle among the improving edges r.pred[v]
// (indices into ce, -1 for none) and returns its total delay and omega.
func (r *Recurrence) predCycle(ce []sccEdge) (delay, omega int, ok bool) {
	pred, seen := r.pred, r.seen
	for v := range seen {
		seen[v] = -1
	}
	for v := range pred {
		// Walk back from v, stamping with v; meeting v's stamp again
		// closes a cycle, meeting another walk's stamp does not.
		u := v
		for seen[u] < 0 && pred[u] >= 0 {
			seen[u] = v
			u = ce[pred[u]].from
		}
		if seen[u] != v {
			continue
		}
		for w := u; ; {
			e := ce[pred[w]]
			delay, omega = delay+e.delay, omega+e.omega
			if w = e.from; w == u {
				return delay, omega, true
			}
		}
	}
	return 0, 0, false
}

// grow returns s resized to n, reusing its storage when it is big enough
// and at least doubling it when not.
func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n, max(n, 2*cap(s)))
	}
	return s[:n]
}
