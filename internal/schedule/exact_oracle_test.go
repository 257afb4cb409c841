package schedule

import (
	"fmt"
	"math/rand"
	"testing"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// rowOracle decides, without ExactSearcher, whether g has a modulo
// schedule at interval s on m.  It enumerates a row in [0, s) for every
// node against a ModTable, with the payload-row rule (row + Len ≤ s) and,
// when reserveBranch is set, the loop-back's sequencer slot at row s−1.
// Writing σ(v) = k_v·s + r_v, a full set of rows fixes every arc's bound
// on the stage offsets, k_to − k_from ≥ ⌈(delay − s·omega − r_to +
// r_from)/s⌉, which Bellman–Ford decides.
//
// Two cuts keep the enumeration small, neither excluding a schedule:
// every schedule meets σ(v) − σ(u) ≥ D(u, v), the longest path at s over
// all arcs, so a positive cycle refutes s outright, and a prefix of rows
// is dropped when the same bound between its nodes, ⌈(D(u, v) − r_v +
// r_u)/s⌉, already has no solution.  Nodes take rows most constrained
// first (tightestFirst), so either cut comes early.
func rowOracle(g *depgraph.Graph, m *machine.Machine, s int, reserveBranch bool) bool {
	n := len(g.Nodes)
	const none = -1 << 40
	d := make([][]int, n)
	for u := range d {
		d[u] = make([]int, n)
		for v := range d[u] {
			d[u][v] = none
		}
	}
	for _, e := range g.Edges {
		d[e.From][e.To] = max(d[e.From][e.To], e.Delay-s*e.Omega)
	}
	for w := 0; w < n; w++ {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if d[u][w] > none && d[w][v] > none {
					d[u][v] = max(d[u][v], d[u][w]+d[w][v])
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if d[v][v] > 0 {
			return false
		}
	}
	tab := NewModTable(s, m)
	if reserveBranch {
		tab.Place([]machine.ResUse{{Resource: machine.ResBranch}}, s-1)
	}
	row := make([]int, n)
	k := make([]int, n)
	order := tightestFirst(g, m, d, none)
	// bounds holds, for every ordered pair of nodes with rows, the stage
	// bound their longest path implies.
	var bounds []stageBound
	var try func(i int) bool
	try = func(i int) bool {
		if !stagesExist(bounds, k) {
			return false
		}
		if i == n {
			arcs := make([]stageBound, 0, len(g.Edges))
			for _, e := range g.Edges {
				arcs = append(arcs, stageBound{e.From, e.To, ceilDiv(e.Delay-s*e.Omega-row[e.To]+row[e.From], s)})
			}
			return stagesExist(arcs, k)
		}
		v := order[i]
		nd := g.Nodes[v]
		for r := 0; r < s; r++ {
			if nd.Payload != nil && r+nd.Len > s {
				continue
			}
			if !tab.Fits(nd.Reservation, r) {
				continue
			}
			tab.Place(nd.Reservation, r)
			row[v] = r
			mark := len(bounds)
			for _, u := range order[:i+1] {
				if d[u][v] > none {
					bounds = append(bounds, stageBound{u, v, ceilDiv(d[u][v]-row[v]+row[u], s)})
				}
				if u != v && d[v][u] > none {
					bounds = append(bounds, stageBound{v, u, ceilDiv(d[v][u]-row[u]+row[v], s)})
				}
			}
			ok := try(i + 1)
			bounds = bounds[:mark]
			tab.Remove(nd.Reservation, r)
			if ok {
				return true
			}
		}
		return false
	}
	return try(0)
}

// stageBound is k_to − k_from ≥ c.
type stageBound struct{ from, to, c int }

// tightestFirst orders g's nodes so that each next one has the least
// slack to one already ordered, −(D(u, v) + D(v, u)): the room a cycle
// through both leaves, none when there is no such cycle.  Rows that a
// tight recurrence ties together are then chosen together, and a wrong
// one is cut at once.  The first node is the one with the least slack on
// a cycle through itself; ties go to the node whose busiest resource
// carries the most load, then to the lowest index.
func tightestFirst(g *depgraph.Graph, m *machine.Machine, d [][]int, none int) []int {
	n := len(g.Nodes)
	load := make([]int, len(m.ResourceCount))
	for _, nd := range g.Nodes {
		for _, u := range nd.Reservation {
			load[u.Resource]++
		}
	}
	busy := make([]float64, n)
	slack := make([]int, n)
	for v, nd := range g.Nodes {
		for _, u := range nd.Reservation {
			busy[v] = max(busy[v], float64(load[u.Resource])/float64(m.ResourceCount[u.Resource]))
		}
		slack[v] = exInf
		if d[v][v] > none {
			slack[v] = -d[v][v]
		}
	}
	done := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		best := -1
		for v := 0; v < n; v++ {
			if !done[v] && (best < 0 || slack[v] < slack[best] || slack[v] == slack[best] && busy[v] > busy[best]) {
				best = v
			}
		}
		done[best] = true
		order = append(order, best)
		for v := 0; v < n; v++ {
			if d[best][v] > none && d[v][best] > none {
				slack[v] = min(slack[v], -(d[best][v] + d[v][best]))
			}
		}
	}
	return order
}

// stagesExist reports whether integer stage offsets meet every bound:
// Bellman–Ford (longest paths from k ≡ 0), which settles within len(k)
// rounds unless a cycle is positive.
func stagesExist(bounds []stageBound, k []int) bool {
	clear(k)
	for round := 0; round <= len(k); round++ {
		changed := false
		for _, b := range bounds {
			if need := k[b.from] + b.c; need > k[b.to] {
				k[b.to] = need
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// checkModulo is the schedule side of the oracle: times meet every arc
// and, on one ModTable with the branch reservation, every resource and
// the payload-row rule.
func checkModulo(g *depgraph.Graph, m *machine.Machine, s int, reserveBranch bool, times []int) error {
	if err := Verify(g, m, &Result{II: s, Time: times}); err != nil {
		return err
	}
	tab := NewModTable(s, m)
	if reserveBranch {
		tab.Place([]machine.ResUse{{Resource: machine.ResBranch}}, s-1)
	}
	for v, nd := range g.Nodes {
		if nd.Payload != nil && times[v]%s+nd.Len > s {
			return fmt.Errorf("construct n%d at row %d wraps interval %d", v, times[v]%s, s)
		}
		if !tab.Fits(nd.Reservation, times[v]) {
			return fmt.Errorf("n%d at %d does not fit beside the loop-back's slot", v, times[v])
		}
		tab.Place(nd.Reservation, times[v])
	}
	return nil
}

// payloadGraphs are two hand-built loops with reduced constructs: one on
// a recurrence, one with two windows competing for the sequencer.
func payloadGraphs() []*depgraph.Graph {
	use := func(spec ...any) []machine.ResUse {
		var res []machine.ResUse
		for i := 0; i < len(spec); i += 2 {
			res = append(res, machine.ResUse{Resource: spec[i].(machine.Resource), Offset: spec[i+1].(int)})
		}
		return res
	}
	op := func(r machine.Resource) *depgraph.Node {
		return &depgraph.Node{Len: 1, Reservation: use(r, 0)}
	}
	window := func(l int, extra ...any) *depgraph.Node {
		var spec []any
		for i := 0; i < l; i++ {
			spec = append(spec, machine.ResBranch, i)
		}
		return &depgraph.Node{Len: l, Payload: "window", Reservation: use(append(spec, extra...)...)}
	}
	build := func(nodes []*depgraph.Node, edges []depgraph.Edge) *depgraph.Graph {
		for i, n := range nodes {
			n.Index = i
		}
		return &depgraph.Graph{Nodes: nodes, Edges: edges}
	}
	recurrence := build(
		[]*depgraph.Node{op(machine.ResFAdd), window(3, machine.ResFMul, 1), op(machine.ResFAdd), op(machine.ResALU)},
		[]depgraph.Edge{
			{From: 0, To: 1, Delay: 2}, {From: 1, To: 2, Delay: 3}, {From: 2, To: 0, Delay: 1, Omega: 1},
			{From: 3, To: 3, Delay: 1, Omega: 1}, {From: 3, To: 1, Delay: 1}, {From: 1, To: 3, Omega: 1},
		})
	twoWindows := build(
		[]*depgraph.Node{window(2, machine.ResFAdd, 0), window(3, machine.ResFAdd, 2), op(machine.ResFAdd), op(machine.ResFMul)},
		[]depgraph.Edge{
			{From: 0, To: 2, Delay: 1}, {From: 2, To: 1, Delay: 1}, {From: 1, To: 3, Delay: 2},
			{From: 3, To: 0, Delay: 1, Omega: 2}, {From: 2, To: 2, Delay: 2, Omega: 1},
		})
	return []*depgraph.Graph{recurrence, twoWindows}
}

// synthLoop is a random dependence graph of 6 to 10 single-issue
// operations, some holding a second unit a cycle or two later, with
// forward arcs and one to three loop-carried ones.  Its resources are
// tighter and its recurrences longer than randomLoop's, so intervals near
// its optimum take the search through deep backtracking — where a
// conflict set that misses a placement skips a schedule.
func synthLoop(rng *rand.Rand) *depgraph.Graph {
	units := []machine.Resource{machine.ResFAdd, machine.ResFMul, machine.ResALU, machine.ResMemRd}
	n := 6 + rng.Intn(5)
	g := &depgraph.Graph{}
	for v := 0; v < n; v++ {
		nd := &depgraph.Node{Index: v, Len: 1, Reservation: []machine.ResUse{{Resource: units[rng.Intn(len(units))]}}}
		if rng.Intn(3) == 0 {
			nd.Reservation = append(nd.Reservation, machine.ResUse{Resource: units[rng.Intn(len(units))], Offset: 1 + rng.Intn(2)})
		}
		g.Nodes = append(g.Nodes, nd)
	}
	for v := 1; v < n; v++ {
		for range 1 + rng.Intn(2) {
			g.Edges = append(g.Edges, depgraph.Edge{From: rng.Intn(v), To: v, Delay: rng.Intn(6)})
		}
	}
	for range 1 + rng.Intn(3) {
		u, v := rng.Intn(n), rng.Intn(n)
		g.Edges = append(g.Edges, depgraph.Edge{From: max(u, v), To: min(u, v), Delay: rng.Intn(4), Omega: 1 + rng.Intn(2)})
	}
	return g
}

// padPast64 spreads core's nodes over a graph of more than 64 nodes,
// where every odd one shares its conflict-set bit with an even one (core
// node j sits at index j/2, or 64 + j/2 when j is odd), and fills the
// other indices with free nodes: no reservation, no arcs.  Any schedule
// of core extends to the padding and back, and the fillers, each its own
// component no higher than core's anchor, are placed only after core.
func padPast64(core *depgraph.Graph) *depgraph.Graph {
	k := len(core.Nodes)
	at := make([]int, k)
	for j := range at {
		at[j] = j/2 + j%2*64
	}
	g := &depgraph.Graph{Nodes: make([]*depgraph.Node, 64+(k+1)/2)}
	for i := range g.Nodes {
		g.Nodes[i] = &depgraph.Node{Index: i, Len: 1}
	}
	for j, nd := range core.Nodes {
		c := *nd
		c.Index = at[j]
		g.Nodes[at[j]] = &c
	}
	for _, e := range core.Edges {
		e.From, e.To = at[e.From], at[e.To]
		g.Edges = append(g.Edges, e)
	}
	return g
}

// TestExactDecideMatchesRowOracle holds decide's verdict — tight pass,
// full gap-compression pass and backjumping together — to rowOracle on
// every small loop: every refutation must be one the oracle makes, and
// every schedule decide returns must check.  Padded past 64 nodes, where
// a conflict-set bit stands for two nodes, a synthLoop must get the
// verdict the oracle gives the loop itself.
func TestExactDecideMatchesRowOracle(t *testing.T) {
	m := machine.Warp()
	seeds, synths, padded, below, above := 150, 600, 200, 2, 3
	if testing.Short() {
		seeds, synths, padded, below, above = 50, 150, 50, 1, 1
	}
	// Each loop g is decided from MII−from to MII+above, against the
	// oracle's verdict on core (g itself, unless g is padded).  The search
	// never asks for an interval below the MII (it starts there), and on
	// the tighter synthLoops refuting one through the table can take it
	// millions of nodes, so those start at the MII.
	type loop struct {
		name    string
		g, core *depgraph.Graph
		from    int
	}
	var loops []loop
	for seed := 0; seed < seeds; seed++ {
		p := randomLoop(rand.New(rand.NewSource(int64(seed))))
		if err := p.Validate(m); err != nil {
			t.Fatalf("seed %d: validate: %v", seed, err)
		}
		for _, expand := range []bool{false, true} {
			if a := analyze(t, p, m, expand); len(a.Graph.Nodes) <= 9 {
				loops = append(loops, loop{fmt.Sprintf("randomLoop %d (expand=%v)", seed, expand), a.Graph, a.Graph, below})
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < synths; i++ {
		g := synthLoop(rng)
		loops = append(loops, loop{fmt.Sprintf("synthLoop %d", i), g, g, 0})
	}
	rng = rand.New(rand.NewSource(2))
	for i := 0; i < padded; i++ {
		core := synthLoop(rng)
		loops = append(loops, loop{fmt.Sprintf("padded synthLoop %d", i), padPast64(core), core, 0})
	}
	for i, g := range payloadGraphs() {
		loops = append(loops, loop{fmt.Sprintf("payload graph %d", i), g, g, below})
	}
	decisions, infeasible := 0, 0
	for _, l := range loops {
		g := l.g
		a, err := depgraph.Analyze(g, m)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		ex := NewExactSearcher(a, m)
		ex.budget = 1 << 62 // the oracle decides every interval; no budget may cut it short
		for s := max(1, a.MII-l.from); s <= a.MII+above; s++ {
			for _, reserve := range []bool{false, true} {
				opts := Options{ReserveBranch: reserve, BranchResource: machine.ResBranch}
				verdict, times := ex.decide(opts, s)
				want := rowOracle(l.core, m, s, reserve)
				decisions++
				where := fmt.Sprintf("%s, s=%d, reserveBranch=%v", l.name, s, reserve)
				switch verdict {
				case decFeasible:
					if err := checkModulo(g, m, s, reserve, times); err != nil {
						t.Fatalf("%s: decide's schedule %v fails: %v", where, times, err)
					}
					if !want {
						t.Fatalf("%s: decide found %v, the oracle found nothing", where, times)
					}
				case decInfeasible:
					infeasible++
					if want {
						t.Fatalf("%s: decide refuted an interval the oracle schedules\n%s", where, l.core)
					}
				default:
					t.Fatalf("%s: decide aborted (verdict %d)", where, verdict)
				}
			}
		}
	}
	t.Logf("%d loops, %d decisions, %d refuted", len(loops), decisions, infeasible)
}
