package depgraph_test

import (
	"fmt"
	"testing"

	"softpipe/internal/depgraph"
	"softpipe/internal/hier"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/workloads"
)

// innermostLoops collects the loops of b that contain no other loop.
func innermostLoops(b *ir.Block, out []*ir.LoopStmt) []*ir.LoopStmt {
	for _, st := range b.Stmts {
		switch st := st.(type) {
		case *ir.LoopStmt:
			if inner := innermostLoops(st.Body, nil); len(inner) > 0 {
				out = append(out, inner...)
			} else {
				out = append(out, st)
			}
		case *ir.IfStmt:
			out = innermostLoops(st.Then, out)
			out = innermostLoops(st.Else, out)
		}
	}
	return out
}

// loopGraphs builds the dependence graphs the pipeliner analyzes for
// every innermost loop of p: the full graph and the one with every
// expandable register's removable edges filtered out.
func loopGraphs(t *testing.T, p *ir.Program, m *machine.Machine) map[string]*depgraph.Graph {
	t.Helper()
	out := map[string]*depgraph.Graph{}
	for _, l := range innermostLoops(p.Body, nil) {
		nodes, err := hier.BuildNodes(p, m, l.ID, l.Body)
		if err != nil {
			t.Fatalf("%s loop %d: %v", p.Name, l.ID, err)
		}
		full := depgraph.BuildIndep(nodes, l.ID, l.Independent)
		out[fmt.Sprintf("%s/loop%d/full", p.Name, l.ID)] = full
		out[fmt.Sprintf("%s/loop%d/mve", p.Name, l.ID)] = full.Filter(full.Expandable)
	}
	return out
}

// closureRecMII is the third formulation of the recurrence bound: the
// largest Closure.RecurrenceMII over the nontrivial components.  The
// closures are built with an evaluation floor, as Analyze builds them,
// and only report a bound that exceeds it.
func closureRecMII(g *depgraph.Graph, floor int) (int, error) {
	scc := depgraph.TarjanSCC(g)
	rec := 0
	for ci, comp := range scc.Components {
		if scc.IsTrivial(g, ci) {
			continue
		}
		cl, err := depgraph.NewClosure(g, comp, floor)
		if err != nil {
			return 0, err
		}
		if v := cl.RecurrenceMII(); v > rec {
			rec = v
		}
	}
	return rec, nil
}

// checkRecurrence asserts the three formulations agree on g: the
// production per-SCC positive-cycle bound, the all-pairs oracle, and the
// symbolic closures — in value, or all in refusing the graph.  res is
// the resource bound the graph is paired with.
//
// A closure is only cheap at a floor no cycle exceeds: one below the
// recurrence bound the critical cycle is profitable to wind maxWind
// times and the Pareto frontiers explode (k22: a minute, against 8 ms at
// the bound).  So graphs of up to 64 edges get the floor max(res,
// bound−1), where the closures must find the critical cycle themselves
// and report the bound exactly; larger ones get max(res, bound), where
// the closures confirm that nothing exceeds it.
func checkRecurrence(t *testing.T, name string, g *depgraph.Graph, res int) {
	t.Helper()
	got, gotErr := depgraph.RecurrenceMII(g)
	oracle, oracleErr := depgraph.RecurrenceMIIOracle(g)
	floor := max(res, oracle)
	if len(g.Edges) <= 64 {
		floor = max(res, oracle-1)
	}
	closure, closureErr := closureRecMII(g, floor)
	if (gotErr != nil) != (oracleErr != nil) || (gotErr != nil) != (closureErr != nil) {
		t.Errorf("%s: verdicts differ: RecurrenceMII err=%v, oracle err=%v, closure err=%v", name, gotErr, oracleErr, closureErr)
		return
	}
	if gotErr != nil {
		if gotErr.Error() != oracleErr.Error() {
			t.Errorf("%s: error text %q, oracle %q", name, gotErr, oracleErr)
		}
		return
	}
	if got != oracle || max(got, floor) != max(closure, floor) {
		t.Errorf("%s: RecurrenceMII=%d oracle=%d closure=%d (floor %d)\n%v", name, got, oracle, closure, floor, g)
	}
}

// TestRecurrenceMIIDifferential pins the production recurrence bound to
// the two independent formulations on every innermost-loop graph of the
// evaluation corpora and on the synthetic ablation graph.
func TestRecurrenceMIIDifferential(t *testing.T) {
	m := machine.Warp()
	var progs []*ir.Program
	for _, sp := range workloads.Suite() {
		progs = append(progs, sp.Prog)
	}
	for _, k := range workloads.Livermore() {
		p, err := k.Build()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		progs = append(progs, p)
	}
	for _, seed := range workloads.CorpusSeeds() {
		progs = append(progs, workloads.RandomProgram(seed))
	}
	for _, seed := range workloads.ChainCorpusSeeds() {
		progs = append(progs, workloads.RandomChainProgram(seed))
	}
	// The ablation benches' closureGraph: a load/fmul/accumulate/store
	// body whose store and accumulator both recur.
	bld := ir.NewBuilder("closure")
	bld.Array("a", ir.KindFloat, 64)
	acc := bld.FConst(0)
	bld.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := bld.Load("a", p, ir.Aff(l.ID, 1, 0))
		w := bld.FMul(v, v)
		bld.FAddTo(acc, acc, w)
		bld.Store("a", p, w, ir.Aff(l.ID, 1, 0))
	})
	progs = append(progs, bld.P)

	graphs, recurrent := 0, 0
	for _, p := range progs {
		for name, g := range loopGraphs(t, p, m) {
			res, err := depgraph.ResourceMII(g, m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkRecurrence(t, name, g, res)
			graphs++
			if rec, err := depgraph.RecurrenceMII(g); err == nil && rec > 1 {
				recurrent++
			}
		}
	}
	if graphs < 200 || recurrent < 50 {
		t.Errorf("corpus too thin to mean anything: %d graphs, %d with a recurrence bound above 1", graphs, recurrent)
	}
}

// TestRecurrenceMIIRejectsTogether hand-builds the two illegal shapes —
// a zero-distance dependence cycle and a self-dependence within one
// iteration — next to their legal neighbours: all three formulations
// refuse the former and agree on the latter.
func TestRecurrenceMIIRejectsTogether(t *testing.T) {
	graph := func(n int, edges ...depgraph.Edge) *depgraph.Graph {
		g := &depgraph.Graph{Edges: edges}
		for i := 0; i < n; i++ {
			g.Nodes = append(g.Nodes, &depgraph.Node{Index: i, Len: 1})
		}
		return g
	}
	cases := []struct {
		name    string
		g       *depgraph.Graph
		wantErr bool
		want    int
	}{
		{"zero-distance-cycle", graph(2,
			depgraph.Edge{From: 0, To: 1, Delay: 7},
			depgraph.Edge{From: 1, To: 0, Delay: 7}), true, 0},
		{"zero-distance-cycle-beside-legal-recurrence", graph(4,
			depgraph.Edge{From: 0, To: 1, Delay: 3},
			depgraph.Edge{From: 1, To: 0, Delay: 4, Omega: 1},
			depgraph.Edge{From: 2, To: 3, Delay: 1},
			depgraph.Edge{From: 3, To: 2, Delay: 1}), true, 0},
		{"self-dependence", graph(1,
			depgraph.Edge{From: 0, To: 0, Delay: 2}), true, 0},
		{"zero-distance-cycle-of-zero-delay", graph(2,
			depgraph.Edge{From: 0, To: 1, Delay: 0},
			depgraph.Edge{From: 1, To: 0, Delay: 0}), false, 1},
		{"self-recurrence", graph(1,
			depgraph.Edge{From: 0, To: 0, Delay: 7, Omega: 1}), false, 7},
		{"two-components", graph(4,
			depgraph.Edge{From: 0, To: 1, Delay: 3},
			depgraph.Edge{From: 1, To: 0, Delay: 4, Omega: 1},
			depgraph.Edge{From: 1, To: 2, Delay: 9},
			depgraph.Edge{From: 2, To: 3, Delay: 5},
			depgraph.Edge{From: 3, To: 2, Delay: 6, Omega: 2}), false, 7},
		{"acyclic", graph(2,
			depgraph.Edge{From: 0, To: 1, Delay: 7}), false, 1},
	}
	for _, tc := range cases {
		checkRecurrence(t, tc.name, tc.g, 1)
		got, err := depgraph.RecurrenceMII(tc.g)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if err == nil && got != tc.want {
			t.Errorf("%s: RecurrenceMII = %d, want %d", tc.name, got, tc.want)
		}
	}
}
