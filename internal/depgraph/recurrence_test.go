package depgraph_test

import (
	"context"
	"fmt"
	"math/rand"
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

// reused is the one Recurrence every checkRecurrence call bounds its
// graph with, so graphs of every size run in storage an earlier, larger
// or smaller one left behind.
var reused depgraph.Recurrence

// recMII is the recurrence bound a compile uses for g: Analyze's RecMII
// on warp, which is 0 when g has no recurrence and so no bound above 1.
func recMII(g *depgraph.Graph) (int, error) {
	a, err := depgraph.Analyze(g, machine.Warp())
	if err != nil {
		return 0, err
	}
	return max(a.RecMII, 1), nil
}

// checkRecurrence asserts the one search agrees with the all-pairs
// oracle on g, as Analyze runs it (RecMII, in fresh storage) and as the
// partition planner does (Recurrence.MIIFrom in reused storage, from 1
// and from above the bound) — in value, or all in refusing the graph
// with one text.
func checkRecurrence(t *testing.T, name string, g *depgraph.Graph) {
	t.Helper()
	got, gotErr := recMII(g)
	oracle, oracleErr := depgraph.RecurrenceMIIOracle(g)
	if (gotErr != nil) != (oracleErr != nil) {
		t.Errorf("%s: verdicts differ: Analyze err=%v, oracle err=%v", name, gotErr, oracleErr)
		return
	}
	for _, lo := range []int{1, oracle + 2} {
		from, fromErr := reused.MIIFrom(context.Background(), len(g.Nodes), g.Edges, lo)
		if fmt.Sprint(fromErr) != fmt.Sprint(oracleErr) || (fromErr == nil && from != max(lo, oracle)) {
			t.Errorf("%s: MIIFrom(%d) = %d, %v; want %d, %v", name, lo, from, fromErr, max(lo, oracle), oracleErr)
		}
	}
	if gotErr != nil {
		if gotErr.Error() != oracleErr.Error() {
			t.Errorf("%s: error text %q, oracle %q", name, gotErr, oracleErr)
		}
		return
	}
	if got != oracle {
		t.Errorf("%s: RecMII=%d oracle=%d\n%v", name, got, oracle, g)
	}
}

// TestRecurrenceMIIDifferential pins the recurrence bound a compile uses
// to the independent formulation on every innermost-loop graph of the
// evaluation corpora and on a synthetic doubly recurrent body, and holds
// each graph's components to checkComponentPaths.
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
	// A load/fmul/accumulate/store body whose store and accumulator both
	// recur.
	bld := ir.NewBuilder("tworec")
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
			checkRecurrence(t, name, g)
			checkComponentPaths(t, name, g)
			graphs++
			if rec, err := recMII(g); err == nil && rec > 1 {
				recurrent++
			}
		}
	}
	if graphs < 200 || recurrent < 50 {
		t.Errorf("corpus too thin to mean anything: %d graphs, %d with a recurrence bound above 1", graphs, recurrent)
	}
}

// recurrenceRows hand-builds the two illegal shapes — a zero-distance
// dependence cycle and a self-dependence within one iteration — next to
// their legal neighbours, and the empty graph, whose bound is 1.
var recurrenceRows = []struct {
	name    string
	g       *depgraph.Graph
	wantErr bool
	want    int
}{
	{"zero-distance-cycle", bareGraph(2,
		depgraph.Edge{From: 0, To: 1, Delay: 7},
		depgraph.Edge{From: 1, To: 0, Delay: 7}), true, 0},
	{"zero-distance-cycle-beside-legal-recurrence", bareGraph(4,
		depgraph.Edge{From: 0, To: 1, Delay: 3},
		depgraph.Edge{From: 1, To: 0, Delay: 4, Omega: 1},
		depgraph.Edge{From: 2, To: 3, Delay: 1},
		depgraph.Edge{From: 3, To: 2, Delay: 1}), true, 0},
	{"self-dependence", bareGraph(1,
		depgraph.Edge{From: 0, To: 0, Delay: 2}), true, 0},
	{"zero-distance-cycle-of-zero-delay", bareGraph(2,
		depgraph.Edge{From: 0, To: 1, Delay: 0},
		depgraph.Edge{From: 1, To: 0, Delay: 0}), false, 1},
	{"self-recurrence", bareGraph(1,
		depgraph.Edge{From: 0, To: 0, Delay: 7, Omega: 1}), false, 7},
	{"two-components", bareGraph(4,
		depgraph.Edge{From: 0, To: 1, Delay: 3},
		depgraph.Edge{From: 1, To: 0, Delay: 4, Omega: 1},
		depgraph.Edge{From: 1, To: 2, Delay: 9},
		depgraph.Edge{From: 2, To: 3, Delay: 5},
		depgraph.Edge{From: 3, To: 2, Delay: 6, Omega: 2}), false, 7},
	{"acyclic", bareGraph(2,
		depgraph.Edge{From: 0, To: 1, Delay: 7}), false, 1},
	{"empty", bareGraph(0), false, 1},
}

// TestRecurrenceMIIRejectsTogether: every formulation refuses the
// illegal rows of recurrenceRows and agrees on the legal ones.
func TestRecurrenceMIIRejectsTogether(t *testing.T) {
	for _, tc := range recurrenceRows {
		checkRecurrence(t, tc.name, tc.g)
		got, err := recMII(tc.g)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if err == nil && got != tc.want {
			t.Errorf("%s: RecMII = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestRecurrenceJumpsMatchOracle: the one recurrence search,
// Recurrence.MIIFrom, jumps from one positive cycle's own bound to the
// next instead of binary-searching, so it is held to the oracle (through
// checkRecurrence) on graphs with many competing cycles: random graphs
// of 1–12 nodes with negative delays, iteration distances up to 3 and
// zero-distance cycles, and the rings of TestComponentPathsMatchOracle.
func TestRecurrenceJumpsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	refused := 0
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		g := bareGraph(n)
		for k := rng.Intn(3 * n); k >= 0; k-- {
			g.Edges = append(g.Edges, depgraph.Edge{
				From:  rng.Intn(n),
				To:    rng.Intn(n),
				Delay: rng.Intn(14) - 3,
				Omega: rng.Intn(4),
			})
		}
		checkRecurrence(t, fmt.Sprintf("trial %d", trial), g)
		if _, err := depgraph.RecurrenceMIIOracle(g); err != nil {
			refused++
		}
	}
	for _, n := range []int{40, 120} {
		checkRecurrence(t, fmt.Sprintf("ring%d", n), ring(n, func(i int) int { return 1 + i*7%13 }))
	}
	t.Logf("%d of 2000 random graphs refused", refused)
	if refused == 0 || refused > 1000 {
		t.Errorf("%d of 2000 random graphs refused: the mix of legal and illegal graphs is off", refused)
	}
}

// FuzzRecurrence holds the one recurrence search to the oracle (through
// checkRecurrence) on graphs decoded from bytes: the first byte gives
// 0–12 nodes, and every four after it one edge with delay −3…10 and
// omega 0…3, as TestRecurrenceJumpsMatchOracle draws them, zero-distance
// cycles included.  The rows of recurrenceRows are its seeds.
func FuzzRecurrence(f *testing.F) {
	for _, tc := range recurrenceRows {
		data := []byte{byte(len(tc.g.Nodes))}
		for _, e := range tc.g.Edges {
			data = append(data, byte(e.From), byte(e.To), byte(e.Delay+3), byte(e.Omega))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 13
		g := bareGraph(n)
		for b := data[1:]; n > 0 && len(b) >= 4 && len(g.Edges) < 3*n; b = b[4:] {
			g.Edges = append(g.Edges, depgraph.Edge{
				From:  int(b[0]) % n,
				To:    int(b[1]) % n,
				Delay: int(b[2])%14 - 3,
				Omega: int(b[3]) % 4,
			})
		}
		checkRecurrence(t, fmt.Sprintf("%x", data), g)
	})
}
