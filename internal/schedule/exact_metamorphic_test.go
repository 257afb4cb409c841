package schedule_test

import (
	"fmt"
	"math/rand"
	"testing"

	"softpipe/internal/depgraph"
	"softpipe/internal/hier"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/schedule"
	"softpipe/internal/workloads"
)

// innermost appends b's innermost pipelinable loops to out.
func innermost(b *ir.Block, out []*ir.LoopStmt) []*ir.LoopStmt {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ir.IfStmt:
			out = innermost(s.Else, innermost(s.Then, out))
		case *ir.LoopStmt:
			if inner := innermost(s.Body, nil); len(inner) > 0 {
				out = append(out, inner...)
			} else if !s.NoPipeline {
				out = append(out, s)
			}
		}
	}
	return out
}

// withOneMore is m with one more unit of resource r.
func withOneMore(m *machine.Machine, r machine.Resource) *machine.Machine {
	m2 := *m
	m2.Name = fmt.Sprintf("%s+%v", m.Name, r)
	m2.ResourceCount = append([]int(nil), m.ResourceCount...)
	m2.ResourceCount[r]++
	return &m2
}

// provedII is the exact search's interval for g on m, and whether the
// search proved it optimal.
func provedII(t *testing.T, g *depgraph.Graph, m *machine.Machine) (int, bool) {
	t.Helper()
	a, err := depgraph.Analyze(g, m)
	if err != nil {
		t.Fatal(err)
	}
	r, st, err := schedule.NewExactSearcher(a, m).Search(schedule.Options{
		ReserveBranch: true, BranchResource: machine.ResBranch,
	})
	if err != nil || !st.Proved {
		return 0, false
	}
	return r.II, true
}

// TestExactIINeverRisesWithResources is a metamorphic check of the exact
// search's refutations: every schedule on a machine fits the same machine
// with one more unit of any class, so the proved optimum there can be no
// larger.  A refutation that skipped a schedule shows up as an interval
// that rises.  The loops are randomLoop bodies and every innermost loop of
// the compile-exact pool, conditionals reduced, each searched with its
// expandable registers filtered like the pipeline's first plan.
func TestExactIINeverRisesWithResources(t *testing.T) {
	m := machine.Warp()
	seeds := 400
	if testing.Short() {
		seeds = 100
	}
	var progs []*ir.Program
	var names []string
	for seed := 0; seed < seeds; seed++ {
		progs = append(progs, schedule.RandomLoop(rand.New(rand.NewSource(int64(seed)))))
		names = append(names, fmt.Sprintf("randomLoop %d", seed))
	}
	for _, seed := range workloads.ExactSeeds() {
		progs = append(progs, workloads.RandomProgram(seed))
		names = append(names, fmt.Sprintf("fuzz%d", seed))
	}
	compared := 0
	for i, p := range progs {
		for _, l := range innermost(p.Body, nil) {
			nodes, err := hier.BuildNodes(p, m, l.ID, l.Body)
			if err != nil {
				continue
			}
			full := depgraph.BuildIndep(nodes, l.ID, l.Independent)
			g := full.Filter(full.Expandable)
			ii, ok := provedII(t, g, m)
			if !ok {
				continue
			}
			used := map[machine.Resource]bool{}
			for _, nd := range g.Nodes {
				for _, u := range nd.Reservation {
					used[u.Resource] = true
				}
			}
			for r := range machine.Resource(len(m.ResourceCount)) {
				if !used[r] {
					continue
				}
				more := withOneMore(m, r)
				ii2, ok := provedII(t, g, more)
				if !ok {
					continue
				}
				compared++
				if ii2 > ii {
					t.Errorf("%s loop %d: proved II %d on %s, %d on %s", names[i], l.ID, ii, m.Name, ii2, more.Name)
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no pair of proved intervals compared")
	}
	t.Logf("%d pairs of proved intervals compared", compared)
}
