package schedule_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"softpipe/internal/depgraph"
	"softpipe/internal/hier"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/schedule"
	"softpipe/internal/workloads"
)

// checkRigidWitness re-derives a refutation without search from the
// analysis graph alone.  A cycle witness must reach a positive cycle at s.
// A group witness must name members whose offsets from the first are
// forced: Bellman–Ford from the first member, along the arcs and against
// them, finds the longest paths there and back, and they must be the
// offset and its negation.  The members' reservations, recounted, must
// put Count uses of Res on Row, more than the machine has.
func checkRigidWitness(g *depgraph.Graph, m *machine.Machine, s int, w *schedule.RigidWitness) error {
	if w.Cycle >= 0 {
		if _, ok := longestFrom(g, s, w.Cycle, false); ok {
			return fmt.Errorf("no positive cycle is reachable from n%d", w.Cycle)
		}
		return nil
	}
	if len(w.Members) == 0 || len(w.Members) != len(w.Offsets) {
		return fmt.Errorf("%d members, %d offsets", len(w.Members), len(w.Offsets))
	}
	root := w.Members[0]
	there, ok := longestFrom(g, s, root, false)
	if !ok {
		return fmt.Errorf("a positive cycle is reachable from n%d", root)
	}
	back, _ := longestFrom(g, s, root, true)
	count := 0
	seen := map[int]bool{}
	for i, v := range w.Members {
		if seen[v] {
			return fmt.Errorf("n%d named twice", v)
		}
		seen[v] = true
		if there[v] != w.Offsets[i] || back[v] != -w.Offsets[i] {
			return fmt.Errorf("n%d is not forced to offset %d from n%d: paths %d there, %d back", v, w.Offsets[i], root, there[v], back[v])
		}
		for _, u := range g.Nodes[v].Reservation {
			if r := (w.Offsets[i] + u.Offset) % s; u.Resource == w.Res && (r == w.Row || r+s == w.Row) {
				count++
			}
		}
	}
	if count != w.Count || count <= m.ResourceCount[w.Res] {
		return fmt.Errorf("%v on row %d: %d uses recounted, witness says %d, %d units", w.Res, w.Row, count, w.Count, m.ResourceCount[w.Res])
	}
	return nil
}

// longestFrom is Bellman–Ford over every arc of g at interval s: the
// longest paths from src (to src when reversed), and false if they do not
// settle, i.e. a positive cycle is reachable.
func longestFrom(g *depgraph.Graph, s, src int, reversed bool) ([]int, bool) {
	const none = -1 << 40
	dist := make([]int, len(g.Nodes))
	for v := range dist {
		dist[v] = none
	}
	dist[src] = 0
	for range len(g.Nodes) + 1 {
		changed := false
		for _, e := range g.Edges {
			from, to := e.From, e.To
			if reversed {
				from, to = to, from
			}
			if dist[from] > none && dist[from]+e.Delay-s*e.Omega > dist[to] {
				dist[to] = dist[from] + e.Delay - s*e.Omega
				changed = true
			}
		}
		if !changed {
			return dist, true
		}
	}
	return dist, false
}

// TestRigidWitnessesCheck replays the exact objects' innermost loops from
// outside, as the compile-exact benchmark replays them: the paper sources
// on Warp and the six compile-exact grid points, the pool programs on
// Warp, each loop's conditionals reduced and its expandable registers
// filtered.  Every interval from the MII to the heuristic's that the rule
// refutes must come with a witness checkRigidWitness accepts; the
// heuristic's own interval, which has a schedule, must not be refuted.
func TestRigidWitnessesCheck(t *testing.T) {
	saxpy, err := os.ReadFile(filepath.Join("..", "..", "testdata", "saxpy.w2"))
	if err != nil {
		t.Fatal(err)
	}
	sources := []string{string(saxpy)}
	for _, k := range workloads.Livermore() {
		sources = append(sources, k.Source)
	}
	machines := []*machine.Machine{machine.Warp()}
	for _, g := range []machine.Gen{{FAdds: 1, FMuls: 1, RotatingRegs: true}, {FAdds: 2, FMuls: 2}, {FAdds: 4, FMuls: 4}} {
		for ports := 1; ports <= 2; ports++ {
			g.MemPorts = ports
			m, err := g.Machine()
			if err != nil {
				t.Fatal(err)
			}
			machines = append(machines, m)
		}
	}
	type object struct {
		p *ir.Program
		m *machine.Machine
	}
	var objs []object
	for _, m := range machines {
		for _, src := range sources {
			p, err := lang.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, object{p, m})
		}
	}
	for _, seed := range workloads.ExactSeeds() {
		objs = append(objs, object{workloads.RandomProgram(seed), machine.Warp()})
	}
	refuted := 0
	for _, o := range objs {
		for _, l := range innermost(o.p.Body, nil) {
			nodes, err := hier.BuildNodes(o.p, o.m, l.ID, l.Body)
			if err != nil {
				continue
			}
			full := depgraph.BuildIndep(nodes, l.ID, l.Independent)
			a, err := depgraph.Analyze(full.Filter(full.Expandable), o.m)
			if err != nil {
				continue
			}
			hr, _, err := schedule.NewSearcher(a, o.m).Search(schedule.Options{ReserveBranch: true, BranchResource: machine.ResBranch})
			if err != nil {
				continue
			}
			for s := a.MII; s <= hr.II; s++ {
				w := schedule.RefuteRigid(a, o.m, s)
				if w == nil {
					continue
				}
				refuted++
				if s == hr.II {
					t.Errorf("%s loop %d on %s: II %d refuted, the heuristic schedules it", o.p.Name, l.ID, o.m.Name, s)
				} else if err := checkRigidWitness(a.Graph, o.m, s, w); err != nil {
					t.Errorf("%s loop %d on %s, s=%d: witness %+v: %v", o.p.Name, l.ID, o.m.Name, s, *w, err)
				}
			}
		}
	}
	if refuted == 0 {
		t.Fatal("the rule refuted no interval")
	}
	t.Logf("%d objects, %d intervals refuted, every witness checked", len(objs), refuted)
}
