package schedule_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"softpipe/internal/depgraph"
	"softpipe/internal/hier"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/schedule"
	"softpipe/internal/workloads"
)

// searchPin is the SHA-256 TestSearchPinned reads.
const searchPin = "177dfd849e5c9bf049107ac806cc1acf26ffb1f7febea3a90f4a6a499a8550a1"

// TestSearchPinned pins what the II search decides for each loop: its
// interval, issue times, Proved and FellBack flags and exact-search
// counts, linear and binary, on Warp with the loop-back's slot reserved.
// The loops are the oracle tests' pools and every innermost loop of the
// compile-exact pool programs, conditionals reduced and expandable
// registers filtered.  A refactor of the search must leave the hash alone.
func TestSearchPinned(t *testing.T) {
	m := machine.Warp()
	names, graphs := pinnedLoops(t, m)
	h := sha256.New()
	for i, g := range graphs {
		a, err := depgraph.Analyze(g, m)
		if err != nil {
			fmt.Fprintf(h, "%s: %v\n", names[i], err)
			continue
		}
		for _, binary := range []bool{false, true} {
			r, st, err := schedule.New(schedule.EffortExact, a, m).Search(schedule.Options{
				BinarySearch: binary, ReserveBranch: true, BranchResource: machine.ResBranch,
			})
			fmt.Fprintf(h, "%s binary=%v: ", names[i], binary)
			if err != nil {
				fmt.Fprintf(h, "%v\n", err)
				continue
			}
			fmt.Fprintf(h, "II %d times %v proved %v fellback %v nodes %d rigid %d\n",
				r.II, r.Time, st.Proved, st.FellBack, st.ExactNodes, st.ExactRigid)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != searchPin {
		t.Fatalf("search pin %s, want %s (%d loops)", got, searchPin, len(graphs))
	}
}

// pinnedLoops is TestSearchPinned's loops on m: the oracle tests' pools
// and every innermost loop of the compile-exact pool programs.
func pinnedLoops(t *testing.T, m *machine.Machine) ([]string, []*depgraph.Graph) {
	names, graphs := schedule.PinnedGraphs(t)
	for _, seed := range workloads.ExactSeeds() {
		names, graphs = loopGraphs(workloads.RandomProgram(seed), m, names, graphs)
	}
	return names, graphs
}

// loopGraphs appends p's innermost loops on m, conditionals reduced and
// expandable registers filtered, to names and graphs.
func loopGraphs(p *ir.Program, m *machine.Machine, names []string, graphs []*depgraph.Graph) ([]string, []*depgraph.Graph) {
	for _, l := range innermost(p.Body, nil) {
		nodes, err := hier.BuildNodes(p, m, l.ID, l.Body)
		if err != nil {
			continue
		}
		full := depgraph.BuildIndep(nodes, l.ID, l.Independent)
		names = append(names, fmt.Sprintf("%s loop %d", p.Name, l.ID))
		graphs = append(graphs, full.Filter(full.Expandable))
	}
	return names, graphs
}

// TestSearchComputesPathsOnce holds a search to one longest-path matrix
// per cyclic component per interval it tries, however many of the
// heuristic's attempt, refuteRigid and the branch-and-bound decide it:
// on TestSearchPinned's loops on Warp and on Livermore kernel 18 on
// gen:fa2,fm2,mem2,lat7/7/3,fr62, where the exact search decides the
// interval the heuristic fails.
func TestSearchComputesPathsOnce(t *testing.T) {
	warp := machine.Warp()
	gen, err := machine.Parse("gen:fa2,fm2,mem2,lat7/7/3,fr62")
	if err != nil {
		t.Fatal(err)
	}
	names, graphs := pinnedLoops(t, warp)
	k18 := len(graphs) // graphs[k18:] are kernel 18's, on gen
	for _, k := range workloads.Livermore() {
		if k.ID == 18 {
			p, err := lang.Compile(k.Source)
			if err != nil {
				t.Fatal(err)
			}
			names, graphs = loopGraphs(p, gen, names, graphs)
		}
	}
	if len(graphs) == k18 {
		t.Fatal("kernel 18 has no loop")
	}
	paths, decided, k18Decided := 0, 0, false
	for i, g := range graphs {
		m := warp
		if i >= k18 {
			m = gen
		}
		a, err := depgraph.Analyze(g, m)
		if err != nil {
			continue
		}
		cyclic := 0
		for ci := range a.SCC.Components {
			if a.Cyclic(ci) {
				cyclic++
			}
		}
		r, st, err := schedule.New(schedule.EffortExact, a, m).Search(schedule.Options{
			ReserveBranch: true, BranchResource: machine.ResBranch,
		})
		if err != nil {
			t.Fatalf("%s on %s: %v", names[i], m.Name, err)
		}
		if tried := r.II - a.MII + 1; st.Paths > cyclic*tried {
			t.Errorf("%s on %s: %d longest-path matrices for %d cyclic components over %d intervals",
				names[i], m.Name, st.Paths, cyclic, tried)
		}
		paths += st.Paths
		if st.ExactNodes > 0 || st.ExactRigid > 0 {
			decided++
			k18Decided = k18Decided || m == gen
		}
	}
	if !k18Decided {
		t.Fatal("the exact search decided no interval of kernel 18")
	}
	t.Logf("%d loops, %d of them with intervals the exact search decided, %d longest-path matrices", len(graphs), decided, paths)
}
