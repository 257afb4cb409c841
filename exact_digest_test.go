package softpipe_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"softpipe"
	"softpipe/internal/codegen"
	"softpipe/internal/machine"
	"softpipe/internal/workloads"
)

// The exact objects are those the branch-and-bound below the heuristic's
// II works hardest on: the paper sources (saxpy and the Livermore
// kernels) on Warp and on every grid machine the compile-exact benchmark
// draws, and the RandomPrograms of its pool.  Every compile runs that
// search (schedule.New) within a node budget, so what they compile to
// depends on neither a clock nor the thread count.  TestCorpusDigest
// hashes them, one line each in testdata/corpus.digest; TestExactDigest
// holds the search's work on them.

// exactNodeCeiling bounds the decision-tree nodes the digest's exact
// searches explore in all, read off the compiles' own
// "schedule.exact_nodes" counters.  The trajectory: chronological
// backtracking explored 660,400, backjumping 160,061, and refuting
// intervals from their rigid recurrence groups before searching them
// 2,647.  Holding a modulo-expanded plan to an exhausted copy budget
// made k18 on fa2,fm2,mem2 search one more loop body: 2,705.  Planning the
// heuristic's plan beside every searched plan below its II searches no
// more: the heuristic alone makes it.
const exactNodeCeiling = 5_000

// exactMachines are Warp and the compile-exact grid points: the rotating
// point at width 1 and the MVE points at widths 2 and 4, each with one and
// with two memory ports.
func exactMachines(t *testing.T) []*softpipe.Machine {
	t.Helper()
	ms := []*softpipe.Machine{softpipe.Warp()}
	for _, g := range []machine.Gen{
		{FAdds: 1, FMuls: 1, RotatingRegs: true}, {FAdds: 2, FMuls: 2}, {FAdds: 4, FMuls: 4},
	} {
		for ports := 1; ports <= 2; ports++ {
			g.MemPorts = ports
			m, err := g.Machine()
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, m)
		}
	}
	return ms
}

// exactObjects are the digest's objects: every paper source on every
// exact machine, then every pool program on Warp.
func exactObjects(t *testing.T) (names []string, progs []*softpipe.Program, machines []*softpipe.Machine) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "saxpy.w2"))
	if err != nil {
		t.Fatal(err)
	}
	type source struct{ name, src string }
	paper := []source{{"saxpy", string(src)}}
	for _, k := range workloads.Livermore() {
		paper = append(paper, source{k.Name, k.Source})
	}
	for _, m := range exactMachines(t) {
		for _, s := range paper {
			p, err := softpipe.ParseSource(s.src)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			names = append(names, s.name+"@"+m.Name)
			progs = append(progs, p)
			machines = append(machines, m)
		}
	}
	for _, seed := range workloads.ExactSeeds() {
		names = append(names, fmt.Sprintf("fuzz%d", seed))
		progs = append(progs, workloads.RandomProgram(seed))
		machines = append(machines, softpipe.Warp())
	}
	return names, progs, machines
}

// TestExactDigest: no loop of an exact object runs out of the search's
// node budget (it would be hashed at the heuristic's plan, not the
// proved one), and the searches explore at most exactNodeCeiling nodes
// in all.
func TestExactDigest(t *testing.T) {
	names, progs, machines := exactObjects(t)
	tr := softpipe.NewTracer("exact-digest")
	eachProgram(len(progs), func(i int) {
		obj, err := softpipe.Compile(progs[i], machines[i], softpipe.Options{Tracer: tr})
		if err != nil {
			return // hashed as its error text by TestCorpusDigest
		}
		for _, lr := range obj.Report.Loops {
			if lr.FellBack {
				t.Errorf("%s: loop %d ran out of the search's node budget", names[i], lr.LoopID)
			}
		}
	})
	var nodes int64
	for _, e := range tr.Events() {
		if e.Ph == 'C' && e.Name == "schedule.exact_nodes" {
			nodes += e.Args[0].Val
		}
	}
	t.Logf("%d exact-search nodes explored", nodes)
	if nodes > exactNodeCeiling {
		t.Errorf("exact searches explored %d nodes, above the ceiling %d", nodes, exactNodeCeiling)
	}
}

// TestExactNeverLosesToHeuristic: the search below the heuristic's II
// lands on a lower II only to have the code generator keep the faster of
// the two plans, so no object may take more simulated cycles than its
// HeuristicOnly twin.  The objects are the exact digest's, its pool on the
// other compile-exact machines too, and draw/1046 on the corpus digest's
// machines: places where a lower II runs slower at the loop's trip count
// (draw/1046: 238 cycles at the heuristic's II against 274), or is refused
// for it where the heuristic's plan pipelines (fuzz131033212804 on
// fa4,fm4,mem2: 79 cycles against 119 unpipelined).
func TestExactNeverLosesToHeuristic(t *testing.T) {
	names, progs, machines := exactObjects(t)
	for _, m := range exactMachines(t)[1:] {
		for _, seed := range workloads.ExactSeeds() {
			names = append(names, fmt.Sprintf("fuzz%d@%s", seed, m.Name))
			progs = append(progs, workloads.RandomProgram(seed))
			machines = append(machines, m)
		}
	}
	for _, m := range digestMachines(t) {
		names = append(names, "draw/1046@"+m.Name)
		progs = append(progs, workloads.RandomProgram(1046))
		machines = append(machines, m)
	}
	var faster, kept atomic.Int64
	heuristicOnly := func(o *codegen.Options) { o.HeuristicOnly = true }
	eachProgram(len(progs), func(i int) {
		var cycles [2]int64
		for k, adjust := range []func(*codegen.Options){nil, heuristicOnly} {
			obj, err := softpipe.CompileWith(progs[i], machines[i], softpipe.Options{}, adjust)
			if err == nil {
				var res *softpipe.Result
				if res, err = obj.Run(); err == nil {
					cycles[k] = res.Cycles
				}
			}
			if err != nil {
				t.Errorf("%s: %v", names[i], err)
				return
			}
		}
		switch {
		case cycles[0] > cycles[1]:
			t.Errorf("%s: %d cycles, %d with the heuristic alone", names[i], cycles[0], cycles[1])
		case cycles[0] < cycles[1]:
			faster.Add(1)
		default:
			kept.Add(1)
		}
	})
	t.Logf("%d objects faster than with the heuristic alone, %d as fast", faster.Load(), kept.Load())
}
