package partition

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/depgraph"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/verify"
	"softpipe/internal/vliw"
	"softpipe/internal/workloads"
)

// fill presets a float array deterministically (mirrors the Livermore
// harness's initialization).
func fill(p *ir.Program, name string, lo, hi float64) {
	a := p.Array(name)
	a.InitF = make([]float64, a.Size)
	state := uint64(12345)
	for i := range a.InitF {
		state = state*6364136223846793005 + 1442695040888963407
		frac := float64(state>>11) / float64(1<<53)
		a.InitF[i] = lo + (hi-lo)*frac
	}
}

func buildSaxpy(t *testing.T) *ir.Program {
	t.Helper()
	p, err := lang.Compile(`program saxpy;
const n = 200;
var x, y: array [0..199] of real;
    a: real;
    i: int;
begin
  a := 3.0;
  for i := 0 to n-1 do
    y[i] := y[i] + a * x[i];
end.`)
	if err != nil {
		t.Fatal(err)
	}
	fill(p, "x", -1, 1)
	fill(p, "y", 0, 2)
	return p
}

// warps is n Warp cells, each its own *machine.Machine.
func warps(n int) []*machine.Machine {
	ms := make([]*machine.Machine, n)
	for i := range ms {
		ms[i] = machine.Warp()
	}
	return ms
}

// cellsOf is n cells of m, one pointer repeated.
func cellsOf(m *machine.Machine, n int) []*machine.Machine {
	ms := make([]*machine.Machine, n)
	for i := range ms {
		ms[i] = m
	}
	return ms
}

// chainInterp runs the fragments back to back through the IR interpreter,
// feeding each cell's Output into the next cell's Input, and returns the
// per-cell states plus the final host output.
func chainInterp(t *testing.T, plan *Plan, input []float64) ([]*ir.State, []float64) {
	t.Helper()
	states := make([]*ir.State, len(plan.Fragments))
	tape := input
	for i, f := range plan.Fragments {
		itp := ir.NewInterp(f)
		itp.Input = tape
		st, err := itp.Run()
		if err != nil {
			t.Fatalf("cell %d interp: %v", i, err)
		}
		states[i] = st
		tape = itp.Output
	}
	return states, tape
}

// checkAgainstReference compares the merged per-cell states against the
// single-cell reference run of the source program.
func checkAgainstReference(t *testing.T, src *ir.Program, plan *Plan, states []*ir.State, out, refOut []float64) {
	t.Helper()
	ref, err := ir.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range ref.FloatArrays {
		owner := plan.ArrayOwner[name]
		got := states[owner].FloatArrays[name]
		if len(got) != len(want) {
			t.Fatalf("array %q: owner cell %d has %d words, want %d", name, owner, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("array %q[%d]: cell %d has %v, reference %v", name, i, owner, got[i], want[i])
			}
		}
	}
	for name, want := range ref.Scalars {
		owner := plan.ResultOwner[name]
		got, ok := states[owner].Scalars[name]
		if !ok {
			t.Fatalf("result %q missing on owner cell %d", name, owner)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("result %q: cell %d has %v, reference %v", name, owner, got, want)
		}
	}
	if len(out) != len(refOut) {
		t.Fatalf("host output: %d words, reference %d", len(out), len(refOut))
	}
	for i := range out {
		if math.Float64bits(out[i]) != math.Float64bits(refOut[i]) {
			t.Fatalf("host output[%d]: %v, reference %v", i, out[i], refOut[i])
		}
	}
}

// compileAndRunArray compiles each fragment and runs the simulated array,
// returning per-cell states, host output, and the array stats.
func compileAndRunArray(t *testing.T, plan *Plan, input []float64) ([]*ir.State, []float64, sim.Stats) {
	t.Helper()
	cells := make([]*sim.Sim, len(plan.Fragments))
	for i, f := range plan.Fragments {
		obj, _, err := codegen.Compile(f, plan.Machine, codegen.Options{})
		if err != nil {
			t.Fatalf("cell %d compile: %v", i, err)
		}
		cells[i] = sim.New(obj, plan.Machine)
	}
	arr := sim.NewArrayCells(cells, input)
	out, _, err := arr.Run()
	if err != nil {
		t.Fatalf("array run: %v", err)
	}
	states := make([]*ir.State, len(cells))
	for i, c := range cells {
		states[i] = c.State()
	}
	return states, out, arr.Stats()
}

func TestPartitionSaxpyTwoCells(t *testing.T) {
	p := buildSaxpy(t)
	plan, err := Partition(p, warps(2))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cells() != 2 {
		t.Fatalf("got %d cells", plan.Cells())
	}
	refItp := ir.NewInterp(p)
	if _, err := refItp.Run(); err != nil {
		t.Fatal(err)
	}
	states, out := chainInterp(t, plan, nil)
	checkAgainstReference(t, p, plan, states, out, refItp.Output)

	simStates, simOut, _ := compileAndRunArray(t, plan, nil)
	checkAgainstReference(t, p, plan, simStates, simOut, refItp.Output)
}

func TestPartitionLivermoreWidths(t *testing.T) {
	for _, k := range workloads.Livermore() {
		for _, n := range []int{2, 4} {
			p, err := k.Build()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Partition(p, warps(n))
			if err != nil {
				// Multi-loop / conditional kernels are out of scope.
				t.Logf("k%d @%d: %v", k.ID, n, err)
				continue
			}
			refItp := ir.NewInterp(p)
			if _, err := refItp.Run(); err != nil {
				t.Fatal(err)
			}
			states, out := chainInterp(t, plan, nil)
			checkAgainstReference(t, p, plan, states, out, refItp.Output)
			simStates, simOut, _ := compileAndRunArray(t, plan, nil)
			checkAgainstReference(t, p, plan, simStates, simOut, refItp.Output)
		}
	}
}

// TestPartitionSpeedup is the ISSUE acceptance criterion: a two-cell
// partition of a Livermore kernel must beat the single cell by >= 1.4x
// in wall-clock cycles (steady-state throughput gain 1.5x, minus skew).
func TestPartitionSpeedup(t *testing.T) {
	var best float64
	for _, k := range workloads.Livermore() {
		p, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Partition(p, warps(2))
		if err != nil {
			continue
		}
		obj, _, err := codegen.Compile(p, machine.Warp(), codegen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, single, err := sim.Run(obj, machine.Warp())
		if err != nil {
			t.Fatal(err)
		}
		_, _, arrStats := compileAndRunArray(t, plan, nil)
		if arrStats.Cycles == 0 {
			continue
		}
		sp := float64(single.Cycles) / float64(arrStats.Cycles)
		t.Logf("k%d: single %d cycles, 2-cell array %d cycles (%.2fx)", k.ID, single.Cycles, arrStats.Cycles, sp)
		if sp > best {
			best = sp
		}
	}
	if best < 1.4 {
		t.Fatalf("best 2-cell speedup %.2fx, want >= 1.4x on at least one kernel", best)
	}
}

// TestPartitionVerifyArray runs the extended chained-provenance
// equivalence check over every partitionable Livermore kernel plus
// saxpy: per-cell object correctness, owner-cell dataflow, and host
// output, all against the single-cell reference.
func TestPartitionVerifyArray(t *testing.T) {
	progs := []*ir.Program{buildSaxpy(t)}
	for _, k := range workloads.Livermore() {
		p, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	verified := 0
	for _, p := range progs {
		plan, err := Partition(p, warps(2))
		if err != nil {
			continue
		}
		objs := make([]*vliw.Program, plan.Cells())
		for i, f := range plan.Fragments {
			obj, _, err := codegen.Compile(f, plan.Machine, codegen.Options{})
			if err != nil {
				t.Fatalf("%s cell %d compile: %v", p.Name, i, err)
			}
			objs[i] = obj
		}
		ap := verify.ArrayPlan{Fragments: plan.Fragments, ArrayOwner: plan.ArrayOwner, ResultOwner: plan.ResultOwner}
		ms := cellsOf(plan.Machine, plan.Cells())
		if err := verify.Array(p, ap, objs, ms, verify.Options{}); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		verified++

		// Negative path: objects that don't realize their fragments
		// (here: cells swapped) must be caught.
		swapped := []*vliw.Program{objs[1], objs[0]}
		if err := verify.Array(p, ap, swapped, ms, verify.Options{}); err == nil {
			t.Fatalf("%s: swapped cell objects not detected", p.Name)
		}
	}
	if verified < 5 {
		t.Fatalf("only %d programs verified; expected the bulk of the corpus", verified)
	}
}

func TestPartitionRejectsUnsupportedShapes(t *testing.T) {
	multi, err := lang.Compile(`program two;
const n = 8;
var a: array [0..7] of real; i: int;
begin
  for i := 0 to n-1 do a[i] := a[i] + 1.0;
  for i := 0 to n-1 do a[i] := a[i] * 2.0;
end.`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(multi, warps(2)); err == nil {
		t.Fatal("expected error for two top-level loops")
	}
}

func TestPartitionSingleCellIsClone(t *testing.T) {
	p := buildSaxpy(t)
	plan, err := Partition(p, warps(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ir.Run(plan.Fragments[0])
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ir.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range ref.FloatArrays {
		got := st.FloatArrays[name]
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("array %q[%d] differs", name, i)
			}
		}
	}
}

// --- Reference split search -----------------------------------------------
//
// The planner as it stood before stage costs went closure-free, memoised
// per interval and pruned: every candidate of the recurrence evaluated, one
// memo entry per (interval, stage index), each evaluation a fresh node
// set, a map-and-sort op list and the full depgraph.Analyze (oracle-free
// now, but closures and all).  It exists only so TestPlanIdentity can pin
// the production search to it.

func (pl *planner) refIntervalOps(i, j int, cuts []*cutValue) (ins, outs []*cutValue, included []int) {
	for _, cv := range cuts {
		if cv.prodStage < i && cv.lastConsum >= i {
			ins = append(ins, cv)
		}
		if cv.prodStage <= j && cv.lastConsum > j {
			outs = append(outs, cv)
		}
	}
	inSet := map[int]bool{}
	needed := map[ir.VReg]bool{}
	for ci := i; ci <= j; ci++ {
		for _, pos := range pl.clusters[ci] {
			inSet[pos] = true
			for _, r := range pl.sh.body[pos].Src {
				needed[r] = true
			}
		}
	}
	pl.replClosure(needed, inSet)
	for pos := range inSet {
		included = append(included, pos)
	}
	sort.Ints(included)
	return ins, outs, included
}

func (pl *planner) refStageCost(i, j int, cuts []*cutValue) (int, error) {
	ins, outs, included := pl.refIntervalOps(i, j, cuts)
	m := pl.mm.m
	var ops []*ir.Op
	id := 1 << 20
	for _, cv := range ins {
		ops = append(ops, &ir.Op{ID: id, Class: machine.ClassRecv, Dst: cv.reg})
		id++
	}
	for _, pos := range included {
		ops = append(ops, pl.sh.body[pos])
	}
	for _, cv := range outs {
		ops = append(ops, &ir.Op{ID: id, Class: machine.ClassSend, Dst: ir.NoReg, Src: []ir.VReg{cv.reg}})
		id++
	}
	nodes := make([]*depgraph.Node, len(ops))
	for k, o := range ops {
		n, err := depgraph.NodeFromOp(m, o)
		if err != nil {
			return 0, err
		}
		nodes[k] = n
	}
	g := depgraph.BuildIndep(nodes, pl.sh.loop.ID, pl.sh.loop.Independent)
	an, err := depgraph.Analyze(g, m)
	if err != nil {
		return 0, err
	}
	return an.MII, nil
}

// refBestSplit also reports how many stage costs it evaluated.
func (pl *planner) refBestSplit(cuts []*cutValue) (ends []int, estMII []int, evals int, err error) {
	C, N := len(pl.clusters), pl.cells
	if C < N {
		return nil, nil, 0, fmt.Errorf("partition: program decomposes into only %d pipeline stage(s); cannot fill %d cells", C, N)
	}
	const inf = math.MaxInt / 2
	type key struct{ i, j, s int }
	memo := map[key]int{}
	var costErr error
	cost := func(i, j, s int) int {
		k := key{i, j, s}
		if v, ok := memo[k]; ok {
			return v
		}
		v, cerr := pl.refStageCost(i, j, cuts)
		if cerr != nil {
			costErr = fmt.Errorf("partition: stage %d [%d..%d]: %w", s, i, j, cerr)
			v = inf
		}
		memo[k] = v
		return v
	}
	boundaryOK := func(b int) bool { return channelWidth(cuts, b) <= sim.QueueCapacity }

	dp := make([][]int, N)
	choice := make([][]int, N)
	for s := range dp {
		dp[s] = make([]int, C)
		choice[s] = make([]int, C)
		for j := range dp[s] {
			dp[s][j] = inf
			choice[s][j] = -1
		}
	}
	for j := 0; j <= C-N; j++ {
		if pl.recvCluster >= 0 && j < pl.recvCluster {
			continue
		}
		if pl.sendCluster >= 0 && N > 1 && j >= pl.sendCluster {
			continue
		}
		dp[0][j] = cost(0, j, 0)
	}
	for s := 1; s < N; s++ {
		for j := s; j < C; j++ {
			if s < N-1 {
				if j > C-1-(N-1-s) {
					continue
				}
				if pl.sendCluster >= 0 && j >= pl.sendCluster {
					continue
				}
			} else if j != C-1 {
				continue
			}
			for i := s; i <= j; i++ {
				if dp[s-1][i-1] >= inf || !boundaryOK(i) {
					continue
				}
				c := cost(i, j, s)
				v := dp[s-1][i-1]
				if c > v {
					v = c
				}
				if v < dp[s][j] {
					dp[s][j] = v
					choice[s][j] = i
				}
			}
		}
	}
	if costErr != nil {
		return nil, nil, len(memo), costErr
	}
	if dp[N-1][C-1] >= inf {
		return nil, nil, len(memo), fmt.Errorf("partition: no feasible %d-cell split (pinning or queue-capacity constraints unsatisfiable)", N)
	}
	ends = make([]int, N)
	ends[N-1] = C - 1
	for s := N - 1; s > 0; s-- {
		ends[s-1] = choice[s][ends[s]] - 1
	}
	estMII = make([]int, N)
	start := 0
	for s := 0; s < N; s++ {
		estMII[s] = memo[key{start, ends[s], s}]
		start = ends[s] + 1
	}
	return ends, estMII, len(memo), nil
}

// planText renders everything a plan decides.
func planText(plan *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "est=%v cuts=%v stages=%v\narrays=%v results=%v\n", plan.EstMII, plan.CutWidths, plan.Stages, plan.ArrayOwner, plan.ResultOwner)
	for _, f := range plan.Fragments {
		b.WriteString(f.String())
	}
	return b.String()
}

// identityCorpus is saxpy, the Livermore kernels and the chain corpus.
func identityCorpus(t *testing.T) []*ir.Program {
	t.Helper()
	progs := []*ir.Program{buildSaxpy(t)}
	for _, k := range workloads.Livermore() {
		p, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, seed := range workloads.ChainCorpusSeeds() {
		progs = append(progs, workloads.RandomChainProgram(seed))
	}
	return progs
}

// Verdicts of comparePlanners.
const (
	planAccepted = iota
	planDeclined
	planDiffers
)

// comparePlanners runs the production and the reference split search on
// p over cells copies of m and fails the test unless they agree: the
// same verdict and error text, and on acceptance the same split,
// estimates, cut widths, stage lists, owners and fragment text.  saved is
// the number of stage costs the production search did not evaluate.
func comparePlanners(t *testing.T, p *ir.Program, name string, a array) (verdict, saved int) {
	t.Helper()
	sameErr := func(what string, err, refErr error) bool {
		if (err != nil) != (refErr != nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Errorf("%s on %s: %s err = %v, reference %v", p.Name, name, what, err, refErr)
			return false
		}
		return true
	}
	pl, cuts, err := newPlanner(p, a.m, a.cells)
	ref, refCuts, refErr := newPlanner(p, a.m, a.cells)
	if !sameErr("front end", err, refErr) {
		return planDiffers, 0
	}
	if err != nil {
		return planDeclined, 0
	}
	ends, est, err := pl.bestSplit(context.Background(), cuts)
	refEnds, refEst, refEvals, refErr := ref.refBestSplit(refCuts)
	if !sameErr("split", err, refErr) {
		return planDiffers, 0
	}
	if err != nil {
		return planDeclined, 0
	}
	if !slices.Equal(ends, refEnds) || !slices.Equal(est, refEst) {
		t.Errorf("%s on %s: split %v est %v, reference %v est %v", p.Name, name, ends, est, refEnds, refEst)
		return planDiffers, 0
	}
	if pl.stats.CostEvals > refEvals {
		t.Errorf("%s on %s: %d stage costs evaluated, reference %d", p.Name, name, pl.stats.CostEvals, refEvals)
	}
	got, err := pl.emit(ends, est, cuts)
	want, refErr := ref.emit(refEnds, refEst, refCuts)
	if !sameErr("emit", err, refErr) {
		return planDiffers, 0
	}
	if err != nil {
		return planDeclined, 0
	}
	if g, w := planText(got), planText(want); g != w {
		t.Errorf("%s on %s: plan differs from the reference\n--- got\n%s--- want\n%s", p.Name, name, g, w)
		return planDiffers, 0
	}
	return planAccepted, refEvals - pl.stats.CostEvals
}

// lacking returns a Warp without units of resource r.
func lacking(r machine.Resource) *machine.Machine {
	m := machine.Warp()
	m.Name = fmt.Sprintf("warp-no-%v", r)
	m.ResourceCount = append([]int(nil), m.ResourceCount...)
	m.ResourceCount[r] = 0
	return m
}

// array is a homogeneous array: cells copies of m.
type array struct {
	m     *machine.Machine
	cells int
}

// identityArrays are homogeneous arrays of Warp at 2, 3 and 4 cells and
// of three other machines: twice Warp's units, a generated grid point,
// and one unit of each kind.
func identityArrays(t *testing.T) map[string]array {
	t.Helper()
	warp := machine.Warp()
	gen, err := machine.Parse("gen:fa2,fm2,mem2")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]array{
		"warp@2":             {warp, 2},
		"warp@3":             {warp, 3},
		"warp@4":             {warp, 4},
		"wide2@2":            {machine.Wide(2), 2},
		"gen:fa2,fm2,mem2@3": {gen, 3},
		"scalar@2":           {machine.Scalar(), 2},
	}
}

// TestPlanIdentity pins the production split search to the reference on
// saxpy, the Livermore kernels and the chain corpus on identityArrays.
func TestPlanIdentity(t *testing.T) {
	var verdicts [planDiffers + 1]int
	saved := 0
	arrays := identityArrays(t)
	for _, p := range identityCorpus(t) {
		for name, a := range arrays {
			v, n := comparePlanners(t, p, name, a)
			verdicts[v]++
			saved += n
		}
	}
	t.Logf("accepted %d, declined %d, stage-cost evaluations saved %d",
		verdicts[planAccepted], verdicts[planDeclined], saved)
	if verdicts[planAccepted] < 40 || verdicts[planDeclined] < 40 || saved == 0 {
		t.Errorf("corpus no longer exercises both verdicts and the pruning")
	}
}

// TestPartitionRefusesMixedCells: an array partitions across one
// machine, so a list naming two is refused up front, with both names,
// before the split search (which a context already done would abort).
// The same machine built twice is one machine.
func TestPartitionRefusesMixedCells(t *testing.T) {
	p := buildSaxpy(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ms := range [][]*machine.Machine{
		{machine.Warp(), machine.Wide(2)},
		{machine.Warp(), machine.Warp(), lacking(machine.ResFMul)},
	} {
		first, other := ms[0].Name, ms[len(ms)-1].Name
		_, err := PartitionContext(ctx, p, ms)
		if err == nil || !strings.Contains(err.Error(), first) || !strings.Contains(err.Error(), other) ||
			errors.Is(err, context.Canceled) {
			t.Errorf("%s … %s: error %v, want a refusal naming both", first, other, err)
		}
	}
	if _, err := Partition(p, warps(3)); err != nil {
		t.Errorf("three Warps built apart: %v", err)
	}
}

// TestPartitionRefusesMachineLackingUnit: a cell machine without a unit
// the body reserves (FMul for saxpy's multiply), or that the queue ops a
// cut inserts reserve, is refused before the split search, with the
// missing resource.
func TestPartitionRefusesMachineLackingUnit(t *testing.T) {
	p := buildSaxpy(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range []machine.Resource{machine.ResFMul, machine.ResQRecv, machine.ResQSend} {
		m := lacking(r)
		_, err := PartitionContext(ctx, p, cellsOf(m, 2))
		var missing *depgraph.MissingResourceError
		if !errors.As(err, &missing) || missing.Resource != r || missing.Machine != m.Name {
			t.Errorf("%s: error %v, want a refusal for lacking %v", m.Name, err, r)
		}
	}
}

// TestReplicableClassesPinned: "a result and every source in the int
// file", read off the class table, is exactly the pure integer/address
// classes.  A class that joins or leaves the set changes plans, so it is
// written out.
func TestReplicableClassesPinned(t *testing.T) {
	var got []string
	for c := machine.Class(0); c < machine.Class(machine.NumClasses()); c++ {
		if replicableClass(c) {
			got = append(got, c.String())
		}
	}
	want := "iadd isub imul imov iconst icmp adradd ishr iand"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("replicable classes %q, want %q", s, want)
	}
}
