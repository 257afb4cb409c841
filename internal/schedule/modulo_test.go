package schedule

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"softpipe/internal/depgraph"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

func innerLoopNodes(t *testing.T, p *ir.Program, m *machine.Machine) ([]*depgraph.Node, int) {
	t.Helper()
	var loop *ir.LoopStmt
	var find func(b *ir.Block)
	find = func(b *ir.Block) {
		for _, s := range b.Stmts {
			if l, ok := s.(*ir.LoopStmt); ok {
				loop = l
				find(l.Body)
			}
		}
	}
	find(p.Body)
	if loop == nil {
		t.Fatal("no loop")
	}
	ops, ok := loop.Body.Ops()
	if !ok {
		t.Fatal("not straight-line")
	}
	nodes := make([]*depgraph.Node, len(ops))
	for i, op := range ops {
		nodes[i] = depgraph.MustNodeFromOp(m, op)
	}
	return nodes, loop.ID
}

func analyze(t *testing.T, p *ir.Program, m *machine.Machine, expand bool) *depgraph.Analysis {
	t.Helper()
	nodes, loopID := innerLoopNodes(t, p, m)
	g := depgraph.Build(nodes, loopID)
	if expand {
		g = g.Filter(g.Expandable)
	}
	a, err := depgraph.Analyze(g, m)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestVectorAddAchievesII1(t *testing.T) {
	m := machine.Warp()
	b := ir.NewBuilder("vadd")
	b.Array("a", ir.KindFloat, 64)
	b.Array("c", ir.KindFloat, 64)
	cst := b.FConst(1.0)
	b.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		q := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		sum := b.FAdd(v, cst)
		b.Store("c", q, sum, ir.Aff(l.ID, 1, 0))
	})
	a := analyze(t, b.P, m, true)
	if a.MII != 1 {
		t.Fatalf("MII = %d, want 1", a.MII)
	}
	r, st, err := Modulo(a, m, Options{ReserveBranch: true, BranchResource: machine.ResBranch})
	if err != nil {
		t.Fatal(err)
	}
	if r.II != 1 {
		t.Errorf("II = %d, want 1 (paper §2: one iteration per cycle)", r.II)
	}
	if !st.MetLower {
		t.Errorf("should meet the lower bound")
	}
	if err := Verify(a.Graph, m, r); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestAccumulatorAchievesII7(t *testing.T) {
	m := machine.Warp()
	b := ir.NewBuilder("acc")
	b.Array("x", ir.KindFloat, 64)
	sum := b.FConst(0)
	b.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("x", p, ir.Aff(l.ID, 1, 0))
		b.FAddTo(sum, sum, v)
	})
	a := analyze(t, b.P, m, true)
	r, _, err := Modulo(a, m, Options{ReserveBranch: true, BranchResource: machine.ResBranch})
	if err != nil {
		t.Fatal(err)
	}
	if r.II != 7 {
		t.Errorf("II = %d, want 7 (adder latency recurrence)", r.II)
	}
	if err := Verify(a.Graph, m, r); err != nil {
		t.Errorf("verify: %v", err)
	}
}

// TestSaxpyResourceBound: y[i] += a*x[i] uses one fmul + one fadd + two
// loads + one store per iteration; the memory read port (2 uses) binds at
// II=2.
func TestSaxpyResourceBound(t *testing.T) {
	m := machine.Warp()
	b := ir.NewBuilder("saxpy")
	b.Array("x", ir.KindFloat, 64)
	b.Array("y", ir.KindFloat, 64)
	av := b.FConst(3.0)
	b.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		q := l.Pointer(0, 1)
		q2 := l.Pointer(0, 1)
		xv := b.Load("x", p, ir.Aff(l.ID, 1, 0))
		yv := b.Load("y", q, ir.Aff(l.ID, 1, 0))
		pr := b.FMul(av, xv)
		sum := b.FAdd(yv, pr)
		b.Store("y", q2, sum, ir.Aff(l.ID, 1, 0))
	})
	a := analyze(t, b.P, m, true)
	if a.ResMII != 2 {
		t.Fatalf("ResMII = %d, want 2 (two loads on the read port)", a.ResMII)
	}
	r, _, err := Modulo(a, m, Options{ReserveBranch: true, BranchResource: machine.ResBranch})
	if err != nil {
		t.Fatal(err)
	}
	if r.II != 2 {
		t.Errorf("II = %d, want 2", r.II)
	}
	if err := Verify(a.Graph, m, r); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestUnpipelinedPeriod(t *testing.T) {
	m := machine.Warp()
	b := ir.NewBuilder("acc")
	b.Array("x", ir.KindFloat, 8)
	sum := b.FConst(0)
	b.ForN(8, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("x", p, ir.Aff(l.ID, 1, 0))
		b.FAddTo(sum, sum, v)
	})
	a := analyze(t, b.P, m, false)
	r, err := List(a.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	period := PeriodFor(a.Graph, r, r.Length)
	// The accumulator fadd feeds itself across iterations (delay 7,
	// omega 1), so the non-overlapped period must cover the latency.
	if period < 7 {
		t.Errorf("period %d too short for in-flight accumulator", period)
	}
	if period < r.Length {
		t.Errorf("period %d below schedule length %d", period, r.Length)
	}
}

func TestBinarySearchFindsFeasible(t *testing.T) {
	m := machine.Warp()
	b := ir.NewBuilder("vadd")
	b.Array("a", ir.KindFloat, 64)
	cst := b.FConst(1.0)
	b.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		sum := b.FAdd(v, cst)
		b.Store("a", p, sum, ir.Aff(l.ID, 1, 0))
	})
	a := analyze(t, b.P, m, true)
	r, _, err := Modulo(a, m, Options{BinarySearch: true, ReserveBranch: true, BranchResource: machine.ResBranch})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(a.Graph, m, r); err != nil {
		t.Errorf("verify: %v", err)
	}
}

// TestBinarySearchIsHeuristicAlone: with Options.BinarySearch the exact
// search does not run, whatever the searcher, so an exact searcher's
// schedule is the heuristic's, explored no node and is not Proved.  On
// TestSearchPinned's oracle pools, on Warp with the loop-back reserved.
func TestBinarySearchIsHeuristicAlone(t *testing.T) {
	m := machine.Warp()
	opts := Options{BinarySearch: true, ReserveBranch: true, BranchResource: machine.ResBranch}
	for _, l := range oracleLoops(t, 150, 600, 200, 0) {
		a, err := depgraph.Analyze(l.g, m)
		if err != nil {
			continue
		}
		h, _, herr := NewSearcher(a, m).Search(opts)
		r, st, err := NewExactSearcher(a, m).Search(opts)
		if (err != nil) != (herr != nil) {
			t.Fatalf("%s: exact searcher error %v, heuristic's %v", l.name, err, herr)
		}
		if err != nil {
			continue
		}
		if r.II != h.II || !slices.Equal(r.Time, h.Time) {
			t.Fatalf("%s: exact searcher II %d times %v, heuristic's II %d times %v", l.name, r.II, r.Time, h.II, h.Time)
		}
		if st.Proved || st.FellBack || st.Exact || st.ExactNodes != 0 || st.ExactRigid != 0 {
			t.Fatalf("%s: the exact search ran: %+v", l.name, st)
		}
	}
}

// randomLoop builds a random but legal straight-line loop body.
func randomLoop(rng *rand.Rand) *ir.Program {
	b := ir.NewBuilder("rnd")
	b.Array("a", ir.KindFloat, 256)
	b.Array("c", ir.KindFloat, 256)
	nf := 1 + rng.Intn(3)
	consts := make([]ir.VReg, nf)
	for i := range consts {
		consts[i] = b.FConst(float64(i) + 0.5)
	}
	var acc ir.VReg = ir.NoReg
	if rng.Intn(2) == 0 {
		acc = b.FConst(0)
	}
	b.ForN(16, func(l *ir.LoopCtx) {
		vals := append([]ir.VReg{}, consts...)
		nloads := 1 + rng.Intn(3)
		for i := 0; i < nloads; i++ {
			p := l.Pointer(int64(rng.Intn(4)), 1)
			vals = append(vals, b.Load("a", p, ir.Aff(l.ID, 1, int64(rng.Intn(4)))))
		}
		nops := 1 + rng.Intn(6)
		for i := 0; i < nops; i++ {
			x := vals[rng.Intn(len(vals))]
			y := vals[rng.Intn(len(vals))]
			switch rng.Intn(3) {
			case 0:
				vals = append(vals, b.FAdd(x, y))
			case 1:
				vals = append(vals, b.FMul(x, y))
			default:
				vals = append(vals, b.FSub(x, y))
			}
		}
		if acc != ir.NoReg {
			b.FAddTo(acc, acc, vals[len(vals)-1])
		}
		q := l.Pointer(0, 1)
		b.Store("c", q, vals[len(vals)-1], ir.Aff(l.ID, 1, 0))
	})
	if acc != ir.NoReg {
		b.Result("acc", acc)
	}
	return b.P
}

// TestRandomLoopsScheduleAndVerify is the core invariant property test:
// every randomly generated loop must schedule at some II ≥ MII with no
// dependence or resource violation, with and without MVE filtering.
func TestRandomLoopsScheduleAndVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := machine.Warp()
	for trial := 0; trial < 800; trial++ {
		p := randomLoop(rng)
		if err := p.Validate(m); err != nil {
			t.Fatalf("trial %d: validate: %v", trial, err)
		}
		for _, expand := range []bool{false, true} {
			a := analyze(t, p, m, expand)
			r, st, err := Modulo(a, m, Options{ReserveBranch: true, BranchResource: machine.ResBranch})
			if err != nil {
				t.Fatalf("trial %d (expand=%v): %v", trial, expand, err)
			}
			if r.II < a.MII {
				t.Fatalf("trial %d: II %d below MII %d", trial, r.II, a.MII)
			}
			if err := Verify(a.Graph, m, r); err != nil {
				t.Fatalf("trial %d (expand=%v): %v\nII=%d stats=%+v", trial, expand, err, r.II, st)
			}
		}
	}
}

// TestLinearNeverWorseThanBinary: the linear search must achieve an II no
// larger than binary search (Lam §2.2: schedulability is not monotonic).
func TestLinearNeverWorseThanBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := machine.Warp()
	for trial := 0; trial < 250; trial++ {
		p := randomLoop(rng)
		a := analyze(t, p, m, true)
		lin, _, err := Modulo(a, m, Options{ReserveBranch: true, BranchResource: machine.ResBranch})
		if err != nil {
			t.Fatal(err)
		}
		bin, _, err := Modulo(a, m, Options{BinarySearch: true, ReserveBranch: true, BranchResource: machine.ResBranch})
		if err != nil {
			t.Fatal(err)
		}
		if lin.II > bin.II {
			t.Errorf("trial %d: linear II %d > binary II %d", trial, lin.II, bin.II)
		}
	}
}

// TestHeuristicFailsOnlyOnResources holds the invariant the explain report
// rests on: the precedence-constrained ranges never empty, so the
// heuristic search never reports errInternal and every candidate interval
// it gives up on names a node, or an aggregated component, that reserves
// the resource it blames.  It runs on randomLoop's seeds and on the
// tighter synthLoops, linear and binary, with and without the branch
// reservation.
func TestHeuristicFailsOnlyOnResources(t *testing.T) {
	m := machine.Warp()
	type loop struct {
		name string
		g    *depgraph.Graph
	}
	var loops []loop
	for seed := 0; seed < 150; seed++ {
		p := randomLoop(rand.New(rand.NewSource(int64(seed))))
		for _, expand := range []bool{false, true} {
			loops = append(loops, loop{fmt.Sprintf("randomLoop %d (expand=%v)", seed, expand), analyze(t, p, m, expand).Graph})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		loops = append(loops, loop{fmt.Sprintf("synthLoop %d", i), synthLoop(rng)})
	}
	failed := 0
	for _, l := range loops {
		a, err := depgraph.Analyze(l.g, m)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		for _, opts := range []Options{
			{},
			{ReserveBranch: true, BranchResource: machine.ResBranch},
			{ReserveBranch: true, BranchResource: machine.ResBranch, BinarySearch: true},
		} {
			r, _, err := NewSearcher(a, m).Search(opts)
			if err != nil { // errInternal included
				t.Fatalf("%s %+v: %v", l.name, opts, err)
			}
			for _, at := range r.Explain.Attempts {
				if at.OK {
					continue
				}
				failed++
				if at.Node < 0 || a.SCC.Comp[at.Node] != at.Comp {
					t.Fatalf("%s %+v: II=%d names node %d outside component %d", l.name, opts, at.II, at.Node, at.Comp)
				}
				members := []int{at.Node}
				if at.Aggregate {
					members = a.SCC.Components[at.Comp]
				}
				if !slices.ContainsFunc(members, func(v int) bool {
					return slices.ContainsFunc(l.g.Nodes[v].Reservation, func(u machine.ResUse) bool { return u.Resource == at.Cause.Resource })
				}) {
					t.Fatalf("%s %+v: %s blames %v, which nodes %v do not reserve", l.name, opts, at.Format(), at.Cause.Resource, members)
				}
			}
		}
	}
	if failed == 0 {
		t.Fatal("no candidate interval failed; the test checks nothing")
	}
	t.Logf("%d loops, %d failed attempts", len(loops), failed)
}
