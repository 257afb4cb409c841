package pipeline

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"softpipe/internal/depgraph"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

func innerNodes(t *testing.T, p *ir.Program, m *machine.Machine) ([]*depgraph.Node, int) {
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
	ops, _ := loop.Body.Ops()
	nodes := make([]*depgraph.Node, len(ops))
	for i, op := range ops {
		nodes[i] = depgraph.MustNodeFromOp(m, op)
	}
	return nodes, loop.ID
}

// longLived builds a loop where the loaded value is consumed after a long
// chain, forcing a multi-interval lifetime and hence unrolling.
func longLived() *ir.Program {
	b := ir.NewBuilder("life")
	b.Array("a", ir.KindFloat, 64)
	b.Array("c", ir.KindFloat, 64)
	b.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		q := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		w := b.FMul(v, v)
		x := b.FMul(w, w)
		y := b.FAdd(x, v) // v stays live across ~17 cycles
		b.Store("c", q, y, ir.Aff(l.ID, 1, 0))
	})
	return b.P
}

func TestMVELifetimesAndUnroll(t *testing.T) {
	m := machine.Warp()
	nodes, loopID := innerNodes(t, longLived(), m)
	plan, err := PlanLoop(nodes, loopID, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.II != 2 {
		t.Fatalf("II = %d, want 2 (two multiplies per iteration)", plan.II)
	}
	// v is live from load+3 to the final fadd read (≥ two multiply
	// latencies): lifetime > II ⇒ multiple copies ⇒ unroll > 1.
	if plan.Unroll < 2 {
		t.Errorf("unroll = %d, want > 1 for a long-lived value at II=2", plan.Unroll)
	}
	for r, q := range plan.Q {
		lt := plan.Lifetime[r]
		want := (lt + plan.II - 1) / plan.II
		if q != want {
			t.Errorf("q[%d] = %d, want ceil(%d/%d) = %d", r, q, lt, plan.II, want)
		}
		// min-unroll policy: copies is the smallest factor of unroll ≥ q.
		c := plan.Copies[r]
		if c < q || plan.Unroll%c != 0 {
			t.Errorf("copies[%d] = %d invalid for q=%d u=%d", r, c, q, plan.Unroll)
		}
	}
}

func TestMVEPolicies(t *testing.T) {
	m := machine.Warp()
	nodes, loopID := innerNodes(t, longLived(), m)
	min, err := PlanLoop(nodes, loopID, m, Options{Policy: PolicyMinUnroll})
	if err != nil {
		t.Fatal(err)
	}
	nodes2, _ := innerNodes(t, longLived(), m)
	lcm, err := PlanLoop(nodes2, loopID, m, Options{Policy: PolicyLCM})
	if err != nil {
		t.Fatal(err)
	}
	// LCM policy uses exactly q registers per variable; min-unroll may
	// round up but never unrolls more than lcm.
	for r, q := range lcm.Q {
		if lcm.Copies[r] != q {
			t.Errorf("lcm policy: copies[%d] = %d, want %d", r, lcm.Copies[r], q)
		}
	}
	if min.Unroll > lcm.Unroll {
		t.Errorf("min-unroll %d > lcm %d", min.Unroll, lcm.Unroll)
	}
}

func TestPowerOfTwoUnroll(t *testing.T) {
	m := machine.Warp()
	nodes, loopID := innerNodes(t, longLived(), m)
	plan, err := PlanLoop(nodes, loopID, m, Options{PowerOfTwoUnroll: true})
	if err != nil {
		t.Fatal(err)
	}
	if u := plan.Unroll; u&(u-1) != 0 {
		t.Errorf("unroll %d not a power of two", u)
	}
	for r, c := range plan.Copies {
		if plan.Unroll%c != 0 {
			t.Errorf("copies[%d] = %d does not divide unroll %d", r, c, plan.Unroll)
		}
	}
}

func TestDisableMVERaisesII(t *testing.T) {
	m := machine.Warp()
	nodes, loopID := innerNodes(t, longLived(), m)
	with, err := PlanLoop(nodes, loopID, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nodes2, _ := innerNodes(t, longLived(), m)
	without, err := PlanLoop(nodes2, loopID, m, Options{DisableMVE: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.II <= with.II {
		t.Errorf("disabling MVE should raise the II (with %d, without %d)", with.II, without.II)
	}
	if without.Unroll != 1 {
		t.Errorf("without MVE the kernel must not unroll, got %d", without.Unroll)
	}
}

func TestCopyBudgetDegrades(t *testing.T) {
	m := machine.Warp()
	nodes, loopID := innerNodes(t, longLived(), m)
	kind := func(r ir.VReg) ir.Kind { return ir.KindFloat }
	plan, err := PlanLoop(nodes, loopID, m, Options{
		CopyBudgetF: 1, CopyBudgetI: 1, RegKind: kind,
	})
	if err != nil {
		t.Fatal(err)
	}
	cf := 0
	for _, n := range plan.Copies {
		if n > 1 {
			cf += n - 1
		}
	}
	if cf > 2 { // float + int budget
		t.Errorf("budget exceeded: %d extra copies", cf)
	}
}

// TestExhaustedCopyBudgetAdmitsNoCopies: a headroom at or below zero
// gives a modulo-expanded plan no copy registers, so the retry un-expands
// until none are left; it is not read as "unlimited".
func TestExhaustedCopyBudgetAdmitsNoCopies(t *testing.T) {
	m := machine.Warp()
	nodes, loopID := innerNodes(t, longLived(), m)
	kind := func(r ir.VReg) ir.Kind { return ir.KindFloat }
	for _, budget := range []int{0, -3} {
		plan, err := PlanLoop(nodes, loopID, m, Options{CopyBudgetF: budget, CopyBudgetI: budget, RegKind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if cf, ci := plan.CopyRegs(kind); cf+ci != 0 {
			t.Errorf("budget %d: the plan keeps %d float and %d int copy registers", budget, cf, ci)
		}
	}
}

// Property: smallestFactorAtLeast returns a divisor of u that is >= q
// and minimal.
func TestSmallestFactorQuick(t *testing.T) {
	f := func(uRaw, qRaw uint8) bool {
		u := int(uRaw%16) + 1
		q := int(qRaw)%u + 1
		got := smallestFactorAtLeast(u, q)
		if got < q || u%got != 0 {
			return false
		}
		for f := q; f < got; f++ {
			if u%f == 0 {
				return false // not minimal
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSplit: Split is the one place a trip count is divided
// between remainder and kernel; the pieces must add back up to n, the
// remainder must stay below the unroll degree, and the shortest loop the
// region can run makes exactly one pass.
func TestSplit(t *testing.T) {
	m := machine.Warp()
	nodes, loopID := innerNodes(t, longLived(), m)
	plan, err := PlanLoop(nodes, loopID, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, fill := int64(plan.Unroll), int64(plan.Stages-1)
	if u < 2 {
		t.Fatalf("unroll = %d, want > 1 so the remainder is exercised", u)
	}
	if _, _, ok := plan.Split(fill + u - 1); ok {
		t.Errorf("Split(%d) accepted a loop too short for one kernel pass", fill+u-1)
	}
	for n := fill + u; n < fill+5*u; n++ {
		r, passes, ok := plan.Split(n)
		if !ok {
			t.Fatalf("Split(%d) refused", n)
		}
		if r < 0 || r >= u || passes < 1 || r+fill+passes*u != n {
			t.Errorf("Split(%d) = remainder %d, passes %d (stages %d, unroll %d)", n, r, passes, plan.Stages, u)
		}
	}
	if r, passes, _ := plan.Split(fill + u); r != 0 || passes != 1 {
		t.Errorf("Split(min) = %d, %d, want 0, 1", r, passes)
	}
	if r, passes, _ := plan.Split(fill + 4*u + 1); r != 1 || passes != 4 {
		t.Errorf("Split(min+3u+1) = %d, %d, want 1, 4", r, passes)
	}
}

// TestCopyIndexProperties: copy selection must cycle with period Copies[r]
// for expanded registers and stay 0 for everything else; the dead-write
// lifetime rule must count a trailing write's own land time (the fix for
// the write-back collision found by inner-loop unrolling).
func TestCopyIndexProperties(t *testing.T) {
	m := machine.Warp()
	nodes, loopID := innerNodes(t, longLived(), m)
	plan, err := PlanLoop(nodes, loopID, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var expanded ir.VReg = ir.NoReg
	for r, n := range plan.Copies {
		if n > 1 {
			expanded = r
		}
	}
	if expanded == ir.NoReg {
		t.Fatal("long-lived load should expand")
	}
	n := plan.Copies[expanded]
	for class := 0; class < 3*n; class++ {
		if got, want := plan.CopyIndex(expanded, class), class%n; got != want {
			t.Errorf("CopyIndex(%d) = %d, want %d", class, got, want)
		}
	}
	if plan.CopyIndex(ir.VReg(0), 5) != 0 {
		t.Error("unexpanded register must always use copy 0")
	}

	f, i := plan.CopyRegs(longLived().Kind)
	if f <= 0 {
		t.Errorf("float copy registers = %d, want > 0", f)
	}
	if i < 0 {
		t.Errorf("int copy registers = %d", i)
	}
}

// TestDeadFinalWriteLifetime: a register whose last event is a write (the
// value is never read) must still hold its copy until the write lands, so
// q reflects the write latency, not just the read span.
func TestDeadFinalWriteLifetime(t *testing.T) {
	b := ir.NewBuilder("deadwrite")
	b.Array("a", ir.KindFloat, 64)
	zero := b.IConst(0)
	b.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		q := b.P.NewReg(ir.KindInt)
		// q := 0; load a[q+...]; q := q + p  — the final add is dead.
		init := b.P.NewOp(machine.ClassIMov)
		init.Dst = q
		init.Src = []ir.VReg{zero}
		b.Emit(init)
		b.Load("a", q, nil)
		bump := b.P.NewOp(machine.ClassAdrAdd)
		bump.Dst = q
		bump.Src = []ir.VReg{q, p}
		b.Emit(bump)
	})
	m := machine.Warp()
	nodes, loopID := innerNodes(t, b.P, m)
	plan, err := PlanLoop(nodes, loopID, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Find q's vreg: the one with two writes (imov + adradd).  Its
	// lifetime must cover the dead adradd's write-back.
	for r, lt := range plan.Lifetime {
		qn := plan.Q[r]
		if qn*plan.II < lt {
			t.Errorf("r%d: q=%d II=%d does not cover lifetime %d", r, qn, plan.II, lt)
		}
	}
}

// TestProfitabilityGuards: the two §4.2 refusals, each against the
// locally compacted body — a loop whose initiation-interval bound is
// within 99% of the unpipelined period (KeepMarginal lifts that one, for
// loop reduction), and a body beyond the length threshold.
func TestProfitabilityGuards(t *testing.T) {
	m := machine.Warp()
	// acc := acc + a[i]: the recurrence through the adder makes the bound
	// 7, and the unpipelined loop already runs at 7 cycles an iteration.
	accumulate := func() *ir.Program {
		b := ir.NewBuilder("acc")
		b.Array("a", ir.KindFloat, 64)
		acc := b.FConst(0)
		b.ForN(64, func(l *ir.LoopCtx) {
			p := l.Pointer(0, 1)
			b.FAddTo(acc, acc, b.Load("a", p, ir.Aff(l.ID, 1, 0)))
		})
		return b.P
	}
	// A dependent chain of n adds compacts to 7n+ cycles.
	chain := func(n int) *ir.Program {
		b := ir.NewBuilder("chain")
		b.Array("a", ir.KindFloat, 64)
		b.Array("c", ir.KindFloat, 64)
		b.ForN(64, func(l *ir.LoopCtx) {
			p := l.Pointer(0, 1)
			q := l.Pointer(0, 1)
			v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
			for i := 0; i < n; i++ {
				v = b.FAdd(v, v)
			}
			b.Store("c", q, v, ir.Aff(l.ID, 1, 0))
		})
		return b.P
	}
	for _, tc := range []struct {
		name    string
		prog    *ir.Program
		opts    Options
		wantErr string // "" means the loop must plan
	}{
		{"marginal loop refused", accumulate(), Options{}, "within 99% of unpipelined length"},
		{"marginal loop kept on request", accumulate(), Options{KeepMarginal: true}, ""},
		{"body at the threshold planned", chain(42), Options{}, ""},
		{"body beyond the threshold refused", chain(43), Options{}, "beyond pipelining threshold 300"},
		{"threshold holds with the heuristic alone too", chain(43), Options{HeuristicOnly: true}, "beyond pipelining threshold 300"},
	} {
		nodes, loopID := innerNodes(t, tc.prog, m)
		plan, err := PlanLoop(nodes, loopID, m, tc.opts)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr == "":
			if k := plan.Kernel().String(); !strings.Contains(k, fmt.Sprintf("II=%d ", plan.II)) {
				t.Errorf("%s: kernel rendering lacks the II:\n%s", tc.name, k)
			}
		case err == nil || !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestConstructWindowFitsOneInterval: a reduced construct must fit
// within one initiation interval so the emitted kernel can fork into its
// arms without crossing the loop-back.  hier's constructs hold the
// sequencer for their whole window, and the search reserves the
// sequencer's last row for the loop-back first, so the modulo table
// enforces it and the floor is the window plus one.  A construct that
// does not hold the sequencer can wrap; that is a bug in whoever built
// it, reported as an internal error — not searched around.
func TestConstructWindowFitsOneInterval(t *testing.T) {
	m := machine.Warp()
	build := func(reservation []machine.ResUse) ([]*depgraph.Node, int, int, *depgraph.Node) {
		b := ir.NewBuilder("window")
		var bump *ir.Op
		b.ForN(64, func(l *ir.LoopCtx) {
			bump = b.P.NewOp(machine.ClassIAdd)
			bump.Dst = b.P.NewReg(ir.KindInt)
			bump.Src = []ir.VReg{l.Pointer(0, 1), l.Pointer(0, 1)}
			b.Emit(bump)
		})
		nodes, loopID := innerNodes(t, b.P, m)
		// The construct reads what the add produced one cycle earlier, so the
		// scheduler wants it at cycle 1: cycles 1..3.
		window := &depgraph.Node{
			Len:         3,
			Payload:     "window",
			Reservation: reservation,
			Reads:       []depgraph.RegRead{{Reg: bump.Dst}},
		}
		var at int
		for i, n := range nodes {
			if n.Op == bump {
				at = i + 1
			}
		}
		return append(nodes[:at:at], append([]*depgraph.Node{window}, nodes[at:]...)...), loopID, at, window
	}

	nodes, loopID, at, window := build([]machine.ResUse{
		{Resource: machine.ResBranch}, {Resource: machine.ResBranch, Offset: 1}, {Resource: machine.ResBranch, Offset: 2},
	})
	plan, err := PlanLoop(nodes, loopID, m, Options{KeepMarginal: true})
	if err != nil {
		t.Fatal(err)
	}
	if off := plan.Time[at] % plan.II; off+window.Len > plan.II {
		t.Errorf("construct at offset %d of II %d crosses the loop-back (len %d)", off, plan.II, window.Len)
	}
	if plan.II != window.Len+1 || plan.MII != plan.II {
		t.Errorf("II = %d, MII = %d: both should be the window (%d) plus the loop-back slot", plan.II, plan.MII, window.Len)
	}
	if !strings.Contains(plan.Kernel().String(), "construct/3") {
		t.Errorf("kernel rendering lacks the construct:\n%s", plan.Kernel().String())
	}

	nodes, loopID, _, _ = build([]machine.ResUse{{Resource: machine.ResFAdd}})
	if _, err := PlanLoop(nodes, loopID, m, Options{KeepMarginal: true}); err == nil || !strings.Contains(err.Error(), "internal: construct window") {
		t.Errorf("a construct that leaves the sequencer free and wraps: err = %v, want the internal error", err)
	}
}
