package hier

import (
	"errors"
	"testing"

	"softpipe/internal/depgraph"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// buildIf constructs a loop body whose single statement is a conditional
// and returns the reduced node plus the program.
func buildIf(t *testing.T, thenFn, elseFn func(b *ir.Builder, l *ir.LoopCtx, v ir.VReg)) (*depgraph.Node, *ir.Program) {
	t.Helper()
	b := ir.NewBuilder("ifred")
	b.Array("a", ir.KindFloat, 32)
	b.Array("c", ir.KindFloat, 32)
	zero := b.FConst(0)
	var node *depgraph.Node
	b.ForN(32, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		cond := b.FCmp(ir.PredGT, v, zero)
		b.If(cond, func() { thenFn(b, l, v) }, func() { elseFn(b, l, v) })
	})
	var loop *ir.LoopStmt
	for _, s := range b.P.Body.Stmts {
		if l, ok := s.(*ir.LoopStmt); ok {
			loop = l
		}
	}
	var ifStmt *ir.IfStmt
	for _, s := range loop.Body.Stmts {
		if i, ok := s.(*ir.IfStmt); ok {
			ifStmt = i
		}
	}
	m := machine.Warp()
	n, err := ReduceIf(b.P, m, loop.ID, ifStmt)
	if err != nil {
		t.Fatal(err)
	}
	node = n
	return node, b.P
}

func TestReduceIfLengthAndBranch(t *testing.T) {
	n, _ := buildIf(t,
		func(b *ir.Builder, l *ir.LoopCtx, v ir.VReg) {
			x := b.FMul(v, v)
			y := b.FMul(x, v)
			q := l.Pointer(0, 0)
			b.Store("c", q, y, nil)
		},
		func(b *ir.Builder, l *ir.LoopCtx, v ir.VReg) {
			q := l.Pointer(0, 0)
			b.Store("c", q, v, nil)
		})
	// Length = 1 (fork) + max arm length; the long arm has a dependent
	// fmul chain (7+7) plus the store.
	if n.Len < 1+15 {
		t.Errorf("construct length %d too short for the 15-cycle arm", n.Len)
	}
	// The sequencer must be reserved for the whole window, exactly once
	// per offset.
	branch := map[int]int{}
	for _, u := range n.Reservation {
		if u.Resource == machine.ResBranch {
			branch[u.Offset]++
		}
	}
	for off := 0; off < n.Len; off++ {
		if branch[off] != 1 {
			t.Errorf("branch reservation at offset %d = %d, want 1", off, branch[off])
		}
	}
}

func TestReduceIfUnionResources(t *testing.T) {
	n, _ := buildIf(t,
		func(b *ir.Builder, l *ir.LoopCtx, v ir.VReg) {
			q := l.Pointer(0, 0)
			b.Store("c", q, b.FAdd(v, v), nil)
		},
		func(b *ir.Builder, l *ir.LoopCtx, v ir.VReg) {
			q := l.Pointer(0, 0)
			b.Store("c", q, b.FMul(v, v), nil)
		})
	// The union must include both an adder and a multiplier slot (one
	// each: per-offset max, not sum).
	var fadd, fmul, stores int
	for _, u := range n.Reservation {
		switch u.Resource {
		case machine.ResFAdd:
			fadd++
		case machine.ResFMul:
			fmul++
		case machine.ResMemWr:
			stores++
		}
	}
	if fadd != 1 || fmul != 1 {
		t.Errorf("arm union: fadd=%d fmul=%d, want 1 each", fadd, fmul)
	}
	if stores != 1 {
		t.Errorf("store slots = %d, want max(1,1) = 1", stores)
	}
}

func TestReduceIfKillingSemantics(t *testing.T) {
	// A register written in both arms is killing; one written in only
	// one arm is partial.
	b := ir.NewBuilder("kill")
	b.Array("a", ir.KindFloat, 8)
	zero := b.FConst(0)
	both := b.FConst(1)
	only := b.FConst(2)
	var loop *ir.LoopStmt
	b.ForN(8, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		cond := b.FCmp(ir.PredGT, v, zero)
		b.If(cond, func() {
			b.FAssign(both, v)
			b.FAssign(only, v)
		}, func() {
			b.FAssign(both, zero)
		})
	})
	for _, s := range b.P.Body.Stmts {
		if l, ok := s.(*ir.LoopStmt); ok {
			loop = l
		}
	}
	var ifStmt *ir.IfStmt
	for _, s := range loop.Body.Stmts {
		if i, ok := s.(*ir.IfStmt); ok {
			ifStmt = i
		}
	}
	n, err := ReduceIf(b.P, machine.Warp(), loop.ID, ifStmt)
	if err != nil {
		t.Fatal(err)
	}
	w := map[ir.VReg]depgraph.RegWrite{}
	for _, wr := range n.Writes {
		w[wr.Reg] = wr
	}
	if !w[both].Killing {
		t.Errorf("register written in both arms must be killing")
	}
	if w[only].Killing {
		t.Errorf("register written in one arm must be partial")
	}
}

func TestBuildNodesRejectsLoops(t *testing.T) {
	b := ir.NewBuilder("nested")
	b.Array("a", ir.KindFloat, 8)
	var outer *ir.LoopStmt
	b.ForN(4, func(l *ir.LoopCtx) {
		b.ForN(4, func(inner *ir.LoopCtx) {
			p := inner.Pointer(0, 1)
			v := b.Load("a", p, nil)
			b.Store("a", p, v, nil)
		})
	})
	for _, s := range b.P.Body.Stmts {
		if l, ok := s.(*ir.LoopStmt); ok {
			outer = l
		}
	}
	if _, err := BuildNodes(b.P, machine.Warp(), outer.ID, outer.Body); !errors.Is(err, ErrLoopInside) {
		t.Fatalf("nested loop: BuildNodes returned %v, want ErrLoopInside", err)
	}
}

// TestBuildNodesNamesWhatItFound: a loop under a conditional and a loop
// directly in the body are refused with different texts — the reason
// reaches the user through LoopReport.Reason.
func TestBuildNodesNamesWhatItFound(t *testing.T) {
	b := ir.NewBuilder("condloop")
	b.Array("a", ir.KindFloat, 8)
	zero := b.FConst(0)
	outer := b.ForN(4, func(l *ir.LoopCtx) {
		v := b.Load("a", l.Pointer(0, 1), nil)
		b.If(b.FCmp(ir.PredGT, v, zero), func() {
			b.ForN(4, func(inner *ir.LoopCtx) {
				p := inner.Pointer(0, 1)
				b.Store("a", p, v, nil)
			})
		}, func() {})
	})
	if _, err := BuildNodes(b.P, machine.Warp(), outer.ID, outer.Body); !errors.Is(err, ErrLoopInCond) {
		t.Fatalf("loop under a conditional: BuildNodes returned %v, want ErrLoopInCond", err)
	}
}

func TestNestedIfPadRule(t *testing.T) {
	// A nested construct must never end at its arm's last row (the join
	// row must exist inside the arm).
	b := ir.NewBuilder("nestpad")
	b.Array("a", ir.KindFloat, 8)
	b.Array("c", ir.KindFloat, 8)
	zero := b.FConst(0)
	var loop *ir.LoopStmt
	b.ForN(8, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		c1 := b.FCmp(ir.PredGT, v, zero)
		b.If(c1, func() {
			c2 := b.FCmp(ir.PredLT, v, zero)
			b.If(c2, func() {
				q := l.Pointer(0, 0)
				b.Store("c", q, v, nil)
			}, func() {
				q := l.Pointer(0, 0)
				b.Store("c", q, zero, nil)
			})
		}, nil)
	})
	for _, s := range b.P.Body.Stmts {
		if l, ok := s.(*ir.LoopStmt); ok {
			loop = l
		}
	}
	var ifStmt *ir.IfStmt
	for _, s := range loop.Body.Stmts {
		if i, ok := s.(*ir.IfStmt); ok {
			ifStmt = i
		}
	}
	n, err := ReduceIf(b.P, machine.Warp(), loop.ID, ifStmt)
	if err != nil {
		t.Fatal(err)
	}
	pay := n.Payload.(*IfPayload)
	armLen := pay.Len - 1
	for _, pl := range pay.Then {
		if pl.Node.Payload != nil {
			if pl.Time+pl.Node.Len >= armLen {
				t.Errorf("nested window [%d,%d) must end before the arm's last row %d",
					pl.Time, pl.Time+pl.Node.Len, armLen)
			}
		}
	}
}
