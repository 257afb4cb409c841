package codegen

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
)

func ctxProgram() *ir.Program {
	b := ir.NewBuilder("ctxprog")
	b.Array("a", ir.KindFloat, 64)
	b.Array("c", ir.KindFloat, 64)
	cst := b.FConst(2.0)
	b.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		s := l.Pointer(0, 1)
		b.Store("c", s, b.FAdd(v, cst), ir.Aff(l.ID, 1, 0))
	})
	return b.P
}

func TestCompileAbortsOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Compile(ctxProgram(), machine.Warp(), Options{Ctx: ctx})
	if err == nil {
		t.Fatal("compile with a canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func TestCompileHonorsLiveContext(t *testing.T) {
	prog, rep, err := Compile(ctxProgram(), machine.Warp(), Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Instrs) == 0 || len(rep.Loops) != 1 {
		t.Fatalf("unexpected compile result: %d instrs, %d loops", len(prog.Instrs), len(rep.Loops))
	}
	if !rep.Loops[0].Pipelined {
		t.Fatal("loop did not pipeline under a live context")
	}
	if rep.Loops[0].Flops != 1 {
		t.Fatalf("loop Flops = %d, want 1 (one fadd per iteration)", rep.Loops[0].Flops)
	}
}

func TestCompileDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err := Compile(ctxProgram(), machine.Warp(), Options{Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// raceSlowdown stretches wall-clock bounds under the race detector
// (race_test.go).
var raceSlowdown time.Duration = 1

// TestHugeBlockMeetsItsDeadline: a 50,000-statement basic block is one
// list schedule.  Its ready nodes come off a heap, and compactRows polls
// the context after the dependence graph and after the schedule, so a
// 300 ms deadline ends the compile with an error that wraps
// context.DeadlineExceeded well inside two seconds.
func TestHugeBlockMeetsItsDeadline(t *testing.T) {
	bound := 2 * time.Second * raceSlowdown
	p, err := lang.Compile("program huge;\nvar a: array [0..0] of real;\n    s: real;\nbegin\n" +
		strings.Repeat("  s := s + a[0];\n", 50000) + "end.\n")
	if err != nil {
		t.Fatal(err)
	}
	var took time.Duration
	// Wall clock on a shared host: a descheduled process misses the bound
	// once, a compile that does not poll misses it every time.
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		start := time.Now()
		_, _, err = Compile(p, machine.Warp(), Options{Ctx: ctx})
		took = time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
		}
		if took <= bound {
			break
		}
	}
	if took > bound {
		t.Errorf("the deadlined compile took %v, want under %v", took, bound)
	}
}
