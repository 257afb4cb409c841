package softpipe

import (
	"context"
	"errors"
	"strings"
	"testing"

	"softpipe/internal/workloads"
)

func buildKernel(t *testing.T, id int) *Program {
	t.Helper()
	for _, k := range workloads.Livermore() {
		if k.ID == id {
			p, err := k.Build()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	t.Fatalf("kernel %d not in corpus", id)
	return nil
}

func TestCompilePartitionedK1(t *testing.T) {
	p := buildKernel(t, 1)
	ao, err := CompilePartitioned(p, Machines(Warp(), 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ao.Width() != 2 {
		t.Fatalf("width %d", ao.Width())
	}
	if err := ao.Verify(nil); err != nil {
		t.Fatal(err)
	}
	res, err := ao.RunArray(nil, EngineInterp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CellStats) != 2 {
		t.Fatalf("cell stats %v", res.CellStats)
	}
	for i, cs := range res.CellStats {
		if cs.II <= 0 {
			t.Errorf("cell %d II = %d", i, cs.II)
		}
	}
	// §4.1: after the setup skew, a balanced array never stalls — each
	// cell's stall total must stay a small fraction of the wall clock.
	for i, cs := range res.CellStats {
		if cs.StallCycles > res.Cycles/2 {
			t.Errorf("cell %d stalled %d of %d cycles", i, cs.StallCycles, res.Cycles)
		}
	}
}

func TestCompileSourcePartitionedRejectsShapes(t *testing.T) {
	src := `program two;
const n = 8;
var a: array [0..7] of real; i: int;
begin
  for i := 0 to n-1 do a[i] := a[i] + 1.0;
  for i := 0 to n-1 do a[i] := a[i] * 2.0;
end.`
	_, err := CompileSourcePartitioned(src, Machines(Warp(), 2), Options{})
	if err == nil || !strings.Contains(err.Error(), "more than one top-level loop") {
		t.Fatalf("expected shape rejection, got %v", err)
	}
}

// TestCompilePartitionedHonorsCtx: the planner, not just the per-cell
// compiles after it, gives up on a done context — k7 on four cells is
// the corpus's widest split search.
func TestCompilePartitionedHonorsCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompilePartitioned(buildKernel(t, 7), Machines(Warp(), 4), Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "split search aborted") {
		t.Errorf("%v: the planner ran to completion and a cell compile noticed the context", err)
	}
}
