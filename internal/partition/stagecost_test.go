package partition

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/workloads"
)

// ownQueues is a body with queue operations of its own between other
// clusters: a load cluster ahead of the receive cluster, a store cluster
// behind the send cluster.  Its intervals put the program's receives and
// sends beside the ones a cut inserts, which no corpus program does.
func ownQueues() *ir.Program {
	b := ir.NewBuilder("ownqueues")
	b.Array("a", ir.KindFloat, 32)
	b.Array("c", ir.KindFloat, 32)
	k := b.FConst(0.5)
	b.ForN(32, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		u := b.FMul(v, k)
		x := b.Recv()
		y := b.Recv()
		w := b.FAdd(x, u)
		b.Send(w)
		z := b.FMul(w, y)
		b.Send(z)
		b.Store("c", p, b.FAdd(z, v), ir.Aff(l.ID, 1, 0))
	})
	return b.P
}

// TestStageCostMatchesReference holds stageCost to refStageCost — a fresh
// node set, depgraph.BuildIndep and the full depgraph.Analyze — on every
// interval of the identity corpus (and ownQueues) on every machine of
// identityArrays, not only on those a split search reaches: the same MII,
// and no error on either side.  The graph-free floor the search prunes
// with must not exceed any cost.
func TestStageCostMatchesReference(t *testing.T) {
	machines := map[*machine.Machine]string{}
	for name, a := range identityArrays(t) {
		machines[a.m] = name
	}
	intervals, recurrent := 0, 0
	for _, p := range append(identityCorpus(t), ownQueues()) {
		for m, name := range machines {
			pl, cuts, err := newPlanner(p, m, 2)
			if err != nil {
				continue
			}
			ref, refCuts, _ := newPlanner(p, m, 2)
			pl.prepareSplit()
			C := len(pl.clusters)
			for i := 0; i < C; i++ {
				for j := i; j < C; j++ {
					mii, err := pl.stageCost(context.Background(), i, j, cuts)
					want, wantErr := ref.refStageCost(i, j, refCuts)
					if err != nil || wantErr != nil || mii != want {
						t.Errorf("%s on %s: [%d..%d] costs %d, %v; reference %d, %v", p.Name, name, i, j, mii, err, want, wantErr)
					}
					intervals++
					switch floor := pl.mm.resourceFloor(i, j); {
					case floor > mii:
						t.Errorf("%s on %s: [%d..%d] costs %d, below its resource floor %d", p.Name, name, i, j, mii, floor)
					case mii > floor:
						recurrent++
					}
				}
			}
		}
	}
	t.Logf("%d intervals, %d cost above their resource floor", intervals, recurrent)
	if recurrent == 0 {
		t.Errorf("corpus no longer exercises the bound above the resource floor")
	}
}

// TestStageCostAllocatesNothing: once its scratch has grown to the
// largest stage, costing an interval allocates nothing — the stage's
// edges, resource count and recurrence search all run in storage the
// planner keeps.  k7 on four cells is the widest split search of the
// corpus.
func TestStageCostAllocatesNothing(t *testing.T) {
	var k7 *ir.Program
	for _, k := range workloads.Livermore() {
		if k.ID == 7 {
			var err error
			if k7, err = k.Build(); err != nil {
				t.Fatal(err)
			}
		}
	}
	pl, cuts, err := newPlanner(k7, machine.Warp(), 4)
	if err != nil {
		t.Fatal(err)
	}
	pl.prepareSplit()
	C := len(pl.clusters)
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < C; i++ {
			for j := i; j < C; j++ {
				if _, err := pl.stageCost(context.Background(), i, j, cuts); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("costing all %d intervals of k7 allocates %.0f times", C*(C+1)/2, allocs)
	}
}

// TestMoreUnitsNeverRaiseStageCost: a cell with twice Warp's arithmetic
// units and memory ports, at the same latencies, never costs a stage
// higher than Warp does, on every interval of the identity corpus.  A
// slip in how the stage's resource uses are counted or divided by the
// units shows here.  Each machine has its own planner; the clusters
// depend on the dependences' kinds and distances, not on latencies or
// units, so the two range over the same intervals.
func TestMoreUnitsNeverRaiseStageCost(t *testing.T) {
	intervals, lower := 0, 0
	for _, p := range append(identityCorpus(t), ownQueues()) {
		narrowPl, narrowCuts, err := newPlanner(p, machine.Warp(), 2)
		if err != nil {
			continue
		}
		widePl, wideCuts, err := newPlanner(p, machine.Wide(2), 2)
		if err != nil {
			t.Fatalf("%s: plans on warp but not on wide2: %v", p.Name, err)
		}
		if !slices.EqualFunc(narrowPl.clusters, widePl.clusters, slices.Equal[[]int]) {
			t.Fatalf("%s: clusters differ between warp and wide2", p.Name)
		}
		narrowPl.prepareSplit()
		widePl.prepareSplit()
		C := len(narrowPl.clusters)
		for i := 0; i < C; i++ {
			for j := i; j < C; j++ {
				narrow, nerr := narrowPl.stageCost(context.Background(), i, j, narrowCuts)
				wider, werr := widePl.stageCost(context.Background(), i, j, wideCuts)
				intervals++
				switch {
				case nerr != nil || werr != nil:
					t.Errorf("%s [%d..%d]: %v on warp, %v on wide2", p.Name, i, j, nerr, werr)
				case wider > narrow:
					t.Errorf("%s [%d..%d]: %d on warp, %d on wide2", p.Name, i, j, narrow, wider)
				case wider < narrow:
					lower++
				}
			}
		}
	}
	t.Logf("%d intervals, %d cheaper on wide2", intervals, lower)
	if lower == 0 {
		t.Errorf("no interval is cheaper on wide2: the comparison shows nothing")
	}
}

// longChain is a loop body of one load, n dependent multiplies and a
// store: n+2 clusters with one value crossing every cut, so a split
// search over it costs O(n²) stages of up to n operations.
func longChain(n int) *ir.Program {
	b := ir.NewBuilder(fmt.Sprintf("chain%d", n))
	b.Array("a", ir.KindFloat, 16)
	b.Array("c", ir.KindFloat, 16)
	k := b.FConst(1.5)
	b.ForN(16, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		for range n {
			v = b.FMul(v, k)
		}
		b.Store("c", p, v, ir.Aff(l.ID, 1, 0))
	})
	return b.P
}

// TestSplitSearchHonoursDeadline: a 600-multiply chain on four cells
// costs the split search seconds, so it polls its context once a stage
// evaluation, not only between the cells of its table.  The bound is
// wall clock on a shared host, so one miss is retried, as in depgraph's
// deadline tests.
func TestSplitSearchHonoursDeadline(t *testing.T) {
	p := longChain(600)
	var over time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		start := time.Now()
		_, err := PartitionContext(ctx, p, warps(4))
		over = time.Since(start) - 100*time.Millisecond
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("error %v, want one wrapping context.DeadlineExceeded", err)
		}
		if over <= time.Second {
			return
		}
	}
	t.Fatalf("returned %v after its deadline", over)
}
