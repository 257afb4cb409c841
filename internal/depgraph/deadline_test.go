package depgraph_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"softpipe/internal/depgraph"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/pipeline"
	"softpipe/internal/schedule"
)

// withinDeadline runs f under a 100 ms deadline and requires it back
// within the second after, with an error that wraps the context's.  The
// bound is wall clock on a shared host (and the work between two polls is
// slow under the race detector), so one miss is retried: a descheduled
// process misses once, a lost poll misses every time.
func withinDeadline(t *testing.T, f func(ctx context.Context) error) {
	t.Helper()
	var over time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		start := time.Now()
		err := f(ctx)
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

// TestAnalyzeContextHonoursDeadline: the recurrence search relaxes edges
// in source order, so on a 20,000-node ladder whose zero-distance chain
// runs back from node i+1 to node i a pass advances the longest path by
// one node, and the one probe, at the bound 1, runs 20,000 passes of
// 40,000 edges (seconds in all) before it proves no cycle positive; the
// search polls its context once a pass.  The rungs forward, i to i+1 at
// distance 1, close the 2-cycles that bound it and lead Tarjan's walk up
// the chain in program order.
func TestAnalyzeContextHonoursDeadline(t *testing.T) {
	const n = 20000
	g := bareGraph(n)
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges,
			depgraph.Edge{From: i, To: i + 1, Omega: 1},
			depgraph.Edge{From: i + 1, To: i, Delay: 1})
	}
	withinDeadline(t, func(ctx context.Context) error {
		_, err := depgraph.AnalyzeContext(ctx, g, machine.Warp())
		return err
	})
}

// TestSearchHonoursDeadline: one recurrence threading 2,000 nodes costs
// the search an O(n³) longest-path sweep per candidate interval (7 s on
// these, and it then succeeds with no poll between candidates to stop
// it), so the sweep polls the search's context once a pivot — through
// Searcher.Search, and end to end through pipeline.PlanLoop.
func TestSearchHonoursDeadline(t *testing.T) {
	const n = 2000
	m := machine.Warp()
	t.Run("search", func(t *testing.T) {
		g := bareGraph(n)
		for i := 0; i < n; i++ {
			e := depgraph.Edge{From: i, To: (i + 1) % n, Delay: 1}
			if e.To == 0 {
				e.Omega = n // the cycle is tight at interval 1, so the bounds are cheap
			}
			g.Edges = append(g.Edges, e)
		}
		a, err := depgraph.Analyze(g, m)
		if err != nil {
			t.Fatal(err)
		}
		sr := schedule.NewSearcher(a, m)
		withinDeadline(t, func(ctx context.Context) error {
			_, _, err := sr.Search(schedule.Options{Ctx: ctx})
			return err
		})
	})
	t.Run("plan", func(t *testing.T) {
		// Node i reads the register node i+1 writes, i.e. last iteration's
		// value: a flow dependence back at distance 1 and an anti
		// dependence forward at distance 0 tie all n nodes into one
		// component whose compacted body is one cycle long.
		nodes := make([]*depgraph.Node, n)
		for i := range nodes {
			nodes[i] = &depgraph.Node{Index: i, Len: 1,
				Writes: []depgraph.RegWrite{{Reg: ir.VReg(i), AvailFirst: 1, AvailLast: 1, Killing: true}}}
			if i+1 < n {
				nodes[i].Reads = []depgraph.RegRead{{Reg: ir.VReg(i + 1)}}
			}
		}
		withinDeadline(t, func(ctx context.Context) error {
			_, err := pipeline.PlanLoop(nodes, 0, m, pipeline.Options{Ctx: ctx, KeepMarginal: true})
			return err
		})
	})
}
