package depgraph_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// TestAnalyzeContextHonoursDeadline: one recurrence threading 2,000 nodes
// costs the closure O(n³) pair merges a sweep (Analyze does not return
// within 30 s on it), so the relaxation polls its context once a pivot:
// under a 100 ms deadline the analysis gives up within the second, with
// an error that wraps the context's.
func TestAnalyzeContextHonoursDeadline(t *testing.T) {
	const n = 2000
	g := &depgraph.Graph{}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, &depgraph.Node{Index: i, Len: 1})
		e := depgraph.Edge{From: i, To: (i + 1) % n, Delay: 1}
		if e.To == 0 {
			e.Omega = n // the cycle is tight at interval 1, so the bounds are cheap
		}
		g.Edges = append(g.Edges, e)
	}
	// The bound is wall clock on a shared host (and a late pivot is 4M
	// steps, slow under the race detector), so one miss is retried: a
	// descheduled process misses once, a lost poll misses every time.
	var over time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		start := time.Now()
		_, err := depgraph.AnalyzeContext(ctx, g, machine.Warp())
		over = time.Since(start) - 100*time.Millisecond
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("error %v, want one wrapping context.DeadlineExceeded", err)
		}
		if over <= time.Second {
			return
		}
	}
	t.Fatalf("analysis returned %v after its deadline", over)
}
