package schedule

import (
	"fmt"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// Effort selects the scheduling backend: the paper's near-optimal
// heuristic, or the exact branch-and-bound search that proves optimality
// (ROADMAP item 23; cf. Roorda's SMT formulation and the Lund CP study).
type Effort int

// Efforts.
const (
	// EffortHeuristic is Lam §2.2: iterative list scheduling with
	// precedence-constrained ranges.  Fast, near-optimal, may miss the
	// true minimum initiation interval.
	EffortHeuristic Effort = iota
	// EffortExact runs the heuristic first, then tries to prove each
	// smaller II feasible or infeasible by exhaustive CP-style search
	// over the modulo reservation table with dependence-range
	// propagation, under a per-loop time budget.  On budget exhaustion
	// it falls back to the heuristic schedule (never worse, never an
	// error).
	EffortExact
)

// String renders the effort as its flag spelling.
func (e Effort) String() string {
	switch e {
	case EffortHeuristic:
		return "heuristic"
	case EffortExact:
		return "exact"
	}
	return fmt.Sprintf("effort(%d)", int(e))
}

// ParseEffort maps a -effort flag value to an Effort ("" means
// heuristic).
func ParseEffort(s string) (Effort, error) {
	switch s {
	case "", "heuristic":
		return EffortHeuristic, nil
	case "exact":
		return EffortExact, nil
	}
	return 0, fmt.Errorf("schedule: unknown effort %q (want %q or %q)", s, EffortHeuristic, EffortExact)
}

// Scheduler finds the smallest feasible initiation interval for one
// analyzed loop and returns its kernel schedule.  Search may be called
// repeatedly on one Scheduler, say with a raised Options.MinII;
// implementations carry scratch and the accumulating explain report
// across calls.  A Scheduler is not safe for concurrent use.
type Scheduler interface {
	Search(opts Options) (*Result, *Stats, error)
}

// New returns the scheduler implementing the requested effort for the
// analyzed loop.  EffortHeuristic is the Searcher of Lam §2.2;
// EffortExact wraps it with the optimality-proving backend.
func New(effort Effort, a *depgraph.Analysis, m *machine.Machine) Scheduler {
	if effort == EffortExact {
		return NewExactSearcher(a, m)
	}
	return NewSearcher(a, m)
}
