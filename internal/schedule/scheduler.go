package schedule

import (
	"fmt"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// Effort selects nothing: there is one search (New).  The type, its
// constants and ParseEffort stay for the frozen benchmark module and the
// service's cache key until ROADMAP item 3 deletes them.
type Effort int

// Efforts, both accepted and ignored.
const (
	EffortHeuristic Effort = iota
	EffortExact
)

// String renders the effort as its old flag spelling.
func (e Effort) String() string {
	switch e {
	case EffortHeuristic:
		return "heuristic"
	case EffortExact:
		return "exact"
	}
	return fmt.Sprintf("effort(%d)", int(e))
}

// ParseEffort maps an old -effort spelling to an Effort ("" means
// heuristic), and fails on any other.
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

// New returns the one II search for the analyzed loop, ExactSearcher; the
// Effort is ignored.  NewSearcher alone is the heuristic, the comparison
// point codegen.Options.HeuristicOnly reaches.
func New(_ Effort, a *depgraph.Analysis, m *machine.Machine) Scheduler {
	return NewExactSearcher(a, m)
}
