package schedule

import (
	"errors"
	"fmt"
	"strings"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// ErrMaxIIBelowMII distinguishes a misconfigured search (Options.MaxII
// below the search floor, so no candidate interval exists) from genuine
// infeasibility.  Callers test with errors.Is.
var ErrMaxIIBelowMII = errors.New("MaxII below the minimum initiation interval")

// InfeasibleError reports that no candidate interval in [MII, MaxII]
// admitted a schedule; the per-candidate failure causes ride along.
type InfeasibleError struct {
	MII, MaxII int
	Binary     bool // the FPS-style binary search was in use
	Explain    *Explain
}

func (e *InfeasibleError) Error() string {
	suffix := ""
	if e.Binary {
		suffix = " (binary)"
	}
	return fmt.Sprintf("schedule: no feasible initiation interval in [%d, %d]%s", e.MII, e.MaxII, suffix)
}

// CauseKind classifies why a candidate initiation interval failed.
type CauseKind int

// Failure causes.
const (
	// CauseNone marks a successful attempt.
	CauseNone CauseKind = iota
	// CauseResource: every slot of the candidate's modulo window had a
	// reservation-table conflict (Resource/Row name the first blocker).
	CauseResource
	// CauseDependence: the precedence-constrained range of the op was
	// empty — its dependence lower bound exceeded its upper bound.
	CauseDependence
	// CauseMalformed: a structural invariant failed (an omega-0 cycle
	// survived analysis); should be unreachable on accepted graphs.
	CauseMalformed
)

// String renders the cause kind.
func (k CauseKind) String() string {
	switch k {
	case CauseNone:
		return "ok"
	case CauseResource:
		return "resource conflict"
	case CauseDependence:
		return "dependence bound"
	case CauseMalformed:
		return "malformed graph"
	}
	return fmt.Sprintf("cause(%d)", int(k))
}

// Cause pins one candidate-II failure to its binding constraint.
type Cause struct {
	Kind CauseKind

	// Resource conflict: the first over-capacity resource and the modulo
	// row (issue time mod II) at which it clashed, plus the scanned
	// window [WinLo, WinHi].
	Resource machine.Resource
	Row      int
	WinLo    int
	WinHi    int

	// Dependence bound: the empty range [Lo, Hi] and the already-placed
	// nodes whose longest paths imposed each side (-1 = unset).  When a
	// direct dependence edge connects the pair it is attached with its
	// delay/omega; otherwise the bound came through a longer path inside
	// the component (its depgraph PathsAt matrix at the candidate).
	Lo, Hi         int
	LoFrom, HiFrom int
	LoEdge, HiEdge *depgraph.Edge
}

// Attempt records the outcome of one candidate initiation interval.
type Attempt struct {
	II int
	OK bool
	// Node is the graph index of the op that failed placement (for
	// condensation failures of a multi-node component, its first member);
	// -1 when no single op is implicated.
	Node int
	// NodeDesc is the failing op rendered at record time, so reports
	// need no access to the graph.
	NodeDesc string
	// Comp is the SCC component being scheduled; Aggregate marks a
	// failure placing a whole reduced component in the condensation
	// phase rather than one op within a component.
	Comp      int
	Aggregate bool
	Cause     Cause
	// Note tags attempts made by a non-default backend (the exact search
	// records "exact: ..." verdicts alongside the heuristic's attempts).
	Note string
}

// Explain is the II-search explain report: why each candidate interval
// below the accepted one failed, and what bound the search floor.  Every
// search records one; it accumulates across repeated Search calls on one
// Searcher.
type Explain struct {
	MII    int // search floor actually used (incl. Options.MinII)
	ResMII int
	RecMII int
	MaxII  int
	// Achieved is the accepted interval; 0 while the search is failing.
	Achieved int
	Attempts []Attempt
	// PreFailure records an analysis- or profitability-stage failure
	// that prevented any search from running.
	PreFailure string
	// Notes carries free-form search-level remarks, e.g. the exact
	// backend noting it hit its budget and kept the heuristic schedule.
	Notes []string
}

// Bound names what binds the search floor: the resource bound, the
// recurrence bound, or a raised floor (construct windows / Options.MinII).
func (e *Explain) Bound() string {
	switch {
	case e.MII > e.ResMII && e.MII > e.RecMII:
		return "raised floor"
	case e.RecMII >= e.ResMII && e.RecMII == e.MII:
		return "recurrence"
	default:
		return "resource"
	}
}

// Format renders the report for humans (the -explain output).
func (e *Explain) Format() string {
	var b strings.Builder
	if e.PreFailure != "" {
		fmt.Fprintf(&b, "  not scheduled: %s\n", e.PreFailure)
	} else {
		fmt.Fprintf(&b, "  II search: floor %d bound by %s (resource MII %d, recurrence MII %d), max %d\n",
			e.MII, e.Bound(), e.ResMII, e.RecMII, e.MaxII)
		for _, a := range e.Attempts {
			b.WriteString("  ")
			b.WriteString(a.Format())
			b.WriteByte('\n')
		}
		switch {
		case e.Achieved == 0:
			fmt.Fprintf(&b, "  no feasible initiation interval in [%d, %d]\n", e.MII, e.MaxII)
		case e.Achieved == e.MII:
			fmt.Fprintf(&b, "  accepted II=%d: met the lower bound\n", e.Achieved)
		default:
			fmt.Fprintf(&b, "  accepted II=%d: %d above the lower bound\n", e.Achieved, e.Achieved-e.MII)
		}
	}
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Format renders one attempt line.
func (a *Attempt) Format() string {
	if a.OK {
		if a.Note != "" {
			return fmt.Sprintf("II=%d: ok (%s)", a.II, a.Note)
		}
		return fmt.Sprintf("II=%d: ok", a.II)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "II=%d: FAIL", a.II)
	if a.Node >= 0 {
		what := a.NodeDesc
		if what == "" {
			what = fmt.Sprintf("n%d", a.Node)
		}
		if a.Aggregate {
			fmt.Fprintf(&b, " placing component %d (%s, aggregated)", a.Comp, what)
		} else {
			fmt.Fprintf(&b, " placing %s", what)
		}
	}
	c := &a.Cause
	switch c.Kind {
	case CauseResource:
		fmt.Fprintf(&b, ": resource conflict: %v full at row %d (scanned slots [%d, %d])",
			c.Resource, c.Row, c.WinLo, c.WinHi)
	case CauseDependence:
		fmt.Fprintf(&b, ": dependence bound: empty range [%d, %d]", c.Lo, c.Hi)
		if c.LoFrom >= 0 {
			fmt.Fprintf(&b, "; lower bound from n%d%s", c.LoFrom, edgeSuffix(c.LoEdge))
		}
		if c.HiFrom >= 0 {
			fmt.Fprintf(&b, "; upper bound from n%d%s", c.HiFrom, edgeSuffix(c.HiEdge))
		}
	case CauseMalformed:
		b.WriteString(": malformed graph (cycle among omega-0 edges)")
	}
	if a.Note != "" {
		fmt.Fprintf(&b, " (%s)", a.Note)
	}
	return b.String()
}

func edgeSuffix(e *depgraph.Edge) string {
	if e == nil {
		return " (via closure path)"
	}
	return fmt.Sprintf(" (edge n%d->n%d %v delay=%d omega=%d)", e.From, e.To, e.Kind, e.Delay, e.Omega)
}

// record appends an attempt to the explain report.
func (sr *Searcher) record(a Attempt) {
	sr.exp.Attempts = append(sr.exp.Attempts, a)
}

// failNode fills the shared attempt fields for a failed placement of
// graph node `node` in component `comp`.
func failAttempt(s, node, comp int, desc string, aggregate bool, cause Cause) Attempt {
	return Attempt{II: s, Node: node, NodeDesc: desc, Comp: comp, Aggregate: aggregate, Cause: cause}
}

// directEdge returns a dependence edge from → to when one exists in g
// (preferring the tightest delay), or nil when the constraint came
// through a longer path.
func directEdge(g *depgraph.Graph, from, to int) *depgraph.Edge {
	var best *depgraph.Edge
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.From != from || e.To != to {
			continue
		}
		if best == nil || e.Delay > best.Delay {
			best = e
		}
	}
	if best == nil {
		return nil
	}
	c := *best
	return &c
}
