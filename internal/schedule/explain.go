package schedule

import (
	"errors"
	"fmt"
	"strings"

	"softpipe/internal/machine"
)

// ErrMaxIIBelowMII distinguishes a misconfigured search (Options.MaxII
// below the search floor, so no candidate interval exists) from genuine
// infeasibility.  Callers test with errors.Is.
var ErrMaxIIBelowMII = errors.New("MaxII below the minimum initiation interval")

// errInternal marks a broken invariant of the search's inputs: a
// component with no member it can place (an omega-0 cycle, or an empty
// precedence-constrained range).  Analyze and exact longest paths rule
// both out, so no accepted graph reports it.
var errInternal = errors.New("schedule: internal")

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

// Cause pins one failed candidate interval to the resource that blocked
// it.  Every failure of the heuristic search is a resource conflict: the
// precedence-constrained ranges come from longest paths that are exact at
// every candidate II ≥ MII, so a range never empties (DESIGN.md).
type Cause struct {
	// Resource is the first over-capacity resource and Row the modulo
	// row (issue time mod II) at which it clashed, in the scanned window
	// [WinLo, WinHi].
	Resource machine.Resource
	Row      int
	WinLo    int
	WinHi    int
}

// Attempt records the outcome of one candidate initiation interval.
type Attempt struct {
	II int
	OK bool
	// Node is the graph index of the op that failed placement (for
	// condensation failures of a multi-node component, its first member),
	// blocked as Cause says; -1 on the exact search's verdicts, which
	// name no op.
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
		c := &a.Cause
		fmt.Fprintf(&b, ": resource conflict: %v full at row %d (scanned slots [%d, %d])",
			c.Resource, c.Row, c.WinLo, c.WinHi)
	}
	if a.Note != "" {
		fmt.Fprintf(&b, " (%s)", a.Note)
	}
	return b.String()
}

// record appends an attempt to the explain report.
func (sr *Searcher) record(a Attempt) {
	sr.exp.Attempts = append(sr.exp.Attempts, a)
}

// fail records that interval s failed placing graph node v of component
// ci (its first member, when aggregate: the whole component in the
// condensation) with reservation res: no slot of [lo, hi] fit tab, and
// lo names the resource that blocks it.
func (sr *Searcher) fail(s, v, ci int, aggregate bool, tab *ModTable, res []machine.ResUse, lo, hi int) {
	r, row, _ := tab.Conflict(res, lo)
	sr.record(Attempt{II: s, Node: v, NodeDesc: sr.a.Graph.Nodes[v].String(), Comp: ci, Aggregate: aggregate,
		Cause: Cause{Resource: r, Row: row, WinLo: lo, WinHi: hi}})
}
