// Package schedule implements the scheduling algorithms of Lam (PLDI
// 1988) §2.2: list scheduling of acyclic graphs against a modulo resource
// reservation table, the strongly-connected-component scheduler for cyclic
// graphs with precedence-constrained ranges, and the iterative search for
// the smallest feasible initiation interval.  It also provides the plain
// basic-block list scheduler used for locally compacted (unpipelined)
// code and for hierarchical reduction of conditional branches.
package schedule

import (
	"fmt"
	"slices"
	"strings"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// ModTable is a modulo resource reservation table for initiation interval
// II: the resource usage of time t is accounted at row t mod II, so the
// steady state of the pipelined loop can be checked directly (Lam §2.1).
// Rows are stored in one flat backing slice (row r, resource q at index
// r*nres+q) so the iterative II search can Reset and reuse one table
// across every candidate interval instead of reallocating per attempt.
type ModTable struct {
	II   int
	cap  []int // per-resource capacity
	nres int
	use  []int // flat [II][resource] counts
}

// NewModTable returns an empty table for the given interval and machine.
func NewModTable(ii int, m *machine.Machine) *ModTable {
	t := &ModTable{cap: m.ResourceCount, nres: len(m.ResourceCount)}
	t.Reset(ii)
	return t
}

// Reset clears the table and resizes it for a new initiation interval,
// reusing the backing storage when it is large enough.
func (t *ModTable) Reset(ii int) {
	t.II = ii
	n := ii * t.nres
	if cap(t.use) < n {
		t.use = make([]int, n)
		return
	}
	t.use = t.use[:n]
	for i := range t.use {
		t.use[i] = 0
	}
}

func (t *ModTable) row(time int) int {
	r := time % t.II
	if r < 0 {
		r += t.II
	}
	return r
}

// Fits reports whether the reservation pattern can be placed at time:
// whether Conflict finds nothing blocking it.
func (t *ModTable) Fits(res []machine.ResUse, time int) bool {
	_, _, blocked := t.Conflict(res, time)
	return !blocked
}

// Conflict reports the first over-capacity (resource, row) pair that
// blocks placing the reservation pattern at time; ok is false when the
// pattern fits.  The pattern may use the same (resource, offset) more than
// once (SCC aggregates do), so the check places entries tentatively and
// unwinds.
func (t *ModTable) Conflict(res []machine.ResUse, time int) (r machine.Resource, row int, ok bool) {
	placed := 0
	for _, u := range res {
		rw := t.row(time + u.Offset)
		at := rw*t.nres + int(u.Resource)
		t.use[at]++
		placed++
		if t.use[at] > t.cap[u.Resource] {
			r, row, ok = u.Resource, rw, true
			break
		}
	}
	for i := 0; i < placed; i++ {
		u := res[i]
		t.use[t.row(time+u.Offset)*t.nres+int(u.Resource)]--
	}
	return r, row, ok
}

// Place commits the reservation pattern at time.
func (t *ModTable) Place(res []machine.ResUse, time int) {
	for _, u := range res {
		t.use[t.row(time+u.Offset)*t.nres+int(u.Resource)]++
	}
}

// Remove undoes a Place.
func (t *ModTable) Remove(res []machine.ResUse, time int) {
	for _, u := range res {
		t.use[t.row(time+u.Offset)*t.nres+int(u.Resource)]--
	}
}

// Usage returns the current use count of resource r at row (time mod II).
func (t *ModTable) Usage(time int, r machine.Resource) int {
	return t.use[t.row(time)*t.nres+int(r)]
}

// String renders the table.
func (t *ModTable) String() string {
	var b strings.Builder
	for i := 0; i < t.II; i++ {
		fmt.Fprintf(&b, "%3d:", i)
		for r := 0; r < t.nres; r++ {
			if n := t.use[i*t.nres+r]; n > 0 {
				fmt.Fprintf(&b, " %v=%d", machine.Resource(r), n)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FlatTable is an ordinary (non-modulo) reservation table that grows on
// demand; it backs basic-block list scheduling.  Like ModTable it keeps
// its rows in one flat slice (cycle t, resource q at index t*nres+q), so
// growing by a cycle is an append, not an allocation per row.
type FlatTable struct {
	cap  []int
	nres int
	use  []int // flat [cycle][resource] counts
}

// NewFlatTable returns an empty flat table for machine m.
func NewFlatTable(m *machine.Machine) *FlatTable {
	return &FlatTable{cap: m.ResourceCount, nres: len(m.ResourceCount)}
}

// reset empties the table for machine m, its storage kept and sized for
// at least rows cycles.
func (t *FlatTable) reset(m *machine.Machine, rows int) {
	t.cap, t.nres = m.ResourceCount, len(m.ResourceCount)
	t.use = slices.Grow(t.use[:0], rows*t.nres)
}

// grow makes cycle n a row of the table.
func (t *FlatTable) grow(n int) {
	if need := (n + 1) * t.nres; len(t.use) < need {
		t.use = append(t.use, make([]int, need-len(t.use))...)
	}
}

// Fits reports whether the reservation pattern can be placed at time ≥ 0.
// As with ModTable, repeated (resource, offset) entries are accounted
// cumulatively.
func (t *FlatTable) Fits(res []machine.ResUse, time int) bool {
	ok := true
	placed := 0
	for _, u := range res {
		at := time + u.Offset
		if at < 0 {
			ok = false
			break
		}
		t.grow(at)
		i := at*t.nres + int(u.Resource)
		t.use[i]++
		placed++
		if t.use[i] > t.cap[u.Resource] {
			ok = false
			break
		}
	}
	for i := 0; i < placed; i++ {
		u := res[i]
		t.use[(time+u.Offset)*t.nres+int(u.Resource)]--
	}
	return ok
}

// Place commits the reservation pattern at time.
func (t *FlatTable) Place(res []machine.ResUse, time int) {
	for _, u := range res {
		t.grow(time + u.Offset)
		t.use[(time+u.Offset)*t.nres+int(u.Resource)]++
	}
}

// Usage returns the use count of resource r at the given cycle.
func (t *FlatTable) Usage(time int, r machine.Resource) int {
	if time < 0 || time >= t.Len() {
		return 0
	}
	return t.use[time*t.nres+int(r)]
}

// Len returns the number of occupied cycles.
func (t *FlatTable) Len() int {
	if t.nres == 0 {
		return 0
	}
	return len(t.use) / t.nres
}

// reservationExtent returns one past the last offset used by a pattern.
func reservationExtent(res []machine.ResUse) int {
	e := 1
	for _, u := range res {
		if u.Offset+1 > e {
			e = u.Offset + 1
		}
	}
	return e
}

// Extent returns the occupancy extent of a node: the number of cycles
// from issue through its last reservation (at least Len).
func Extent(n *depgraph.Node) int {
	e := reservationExtent(n.Reservation)
	if n.Len > e {
		e = n.Len
	}
	return e
}
