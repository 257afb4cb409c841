package sim

import (
	"context"
	"fmt"
	"strings"

	"softpipe/internal/ir"
)

// Array simulates a linear Warp array: cells connected by bounded FIFO
// queues, the host feeding the first cell and collecting from the last
// (Lam §1: "The Warp array is a linear array of VLIW processors"; each
// cell owns a 512-word queue per channel).  Cells step in lock-step
// global cycles; a cell whose queue operation cannot proceed stalls with
// its local clock frozen, which preserves each cell's compiled schedule
// exactly ("except for a short setup time at the beginning, these
// programs never stall", §4.1 — the setup skew is where stalls happen).
type Array struct {
	Cells []*Sim
	// MaxCycles bounds the run; 0 picks a generous default.
	MaxCycles int64
	// HostQueueBudget bounds the unbounded host collection queue: a
	// partition bug that sends forever would otherwise grow it without
	// limit (one word per cycle for up to MaxCycles cycles) long before
	// the cycle bound fires.  0 derives a budget from MaxCycles.
	HostQueueBudget int
	// Ctx, when non-nil, is polled every few thousand global cycles; a
	// canceled or deadlined context aborts Run with ctx.Err() wrapped.
	Ctx context.Context

	queues  []*Queue
	cycles  int64
	metrics []CellMetrics
}

// CellMetrics is one cell's observability counters from an array run:
// how long it sat blocked on a queue, and how deep its input channel
// ever got.  A well-balanced partition shows near-zero StallCycles
// outside the setup skew (Lam §4.1: "these programs never stall") and
// shallow queues; a slow cell shows up as upstream stalls and a full
// input queue.
type CellMetrics struct {
	// StallCycles counts global cycles the cell spent blocked on a
	// queue operation (receive on empty, send on full).
	StallCycles int64
	// MaxInQueue is the high-water occupancy of the cell's input queue.
	MaxInQueue int
}

// Metrics returns the per-cell counters accumulated by Run, parallel
// to Cells.
func (a *Array) Metrics() []CellMetrics { return a.metrics }

// QueueCapacity matches the Warp cell's 512-word channel queues.
const QueueCapacity = 512

// NewArrayCells wires cells into a linear array: bounded queues between
// adjacent cells, unbounded host queues at both ends, input preloaded on
// the first cell's channel; the last cell's sends accumulate as the array
// output.  Cells of one program share it (Decoded.Cell, NewCell: the
// shape of all the paper's measured applications, §4.1).  An array only
// ever Steps its cells, so whether their program carries fast-path
// blocks makes no difference here.
func NewArrayCells(cells []*Sim, input []float64) *Array {
	a := &Array{Cells: cells}
	a.queues = make([]*Queue, len(cells)+1)
	a.queues[0] = NewQueue(0) // host side: unbounded, preloaded
	for i := 1; i < len(cells); i++ {
		a.queues[i] = NewQueue(QueueCapacity)
	}
	a.queues[len(cells)] = NewQueue(0) // host collection side
	for _, v := range input {
		a.queues[0].Push(v)
	}
	for i, c := range cells {
		c.SetQueues(a.queues[i], a.queues[i+1])
	}
	a.metrics = make([]CellMetrics, len(cells))
	return a
}

// Run steps every cell until all halt, then drains in-flight writes.
// It returns the host-side output stream and the final state of the last
// cell (homogeneous reductions usually leave results there).
//
// A global cycle in which every live cell is blocked on a queue is a
// deadlock: cells are deterministic and stalls freeze their state, so if
// no cell progressed, no cell ever will.  Run fails fast on the first
// such cycle — instead of spinning to MaxCycles — with an error naming
// each blocked cell's queue operation and the occupancy of its channels.
func (a *Array) Run() ([]float64, *ir.State, error) {
	max := a.MaxCycles
	if max == 0 {
		max = 200_000_000
	}
	// The collection queue receives at most one word per global cycle,
	// so max cycles of runaway sending is also its worst-case footprint;
	// budget a fraction of that, floored so legitimate output fits.
	budget := a.HostQueueBudget
	if budget == 0 {
		budget = int(max / 16)
		if budget < 1<<16 {
			budget = 1 << 16
		}
	}
	hostQ := a.queues[len(a.Cells)]
	for a.cycles = 0; ; a.cycles++ {
		if a.cycles >= max {
			return nil, nil, fmt.Errorf("sim: array exceeded %d cycles", max)
		}
		if a.Ctx != nil && a.cycles&0x1fff == 0 {
			if err := a.Ctx.Err(); err != nil {
				return nil, nil, fmt.Errorf("sim: array run aborted at cycle %d: %w", a.cycles, err)
			}
		}
		if hostQ.Len() > budget {
			return nil, nil, fmt.Errorf("sim: host collection queue exceeded its %d-word budget at cycle %d (runaway producer): %s",
				budget, a.cycles, a.describeStalls())
		}
		allHalted := true
		progress := false
		for ci, c := range a.Cells {
			if c.Halted() {
				continue
			}
			allHalted = false
			stalled, err := c.Step()
			if err != nil {
				return nil, nil, fmt.Errorf("cell %d: %w", ci, err)
			}
			if stalled {
				a.metrics[ci].StallCycles++
			} else {
				progress = true
			}
		}
		for ci := range a.Cells {
			if n := a.queues[ci].Len(); n > a.metrics[ci].MaxInQueue {
				a.metrics[ci].MaxInQueue = n
			}
		}
		if allHalted {
			break
		}
		if !progress {
			return nil, nil, fmt.Errorf("sim: array deadlocked at cycle %d: %s", a.cycles, a.describeStalls())
		}
	}
	for ci, c := range a.Cells {
		if err := c.Drain(max); err != nil {
			return nil, nil, fmt.Errorf("cell %d: %w", ci, err)
		}
	}
	return a.queues[len(a.Cells)].contents(), a.Cells[len(a.Cells)-1].State(), nil
}

// describeStalls renders every cell's blockage — the queue operation it
// cannot complete, its frozen pc and local cycle, and the occupancy of
// its input and output channels — so a deadlock report points straight
// at the cell (and queue) at fault.
func (a *Array) describeStalls() string {
	var b strings.Builder
	occ := func(q *Queue) string {
		if q.Cap() == 0 {
			return fmt.Sprintf("%d/inf", q.Len())
		}
		return fmt.Sprintf("%d/%d", q.Len(), q.Cap())
	}
	for ci, c := range a.Cells {
		if ci > 0 {
			b.WriteString("; ")
		}
		if c.Halted() {
			fmt.Fprintf(&b, "cell %d halted", ci)
			continue
		}
		if class, pc, t, ok := c.BlockedOn(); ok {
			fmt.Fprintf(&b, "cell %d blocked on %v @pc=%d (local cycle %d, in q%d %s, out q%d %s)",
				ci, class, pc, t, ci, occ(a.queues[ci]), ci+1, occ(a.queues[ci+1]))
		} else {
			fmt.Fprintf(&b, "cell %d stalled", ci)
		}
	}
	return b.String()
}

// Stats aggregates the cells' counters; Cycles is the array wall clock.
func (a *Array) Stats() Stats {
	var total Stats
	for _, c := range a.Cells {
		st := c.Stats()
		total.Flops += st.Flops
		total.Ops += st.Ops
		total.Instrs += st.Instrs
	}
	total.Cycles = a.cycles
	return total
}
