package softpipe

import (
	"context"
	"fmt"

	"softpipe/internal/partition"
	"softpipe/internal/sim"
	"softpipe/internal/verify"
	"softpipe/internal/vliw"
)

// Plan re-exports the partitioner's output: per-cell fragment programs
// plus the ownership maps describing where each observable lives.
type Plan = partition.Plan

// Machines replicates one machine n times — the homogeneous array shape
// (all of Lam §4.1's measured applications).
func Machines(m *Machine, n int) []*Machine {
	ms := make([]*Machine, n)
	for i := range ms {
		ms[i] = m
	}
	return ms
}

// ArrayCellStats is one cell's row in an array run: its scheduled
// initiation interval and the runtime counters showing whether the
// partition is balanced (a slow cell stalls its neighbours and fills
// its input queue).
type ArrayCellStats struct {
	// II is the scheduled initiation interval of the cell's loop (0 if
	// the fragment has no pipelined loop).
	II int
	// StallCycles counts global cycles the cell spent blocked on a
	// queue operation.
	StallCycles int64
	// MaxInQueue is the high-water occupancy of the cell's input queue.
	MaxInQueue int
}

// ArrayObject is a partitioned, per-cell-compiled program: the result
// of CompilePartitioned.  Each cell is an ordinary Object; the Plan
// records how observable state maps back onto the source program.
type ArrayObject struct {
	Plan *Plan
	// Cells are the compiled fragments in array order.
	Cells []*Object
	// CapacityWarnings lists channels whose estimated in-flight value
	// count (cut width × downstream pipeline fill) approaches the
	// 512-word queue bound; such arrays still run correctly under
	// back-pressure but may stall past the setup skew.
	CapacityWarnings []string

	source *Program
	tracer *Tracer
}

// Width reports the number of cells.
func (ao *ArrayObject) Width() int { return len(ao.Cells) }

// CellII returns each cell's scheduled initiation interval.  The
// array's steady-state throughput is one iteration per max(CellII())
// cycles — the slowest cell paces everyone (Lam §1).
func (ao *ArrayObject) CellII() []int {
	iis := make([]int, len(ao.Cells))
	for i, c := range ao.Cells {
		for _, l := range c.Report.Loops {
			if l.II > iis[i] {
				iis[i] = l.II
			}
		}
	}
	return iis
}

// CompileSourcePartitioned parses W2-like source, splits it across
// len(machines) cells, and compiles every fragment.
func CompileSourcePartitioned(src string, machines []*Machine, opts Options) (*ArrayObject, error) {
	p, err := ParseSource(src)
	if err != nil {
		return nil, err
	}
	return CompilePartitioned(p, machines, opts)
}

// CompilePartitioned splits p across len(machines) cells (see
// internal/partition for the planner: forward-only queue cuts over the
// dependence graph, stages balanced by per-fragment MII) and compiles
// each fragment for its machine.  The machines may be heterogeneous —
// a stage with more floating-point work can target a wider gen: cell.
// opts.Ctx bounds the planner's split search as well as the per-cell
// compiles.
func CompilePartitioned(p *Program, machines []*Machine, opts Options) (*ArrayObject, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	sp := opts.Tracer.Begin("partition")
	plan, err := partition.PartitionContext(ctx, p, machines)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.Arg("clusters", int64(plan.Stats.Clusters)).
		Arg("cost_evals", int64(plan.Stats.CostEvals)).
		Arg("cost_skipped", int64(plan.Stats.CostSkipped)).End()
	ao := &ArrayObject{Plan: plan, source: p, tracer: opts.Tracer}
	for i, frag := range plan.Fragments {
		obj, err := Compile(frag, plan.Machines[i], opts)
		if err != nil {
			return nil, fmt.Errorf("softpipe: cell %d (%s): %w", i, frag.Name, err)
		}
		ao.Cells = append(ao.Cells, obj)
	}
	// Queue-capacity audit: the words in flight on channel i..i+1 are
	// bounded by cut width × (downstream pipeline fill + 1) during the
	// setup skew.  The planner already rejects widths beyond the queue
	// bound; here the achieved schedules are known, so flag channels
	// that will lean on back-pressure after setup.
	for b, w := range plan.CutWidths {
		depth := 1
		for _, l := range ao.Cells[b+1].Report.Loops {
			if l.Stages > depth {
				depth = l.Stages
			}
		}
		if inflight := w * (depth + 1); inflight > sim.QueueCapacity {
			ao.CapacityWarnings = append(ao.CapacityWarnings,
				fmt.Sprintf("channel %d->%d: ~%d words in flight (cut width %d × fill %d) exceeds the %d-word queue; expect steady-state stalls",
					b, b+1, inflight, w, depth+1, sim.QueueCapacity))
		}
	}
	return ao, nil
}

// RunArray executes the partitioned program as a linear array,
// preloading `input` on cell 0's channel.  The result carries per-cell
// II/stall/occupancy stats alongside the usual aggregate counters.  The
// Engine argument is ignored: it is kept only for the frozen benchmark
// module, and ROADMAP item 3c deletes it.
func (ao *ArrayObject) RunArray(input []float64, _ Engine) (*ArrayResult, error) {
	cells := make([]*sim.Sim, len(ao.Cells))
	for i, o := range ao.Cells {
		cells[i] = sim.New(o.Binary, o.Machine)
	}
	sp := ao.tracer.Begin("sim.array")
	arr := sim.NewArrayCells(cells, input)
	out, last, err := arr.Run()
	st := arr.Stats()
	sp.Arg("cycles", st.Cycles).End()
	if err != nil {
		return nil, err
	}
	res := &ArrayResult{
		Output:        out,
		LastCellState: last,
		Cycles:        st.Cycles,
		Flops:         st.Flops,
		MFLOPS:        st.MFLOPS(ao.Cells[0].Machine, 1),
	}
	iis := ao.CellII()
	for i, m := range arr.Metrics() {
		res.CellStats = append(res.CellStats, ArrayCellStats{
			II:          iis[i],
			StallCycles: m.StallCycles,
			MaxInQueue:  m.MaxInQueue,
		})
	}
	return res, nil
}

// Verify proves the partitioned realization equivalent to the
// single-cell source program: per-cell object correctness under the
// chained input tapes, owner-cell array/result dataflow, and host
// output — all by provenance-term identity against one shared
// reference execution (see verify.Array).  It then runs the array once
// on the simulator, so a deadlock or fault fails verification.
func (ao *ArrayObject) Verify(input []float64) error {
	bins := make([]*vliw.Program, len(ao.Cells))
	ms := make([]*Machine, len(ao.Cells))
	for i, c := range ao.Cells {
		bins[i] = c.Binary
		ms[i] = c.Machine
	}
	ap := verify.ArrayPlan{
		Fragments:   ao.Plan.Fragments,
		ArrayOwner:  ao.Plan.ArrayOwner,
		ResultOwner: ao.Plan.ResultOwner,
	}
	sp := ao.tracer.Begin("verify.array")
	err := verify.Array(ao.source, ap, bins, ms, verify.Options{Input: input, Tracer: ao.tracer})
	sp.End()
	if err != nil {
		return err
	}
	if _, err := ao.RunArray(input, ""); err != nil {
		return fmt.Errorf("softpipe: array run: %w", err)
	}
	return nil
}
