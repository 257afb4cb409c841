package sim

import (
	"context"
	"fmt"

	"softpipe/internal/ir"
)

// Lane parameterizes one independent simulation of a batch: its own
// input tape and optional per-lane float-array initial values (sweeps).
type Lane struct {
	InputTape []float64
	// FloatArrays overrides the program's declared initial values for the
	// named arrays in this lane; a short slice overrides a prefix.
	FloatArrays map[string][]float64
}

// LaneResult is one lane's outcome; Err is per-lane (a fault in one lane
// does not abort the batch).
type LaneResult struct {
	State *ir.State
	Stats Stats
	Err   error
}

// Batch executes N independent cells over one decoded program.  The
// lanes' register files and memories are slices of shared struct-of-
// arrays arenas (four allocations for the whole batch), and the decode
// cost of the program is amortized across all lanes — the point of the
// /run batch mode: throughput scales with requests, not cycles×requests.
type Batch struct {
	// MaxCycles bounds each lane (0 = the simulator default).
	MaxCycles int64

	cells []*Sim
}

// NewBatch lays out len(lanes) cells over p in SoA arenas.
func NewBatch(p *Program, lanes []Lane) *Batch {
	n := len(lanes)
	numF, numI, memW := p.Src.NumFRegs, p.Src.NumIRegs, p.Src.MemWords
	b := &Batch{cells: make([]*Sim, n)}
	fregs := make([]float64, n*numF)
	iregs := make([]int64, n*numI)
	memF := make([]float64, n*memW)
	memI := make([]int64, n*memW)
	for i := range lanes {
		c := newCell(p, fregs[i*numF:(i+1)*numF], iregs[i*numI:(i+1)*numI],
			memF[i*memW:(i+1)*memW], memI[i*memW:(i+1)*memW])
		c.InputTape = lanes[i].InputTape
		for name, vals := range lanes[i].FloatArrays {
			if arr := p.Src.Array(name); arr != nil && arr.Kind == ir.KindFloat {
				m := len(vals)
				if m > arr.Size {
					m = arr.Size
				}
				copy(c.memF[arr.Base:arr.Base+m], vals[:m])
			}
		}
		b.cells[i] = c
	}
	return b
}

// Run executes every lane to completion and returns per-lane results.
// The only batch-level error is context cancellation; it annotates which
// lane was interrupted.
func (b *Batch) Run(ctx context.Context) ([]LaneResult, error) {
	results := make([]LaneResult, len(b.cells))
	for i, c := range b.cells {
		c.Ctx = ctx
		c.MaxCycles = b.MaxCycles
		st, err := c.Run()
		results[i] = LaneResult{State: st, Stats: c.Stats(), Err: err}
		if ctx != nil && ctx.Err() != nil {
			return results, fmt.Errorf("batch aborted at lane %d/%d: %w", i, len(b.cells), ctx.Err())
		}
	}
	return results, nil
}
