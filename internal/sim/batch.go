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
	// named arrays in this lane; a short slice overrides a prefix.  The
	// lane reads an array no store writes from its full-length override in
	// place and reports it as that slice, so the slices must not change
	// while it is in use; a written array gets the lane's own words.
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
// lanes' register files, memories and array tables are slices of shared
// struct-of-arrays arenas (five allocations for the whole batch), and the decode
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
	numF, numI := p.Src.NumFRegs, p.Src.NumIRegs
	wordsF, wordsI := p.spanF.words(), p.spanI.words()
	b := &Batch{cells: make([]*Sim, n)}
	fregs := make([]float64, n*numF)
	iregs := make([]int64, n*numI)
	memF := make([]float64, n*wordsF)
	memI := make([]int64, n*wordsI)
	numA := len(p.Src.Arrays)
	arrays := make([]cellArray, n*numA)
	for i := range lanes {
		c := newCell(p, cellMem{
			fregs:  fregs[i*numF : (i+1)*numF],
			iregs:  iregs[i*numI : (i+1)*numI],
			memF:   memF[i*wordsF : (i+1)*wordsF],
			memI:   memI[i*wordsI : (i+1)*wordsI],
			arrays: arrays[i*numA : (i+1)*numA],
		}, lanes[i].FloatArrays)
		c.InputTape = lanes[i].InputTape
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
