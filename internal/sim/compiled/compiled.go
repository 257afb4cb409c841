// Package compiled keeps the names the frozen benchmark module calls the
// "compiled" engine; ROADMAP item 3c deletes it.  There is one simulator
// path: a Program is a sim.Program from sim.Decode (blocks attached; the
// library and the daemon keep one a binary in a sim.Decoded), a Cell is a
// sim.Sim, and Run retires whole kernel iterations through the dataflow
// fast path (internal/sim/fast.go) where it can.  The differential tests
// here pin that path's final state, stats and stall behavior
// bit-identical to the step-only reference (sim.New, sim.Run) across the
// Livermore suite, the fuzz corpus and array programs.
package compiled

import (
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/vliw"
)

type (
	Program    = sim.Program
	Cell       = sim.Sim
	Lane       = sim.Lane
	LaneResult = sim.LaneResult
	Batch      = sim.Batch
)

// Build is sim.Decode.
func Build(p *vliw.Program, m *machine.Machine) (*Program, error) { return sim.Decode(p, m) }

// NewCell is sim.NewCell.
func NewCell(p *Program) *Cell { return sim.NewCell(p) }

// NewBatch is sim.NewBatch.
func NewBatch(p *Program, lanes []Lane) *Batch { return sim.NewBatch(p, lanes) }

// Run decodes p for machine m and runs it on the fast path.
func Run(p *vliw.Program, m *machine.Machine) (*ir.State, sim.Stats, error) {
	c := new(sim.Decoded).Cell(p, m, nil)
	st, err := c.Run()
	return st, c.Stats(), err
}
