// Package compiled names the entry points of the "compiled" engine.  The
// engine has no state or semantics of its own: a compiled Program is a
// sim.Program decoded with its steady-state blocks attached, a Cell is a
// sim.Sim, and the only thing that differs from the interpreter is that
// Run may retire whole kernel iterations through the dataflow fast path
// (internal/sim/fast.go).  Step — and therefore every array — is the
// interpreter's.  The names are kept for the benchmark module and for the
// differential tests in this directory, which pin the fast path's final
// state, stats and stall behavior bit-identical to stepping every cycle
// across the Livermore suite, the fuzz corpus and array programs.
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

// Build decodes p for machine m with its fast-path blocks.  Errors the
// interpreter defers to the first Step (unsupported class, unknown array,
// out-of-range register) surface here.
func Build(p *vliw.Program, m *machine.Machine) (*Program, error) {
	return sim.Decode(p, m, true)
}

// NewCell prepares an execution instance with initialized memory.
func NewCell(p *Program) *Cell { return sim.NewCell(p) }

// NewBatch lays out len(lanes) cells over p in struct-of-arrays arenas.
func NewBatch(p *Program, lanes []Lane) *Batch { return sim.NewBatch(p, lanes) }

// Run builds and executes p on machine m (mirror of sim.Run).
func Run(p *vliw.Program, m *machine.Machine) (*ir.State, sim.Stats, error) {
	return sim.RunEngine(p, m, true)
}
