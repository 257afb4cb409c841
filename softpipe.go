// Package softpipe is a from-scratch reproduction of
//
//	Monica Lam, "Software Pipelining: An Effective Scheduling Technique
//	for VLIW Machines", PLDI 1988
//
// as a reusable Go library: a W2-like source language, a software
// pipelining (modulo scheduling) compiler with modulo variable expansion
// and hierarchical reduction, and a cycle-accurate simulator of a
// Warp-like VLIW cell.
//
// Quick start:
//
//	obj, err := softpipe.CompileSource(src, softpipe.Warp(), softpipe.Options{})
//	res, err := obj.Run()
//	fmt.Println(res.CellMFLOPS)
//
// The evaluation harness that regenerates the paper's tables and figures
// lives in cmd/livermore and cmd/warpbench; see EXPERIMENTS.md.
package softpipe

import (
	"context"
	"fmt"
	"io"
	"time"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/schedule"
	"softpipe/internal/sim"
	"softpipe/internal/trace"
	"softpipe/internal/verify"
	"softpipe/internal/vliw"
)

// Machine describes a VLIW target (resources, latencies, register files,
// clock).  Use Warp, Scalar or Wide to obtain one.
type Machine = machine.Machine

// Warp returns the default target: a Warp-like cell with two 7-cycle
// floating-point units, an ALU, split memory ports, an address unit and
// a 5 MHz clock (10 MFLOPS peak).
func Warp() *Machine { return machine.Warp() }

// Scalar returns a single-issue variant of the Warp cell (at most one
// operation per instruction), useful as a sequential reference point.
func Scalar() *Machine { return machine.Scalar() }

// Wide returns a Warp-like cell with `factor` copies of every arithmetic
// unit and memory port, for the scalability experiments of Lam §6.
func Wide(factor int) *Machine { return machine.Wide(factor) }

// ParseMachine resolves a machine name to a validated target.  It is
// the single machine parser shared by every surface that accepts a
// machine name (w2c, livermore, warpbench, softpiped, the sweep grid):
//
//	warp     the 10-cell Warp-like array
//	scalar   the single-issue reference machine
//	wideN    N-wide cell, 1 <= N <= 64
//	gen:...  a generator point, e.g. gen:fa2,fm2,mem2,lat7/7/3,fr62,rot
func ParseMachine(name string) (*Machine, error) { return machine.Parse(name) }

// Program is a compiled-to-IR program: the unit the backend consumes.
// Obtain one with ParseSource or via NewBuilder.
type Program = ir.Program

// Builder constructs IR programs directly (the synthetic workloads and
// many tests use it); see ir.Builder's methods.
type Builder = ir.Builder

// NewBuilder returns a builder over a fresh program.
func NewBuilder(name string) *Builder { return ir.NewBuilder(name) }

// State is the observable outcome of running a program.
type State = ir.State

// Options tunes compilation.  The paper's ablations (MVE off, the lcm
// unroll policy, hierarchical and loop reduction off, binary II search)
// are not options: they are codegen.Options/pipeline.Options fields a
// benchmark or test reaches through CompileWith.  Nor is full unrolling
// of inner loops: the `unroll` source directive asks for it per loop.
type Options struct {
	// Ctx, when non-nil, bounds the compile: a canceled or deadlined
	// context aborts the II search between candidate initiation
	// intervals (and between loops) with an error wrapping ctx.Err().
	// The compile service threads per-request deadlines through here;
	// cmd/w2c exposes it as -timeout.
	Ctx context.Context
	// Baseline disables software pipelining: loop bodies are locally
	// compacted but iterations never overlap (the Figure 4-2 baseline).
	Baseline bool
	// Effort and EffortBudget are accepted and ignored, as are
	// EffortHeuristic, EffortExact and ParseEffort: every compile runs one
	// II search and keeps the faster plan (schedule.New, codegen's
	// keepFaster).  They stay for the frozen benchmark module and the
	// service's accepted "effort" until ROADMAP item 3 deletes them.
	Effort       Effort
	EffortBudget time.Duration
	// VerifyEmitted runs the independent object-code checker
	// (internal/verify) on the emitted binary as part of compilation:
	// resource legality including kernel wraparound, plus a concolic
	// proof that the pipelined code reproduces the sequential program's
	// value provenance.  Compilation fails on any violation.
	VerifyEmitted bool
	// Tracer, when non-nil, receives hierarchical spans and counters for
	// every compilation phase (Chrome trace_event export via
	// Tracer.WriteJSON).  A nil tracer costs nothing.
	Tracer *Tracer
}

// Tracer collects hierarchical spans and counters across the compile /
// simulate / verify pipeline; nil is a valid, free, disabled tracer.
type Tracer = trace.Tracer

// NewTracer returns an enabled tracer named after the workload.
func NewTracer(name string) *Tracer { return trace.New(name) }

// ExplainReport is the per-loop explain report every compile records
// (LoopInfo.Explain): why each candidate initiation interval below the
// accepted one failed (which op, which resource or dependence edge), or
// why the loop never reached the search.  cmd/w2c -explain prints it.
type ExplainReport = schedule.Explain

// Effort is accepted and ignored; see Options.Effort.
type Effort = schedule.Effort

// Efforts, accepted and ignored; see Options.Effort.
const (
	EffortHeuristic = schedule.EffortHeuristic
	EffortExact     = schedule.EffortExact
)

// ParseEffort maps an old -effort spelling to an Effort ("" means
// heuristic) and fails on any other; the service still rejects a bad one.
func ParseEffort(s string) (Effort, error) { return schedule.ParseEffort(s) }

func (o Options) lower() codegen.Options {
	mode := codegen.ModePipelined
	if o.Baseline {
		mode = codegen.ModeUnpipelined
	}
	return codegen.Options{
		Ctx:           o.Ctx,
		Mode:          mode,
		VerifyEmitted: o.VerifyEmitted,
		Tracer:        o.Tracer,
	}
}

// LoopInfo reports how one loop compiled (initiation intervals, bounds,
// unrolling), mirroring the statistics of Lam §4.
type LoopInfo = codegen.LoopReport

// Report aggregates per-loop compilation outcomes.
type Report = codegen.Report

// Object is a compiled VLIW binary plus its compilation report.  Its
// runs share the program its first run decodes, so Binary and Machine
// must not change once it has run.
type Object struct {
	Binary  *vliw.Program
	Report  *Report
	Machine *Machine
	source  *Program
	tracer  *Tracer // from Options.Tracer; spans Run/Verify phases
	prog    sim.Decoded
}

// ParseSource compiles W2-like source text to IR.  Array inputs are
// zero-filled; set Program.Array(name).InitF before compiling/running.
// The compiled object shares InitF, and a run reads an array no store
// writes from that slice in place and reports it as that slice, so InitF
// must not change after compiling.
func ParseSource(src string) (*Program, error) { return lang.Compile(src) }

// CompileSource parses and compiles W2-like source for machine m.
func CompileSource(src string, m *Machine, opts Options) (*Object, error) {
	sp := opts.Tracer.Begin("lang.compile")
	p, err := lang.Compile(src)
	sp.End()
	if err != nil {
		return nil, err
	}
	return Compile(p, m, opts)
}

// Compile lowers an IR program to VLIW code for machine m.
func Compile(p *Program, m *Machine, opts Options) (*Object, error) {
	return CompileWith(p, m, opts, nil)
}

// CompileWith is Compile with the back end's own options adjusted after
// opts is lowered to them.  It is the module's seam, not a product
// surface: codegen is internal, so only this module's harness and tests
// can write an adjust, and it is how they reach the paper's comparison
// points (warpbench -fig42 forces Lam's whole-arm conditionals with it,
// the corpus digest the ablations).
func CompileWith(p *Program, m *Machine, opts Options, adjust func(*codegen.Options)) (*Object, error) {
	lowered := opts.lower()
	if adjust != nil {
		adjust(&lowered)
	}
	sp := opts.Tracer.Begin("compile")
	bin, rep, err := codegen.Compile(p, m, lowered)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Object{Binary: bin, Report: rep, Machine: m, source: p, tracer: opts.Tracer}, nil
}

// Disassemble renders the wide-instruction program.
func (o *Object) Disassemble() string { return o.Binary.String() }

// Result is a completed simulation.
type Result struct {
	// State is the final program state.  An array no store of the
	// program writes shares its initial contents (the source's InitF or
	// InitI) and is read-only; a written array is the result's own: the
	// words the run wrote, handed over, not a copy.
	State       *State
	Cycles      int64
	Flops       int64
	CellMFLOPS  float64
	ArrayMFLOPS float64 // cell rate × the machine's cell count (Lam §4.1)
}

// Run executes the object program on its machine's cycle-accurate model.
// The program is decoded once, by the object's first run, with its
// steady-state blocks, so Run retires kernel loops whole iterations at a
// time on the dataflow fast path (internal/sim/fast.go); state, stats and
// cycle count are bit-identical to stepping every cycle, which the
// step-only reference sim.Run does and the differential tests hold Run
// to.
//
// Its "sim.run" span carries the simulated cycles, the data-memory words
// the cell allocated ("mem_words") and the array words the result copied
// out ("copied_words"); in the run that decodes, it holds a "sim.decode"
// span.
func (o *Object) Run() (*Result, error) {
	sp := o.tracer.Begin("sim.run")
	cell := o.prog.Cell(o.Binary, o.Machine, o.tracer)
	st, err := cell.Run()
	stats := cell.Stats()
	mem, copied := cell.Words()
	sp.Arg("cycles", stats.Cycles).Arg("mem_words", int64(mem)).Arg("copied_words", int64(copied)).End()
	return o.result(st, stats, err)
}

// result projects a finished run onto a Result.
func (o *Object) result(st *State, stats sim.Stats, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{
		State:       st,
		Cycles:      stats.Cycles,
		Flops:       stats.Flops,
		CellMFLOPS:  stats.MFLOPS(o.Machine, 1),
		ArrayMFLOPS: stats.MFLOPS(o.Machine, o.Machine.Cells),
	}, nil
}

// Engine, its two constants and Object.RunEngine are the names the frozen
// benchmark module (benchmark/) compiles against; nothing else selects an
// engine, and ROADMAP item 3c deletes them.
type Engine string

const (
	EngineInterp   Engine = "interp"
	EngineCompiled Engine = "compiled"
)

// RunEngine is Run for EngineCompiled and the step-only reference sim.Run
// for anything else.
func (o *Object) RunEngine(eng Engine) (*Result, error) {
	if eng == EngineCompiled {
		return o.Run()
	}
	st, stats, err := sim.Run(o.Binary, o.Machine)
	return o.result(st, stats, err)
}

// Trace executes the program while writing a per-cycle execution trace
// (cycle, pc, instruction) for the first `cycles` issued instruction
// words to w (0 traces everything).
func (o *Object) Trace(w io.Writer, cycles int64) error {
	s := o.prog.Cell(o.Binary, o.Machine, o.tracer)
	s.Trace = w
	s.TraceCycles = cycles
	_, err := s.Run()
	return err
}

// Verify checks the binary with the independent object-code verifier
// (resource legality including kernel wraparound, concolic provenance
// equivalence with the source program), then runs it and checks the
// final state against the reference IR interpreter, returning the
// result on success.
func (o *Object) Verify() (*Result, error) {
	sp := o.tracer.Begin("verify")
	err := verify.ProgramOpts(o.source, o.Binary, o.Machine, verify.Options{Tracer: o.tracer})
	sp.End()
	if err != nil {
		return nil, err
	}
	want, err := ir.Run(o.source)
	if err != nil {
		return nil, fmt.Errorf("softpipe: interpreter: %w", err)
	}
	res, err := o.Run()
	if err != nil {
		return nil, err
	}
	if d := want.Diff(res.State); d != "" {
		return nil, fmt.Errorf("softpipe: simulation diverges from interpreter: %s", d)
	}
	return res, nil
}

// Interpret executes the IR program directly on the reference
// interpreter (no compilation), returning the observable state.
func Interpret(p *Program) (*State, error) { return ir.Run(p) }

// WithFloatData returns a copy of the object whose named float arrays are
// re-initialized — the cheap way to run one compiled cell program on many
// cells with per-cell data (a homogeneous Warp program).  Like InitF, the
// slices in data are shared, not copied, and must not change afterwards.
// The copy decodes its own binary: its decoded form carries its data.
func (o *Object) WithFloatData(data map[string][]float64) *Object {
	bin := *o.Binary
	bin.InitF = map[string][]float64{}
	for k, v := range o.Binary.InitF {
		bin.InitF[k] = v
	}
	for k, v := range data {
		bin.InitF[k] = v
	}
	return &Object{Binary: &bin, Report: o.Report, Machine: o.Machine, source: o.source, tracer: o.tracer}
}

// ArrayResult is a completed array simulation.
type ArrayResult struct {
	// Output is the stream the last cell sent to the host.
	Output []float64
	// LastCellState is the final memory/result state of the last cell.
	LastCellState *State
	Cycles        int64
	Flops         int64
	// MFLOPS is the whole-array rate (total flops over the array wall
	// clock at the machine's frequency).
	MFLOPS float64
	// CellStats carries per-cell II/stall/occupancy rows for partitioned
	// runs (nil for homogeneous RunArray).
	CellStats []ArrayCellStats
}

// RunArray chains the compiled cells into a linear Warp array — cell i's
// sends feed cell i+1's receives through a bounded queue — preloads the
// first cell's input channel with `input`, and runs until every cell
// halts.  All cells must target the same machine.
func RunArray(cells []*Object, input []float64) (*ArrayResult, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("softpipe: empty array")
	}
	m := cells[0].Machine
	cs := make([]*sim.Sim, len(cells))
	for i, c := range cells {
		if c.Machine != m {
			return nil, fmt.Errorf("softpipe: cells target different machines")
		}
		cs[i] = c.prog.Cell(c.Binary, m, c.tracer)
	}
	arr := sim.NewArrayCells(cs, input)
	out, last, err := arr.Run()
	if err != nil {
		return nil, err
	}
	st := arr.Stats()
	return &ArrayResult{
		Output:        out,
		LastCellState: last,
		Cycles:        st.Cycles,
		Flops:         st.Flops,
		MFLOPS:        st.MFLOPS(m, 1),
	}, nil
}
