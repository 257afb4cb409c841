package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"softpipe"
	"softpipe/internal/bench"
	"softpipe/internal/depgraph"
	"softpipe/internal/hier"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/pipeline"
	"softpipe/internal/schedule"
	"softpipe/internal/workloads"
)

// saxpySource mirrors testdata/saxpy.w2, so the benchmark does not
// depend on its working directory.
const saxpySource = `
program saxpy;
const n = 200;
var x, y: array [0..199] of real;
    a: real;
    i: int;
begin
  a := 3.0;
  for i := 0 to n-1 do
    y[i] := y[i] + a * x[i];
end.
`

// unit is one program of a compile corpus with its target.
type unit struct {
	name string
	// src is W2 text; empty when the program is generated as IR.
	src  string
	prog *ir.Program
	// init presets the arrays of a program lowered from src.
	init func(*ir.Program)
	mach *machine.Machine
	// fixed marks the paper's evaluation set, which no seed changes; the
	// exact end-to-end totals are summed over these units only.
	fixed bool
}

// lower returns the unit's IR: as generated, or lowered from its W2 text
// (under a lang.compile span) with its arrays preset.
func (u *unit) lower(tr *tracer) (*ir.Program, error) {
	if u.src == "" {
		return u.prog, nil
	}
	tr.begin("lang.compile")
	p, err := lang.Compile(u.src)
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", u.name, err)
	}
	if u.init != nil {
		u.init(p)
	}
	return p, nil
}

func fillRamp(p *ir.Program) {
	for _, a := range p.Arrays {
		a.InitF = make([]float64, a.Size)
		for i := range a.InitF {
			a.InitF[i] = float64(i % 11)
		}
	}
}

// paperSources is saxpy plus the 19 Livermore kernels, as W2 text.
func paperSources(m *machine.Machine) []unit {
	us := []unit{{name: "saxpy", src: saxpySource, init: fillRamp, mach: m, fixed: true}}
	for _, k := range workloads.Livermore() {
		us = append(us, unit{name: k.Name, src: k.Source, init: k.Init, mach: m, fixed: true})
	}
	return us
}

const (
	// exactNodesMax admits a program to compile-exact when its loops'
	// exact searches, run from outside, explore at most this many decision
	// nodes in all.  On the seed commit the slowest admitted compile takes
	// 53 ms, far under the 2 s budget, so no admitted search comes near
	// falling back.
	exactNodesMax = 100_000
	exactBudget   = 2 * time.Second
	screenBudget  = time.Second
)

// corpusUnits is the compile-corpus population: the 72 synthetic user
// programs, saxpy and the Livermore kernels, and 30 seeded draws from
// each random generator's pool, all for the Warp cell.  The suite comes
// first.
func corpusUnits(seed int64, scale float64) []unit {
	warp := machine.Warp()
	var us []unit
	suite := workloads.Suite()
	for _, s := range suite[:scaled(len(suite), scale)] {
		us = append(us, unit{name: s.Name, prog: s.Prog, mach: warp, fixed: true})
	}
	paper := paperSources(warp)
	us = append(us, paper[:scaled(len(paper), scale)]...)
	rng := rand.New(rand.NewSource(seed))
	for _, s := range drawPairs(sourcePool, rng, scale) {
		us = append(us, unit{name: fmt.Sprintf("source%d", s), src: workloads.RandomSource(s), mach: warp})
	}
	for _, s := range drawPairs(programPool, rng, scale) {
		us = append(us, unit{name: fmt.Sprintf("fuzz%d", s), prog: workloads.RandomProgram(s), mach: warp})
	}
	return us
}

// exactUnits is the compile-exact population: the paper sources on Warp
// and on three grid machines, plus a seeded half of exactPool.  The grid
// machines are the rotating point at width 1 and the MVE points at
// widths 2 and 4, each with a seeded number of memory ports: at every
// width that is the pair of grid points whose compiles cost most alike.
func exactUnits(seed int64, scale float64) ([]unit, error) {
	rng := rand.New(rand.NewSource(seed))
	machines := []*machine.Machine{machine.Warp()}
	for _, g := range []machine.Gen{
		{FAdds: 1, FMuls: 1, RotatingRegs: true}, {FAdds: 2, FMuls: 2}, {FAdds: 4, FMuls: 4},
	} {
		g.MemPorts = 1 + rng.Intn(2)
		m, err := g.Machine()
		if err != nil {
			return nil, err
		}
		machines = append(machines, m)
	}
	var us []unit
	for mi, m := range machines[:scaled(len(machines), scale)] {
		paper := paperSources(m)
		for _, u := range paper[:scaled(len(paper), scale)] {
			u.name += "@" + m.Name
			u.fixed = mi == 0
			us = append(us, u)
		}
	}
	for _, s := range drawPairs(exactPool, rng, scale) {
		p := workloads.RandomProgram(s)
		if err := screen(p, machines[0]); err != nil {
			return nil, fmt.Errorf("compile-exact: pool program %d is no longer admitted (%v); re-screen exactPool", s, err)
		}
		us = append(us, unit{name: fmt.Sprintf("fuzz%d", s), prog: p, mach: machines[0]})
	}
	return us, nil
}

// screen checks that a program still qualifies for compile-exact: every
// innermost loop is searched once at exact effort, no search may fall
// back, and the explored decision nodes may sum to at most
// exactNodesMax.  ExactNodes is a count, not a time, so the verdict is
// the same on every run.
func screen(p *ir.Program, m *machine.Machine) error {
	var nodes int64
	for _, l := range innermostLoops(p.Body, nil) {
		a, _, err := analyzeLoop(p, m, l, nil)
		if err != nil {
			continue
		}
		_, st, err := schedule.New(schedule.EffortExact, a, m).Search(searchOptions(screenBudget))
		if err != nil {
			return err
		}
		if st.FellBack {
			return fmt.Errorf("loop %d fell back within %v", l.ID, screenBudget)
		}
		nodes += st.ExactNodes
	}
	if nodes > exactNodesMax {
		return fmt.Errorf("%d nodes explored, limit %d", nodes, exactNodesMax)
	}
	return nil
}

func searchOptions(budget time.Duration) schedule.Options {
	return schedule.Options{ReserveBranch: true, BranchResource: machine.ResBranch, Budget: budget}
}

// innermostLoops appends the loops of b that contain no loop and are not
// barred from pipelining.
func innermostLoops(b *ir.Block, out []*ir.LoopStmt) []*ir.LoopStmt {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ir.IfStmt:
			out = innermostLoops(s.Then, out)
			out = innermostLoops(s.Else, out)
		case *ir.LoopStmt:
			if hasLoop(s.Body) {
				out = innermostLoops(s.Body, out)
			} else if !s.NoPipeline {
				out = append(out, s)
			}
		}
	}
	return out
}

func hasLoop(b *ir.Block) bool {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ir.LoopStmt:
			return true
		case *ir.IfStmt:
			if hasLoop(s.Then) || hasLoop(s.Else) {
				return true
			}
		}
	}
	return false
}

// analyzeLoop runs the front of the per-loop chain from outside, one
// span per layer: hier.BuildNodes, depgraph.BuildIndep (+Filter of every
// expandable register, as the pipeliner's first attempt does), and
// depgraph.Analyze.
func analyzeLoop(p *ir.Program, m *machine.Machine, l *ir.LoopStmt, tr *tracer) (*depgraph.Analysis, []*depgraph.Node, error) {
	tr.begin("hier.build_nodes")
	nodes, err := hier.BuildNodes(p, m, l.ID, l.Body)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	tr.begin("depgraph.build")
	full := depgraph.BuildIndep(nodes, l.ID, l.Independent)
	g := full.Filter(full.Expandable)
	tr.end()
	tr.begin("depgraph.analyze")
	a, err := depgraph.Analyze(g, m)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		ifs := 0
		for _, n := range nodes {
			if n.Payload != nil {
				ifs++
			}
		}
		tr.count("hier.nodes", int64(len(nodes)))
		tr.count("hier.reduced_ifs", int64(ifs))
		tr.count("depgraph.edges", int64(len(g.Edges)))
	}
	return a, nodes, nil
}

// compileWL is compile-corpus and compile-exact: one operation takes a
// program from source (W2 text or IR) to an object.
type compileWL struct {
	exact bool
	opts  softpipe.Options
	units []unit
	// objs holds the latest pass's objects and first the warm-up pass's;
	// the check pass compares the two and verifies the latest.  progs is
	// the IR each object of the latest pass was compiled from.
	objs, first []*softpipe.Object
	progs       []*ir.Program
}

func (w *compileWL) setup(seed int64, scale float64) (err error) {
	if w.exact {
		w.opts = softpipe.Options{Effort: softpipe.EffortExact, EffortBudget: exactBudget}
		w.units, err = exactUnits(seed, scale)
	} else {
		w.units = corpusUnits(seed, scale)
	}
	w.objs = make([]*softpipe.Object, len(w.units))
	w.progs = make([]*ir.Program, len(w.units))
	return err
}

func (w *compileWL) effort() schedule.Effort {
	if w.exact {
		return schedule.EffortExact
	}
	return schedule.EffortHeuristic
}

// compile is the operation: lang.Compile for W2 text, then
// softpipe.Compile (codegen.Compile and everything under it).
func (w *compileWL) compile(u *unit, tr *tracer) (*ir.Program, *softpipe.Object, error) {
	p, err := u.lower(tr)
	if err != nil {
		return nil, nil, err
	}
	tr.begin("codegen.compile")
	obj, err := softpipe.Compile(p, u.mach, w.opts)
	tr.end()
	if err != nil {
		tr.count("codegen.fail", 1)
		return p, nil, fmt.Errorf("%s: %w", u.name, err)
	}
	for _, l := range obj.Report.Loops {
		if l.FellBack {
			return p, obj, fmt.Errorf("%s: loop %d: exact search fell back to the heuristic", u.name, l.LoopID)
		}
	}
	return p, obj, nil
}

func (w *compileWL) close() {}

func (w *compileWL) pass(r *run, tr *tracer) {
	for i := range w.units {
		u := &w.units[i]
		tr.nextOp()
		t0 := time.Now()
		tr.begin("op")
		p, obj, err := w.compile(u, tr)
		tr.end()
		r.observe(time.Since(t0), err)
		w.progs[i], w.objs[i] = p, obj
		if tr != nil && obj != nil {
			w.countReport(obj, tr)
			w.replay(p, u.mach, tr)
		}
	}
	if w.first == nil {
		w.first = append([]*softpipe.Object(nil), w.objs...)
	}
}

// countReport reads the pipeliner's and emitter's outcome from the
// object's public report.
func (w *compileWL) countReport(obj *softpipe.Object, tr *tracer) {
	tr.count("codegen.code_words", int64(len(obj.Binary.Instrs)))
	for _, l := range obj.Report.Loops {
		tr.count("pipeline.loops_total", 1)
		if !l.Pipelined {
			continue
		}
		tr.count("pipeline.loops_pipelined", 1)
		if l.MetLower {
			tr.count("pipeline.met_mii", 1)
		}
		tr.count("pipeline.unroll_sum", int64(l.Unroll))
		tr.count("pipeline.stages_sum", int64(l.Stages))
	}
}

// replay repeats the per-loop chain from outside on every innermost
// loop of the program just compiled.  These are layer costs on the
// workload's inputs, not exclusive shares of codegen.Compile: copy
// budgets and live-outs cannot be reproduced from outside.
func (w *compileWL) replay(p *ir.Program, m *machine.Machine, tr *tracer) {
	tr.beginReplay()
	defer tr.endReplay()
	for _, l := range innermostLoops(p.Body, nil) {
		a, nodes, err := analyzeLoop(p, m, l, tr)
		if err != nil {
			continue
		}
		tr.begin("schedule.search")
		res, st, err := schedule.New(w.effort(), a, m).Search(searchOptions(w.opts.EffortBudget))
		tr.end()
		if st != nil {
			tr.count("schedule.attempts", int64(st.Attempts))
			tr.count("schedule.backtracks", int64(st.Backtracks))
			tr.count("schedule.exact_nodes", st.ExactNodes)
			if st.Proved {
				tr.count("schedule.exact_proved", 1)
			}
			if st.FellBack {
				tr.count("schedule.exact_fellback", 1)
			}
		}
		if err == nil {
			tr.count("schedule.ii_sum", int64(res.II))
			tr.count("schedule.mii_sum", int64(a.MII))
		}
		tr.begin("pipeline.plan")
		_, _ = pipeline.PlanLoop(nodes, l.ID, m, pipeline.Options{ // a loop that cannot be planned is a result, not a fault
			Effort: w.effort(), SchedBudget: w.opts.EffortBudget, IndependentMem: l.Independent,
		})
		tr.end()
	}
}

func (w *compileWL) check(r *run) (cycles, words, seeded int64) {
	for i, obj := range w.objs {
		u := &w.units[i]
		if obj == nil || w.first[i] == nil {
			continue // already reported by the pass that failed to compile it
		}
		same := sha256.Sum256([]byte(obj.Disassemble())) == sha256.Sum256([]byte(w.first[i].Disassemble()))
		r.violation(same, "%s: disassembly differs between the warm-up pass and the last pass", u.name)
		res, err := obj.Verify()
		r.violation(err == nil, "%s: Object.Verify: %v", u.name, err)
		if err != nil {
			continue
		}
		if u.fixed {
			cycles += res.Cycles
			words += int64(len(obj.Binary.Instrs))
		} else {
			seeded += res.Cycles
		}
	}
	return
}

func (w *compileWL) layers(tr *tracer, out map[string]float64) {
	out["codegen.rest_ms"] = out["codegen.compile_ms"] - out["pipeline.plan_ms"]

	var srcs []string
	tokens := 0
	for _, u := range w.units {
		if u.src == "" {
			continue
		}
		srcs = append(srcs, u.src)
		if toks, err := lang.LexAll(u.src); err == nil {
			tokens += len(toks)
		}
	}
	out["lang.tokens"] = float64(tokens)
	out["lang.canon_us_per_src"] = canonMicros(srcs)

	// Allocation of the compiler alone: IR in hand, softpipe.Compile only.
	out["codegen.alloc_kb_per_op"] = allocKiBPerOp(len(w.progs), func(i int) {
		if w.progs[i] != nil {
			_, _ = softpipe.Compile(w.progs[i], w.units[i].mach, w.opts) // measured for allocation only; pass() reports failures
		}
	})

	if !w.exact {
		// One corpus pass through the evaluation harness's worker pool
		// at one and at two workers.
		one := w.poolPass(1)
		two := w.poolPass(2)
		out["bench.pool_speedup_2w"] = one / two
	}
}

func (w *compileWL) poolPass(workers int) float64 {
	t0 := time.Now()
	_ = bench.ForEach(context.Background(), len(w.units), workers, func(i int) error { // fn never fails
		_, _, _ = w.compile(&w.units[i], nil)
		return nil
	})
	return time.Since(t0).Seconds()
}

// canonMicros times the service's canonicalisation (lang.Parse +
// lang.Format) and returns microseconds per source.
func canonMicros(srcs []string) float64 {
	if len(srcs) == 0 {
		return 0
	}
	const reps = 5
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, s := range srcs {
			if ast, err := lang.Parse(s); err == nil {
				_ = lang.Format(ast)
			}
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(reps*len(srcs))
}

// allocKiBPerOp runs fn(0..n-1) once and returns the KiB allocated per
// call.
func allocKiBPerOp(n int, fn func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n)
}
