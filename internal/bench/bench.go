// Package bench regenerates the paper's evaluation artifacts: Table 4-1
// (application MFLOPS on the array), Table 4-2 (Livermore loops on one
// cell: MFLOPS, efficiency lower bound, speedup), Figure 4-1 (MFLOPS
// histogram over the program population) and Figure 4-2 (speedup over
// locally compacted code), plus the §4.1 population statistics.
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"softpipe"
	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/pipeline"
	"softpipe/internal/schedule"
	"softpipe/internal/sim"
	"softpipe/internal/trace"
	"softpipe/internal/workloads"
)

// RunResult is one compiled-and-simulated execution.
type RunResult struct {
	Name   string
	Cycles int64
	Flops  int64
	// CellMFLOPS is the single-cell rate; ArrayMFLOPS scales by the
	// machine's homogeneous cell count (Lam §4.1).
	CellMFLOPS  float64
	ArrayMFLOPS float64
	Report      *codegen.Report
	State       *ir.State
}

// Run compiles p in the given mode and simulates it on the interpreter.
func Run(p *ir.Program, m *machine.Machine, mode codegen.Mode) (*RunResult, error) {
	return run(p, m, codegen.Options{Mode: mode}, softpipe.EngineInterp)
}

func run(p *ir.Program, m *machine.Machine, opts codegen.Options, eng softpipe.Engine) (*RunResult, error) {
	sp := opts.Tracer.Begin("compile")
	prog, rep, err := codegen.Compile(p, m, opts)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("bench: compile %s: %w", p.Name, err)
	}
	sp = opts.Tracer.Begin("sim.run")
	st, stats, err := sim.RunEngine(prog, m, eng == softpipe.EngineCompiled)
	sp.Arg("cycles", stats.Cycles).End()
	if err != nil {
		return nil, fmt.Errorf("bench: simulate %s: %w", p.Name, err)
	}
	return &RunResult{
		Name:        p.Name,
		Cycles:      stats.Cycles,
		Flops:       stats.Flops,
		CellMFLOPS:  stats.MFLOPS(m, 1),
		ArrayMFLOPS: stats.MFLOPS(m, m.Cells),
		Report:      rep,
		State:       st,
	}, nil
}

// RunVerified is Run with the independent emitted-code verifier
// (internal/verify) enabled at compile time, plus a differential check
// of the simulated final state against the IR interpreter.
func RunVerified(p *ir.Program, m *machine.Machine, mode codegen.Mode) (*RunResult, error) {
	return runVerified(p, m, codegen.Options{Mode: mode, VerifyEmitted: true}, softpipe.EngineInterp)
}

func runVerified(p *ir.Program, m *machine.Machine, opts codegen.Options, eng softpipe.Engine) (*RunResult, error) {
	want, err := ir.Run(p)
	if err != nil {
		return nil, fmt.Errorf("bench: interpret %s: %w", p.Name, err)
	}
	r, err := run(p, m, opts, eng)
	if err != nil {
		return nil, err
	}
	if d := want.Diff(r.State); d != "" {
		return nil, fmt.Errorf("bench: %s: simulated state diverges from interpreter: %s", p.Name, d)
	}
	return r, nil
}

// Table42Row is one Livermore kernel measurement (Lam Table 4-2).
type Table42Row struct {
	KernelID int
	Name     string
	// MFLOPS is the single-cell rate of the pipelined binary.
	MFLOPS float64
	// Efficiency is the lower bound MII/achieved-II, weighted across the
	// kernel's loops by their estimated execution share; 1.0 means every
	// pipelined loop met the bound (Table 4-2, third column).
	Efficiency float64
	// Speedup is unpipelined cycles / pipelined cycles (fourth column).
	Speedup   float64
	Pipelined bool // any loop pipelined
	Note      string
	// Report is the pipelined compilation's per-loop report (with
	// explain data when Table42Opts.Explain was set).
	Report *codegen.Report
}

// Table42Opts tunes a Table 4-2 run beyond the mode flags.
type Table42Opts struct {
	// Verify enables the independent object-code verifier plus the
	// differential interpreter check on every run.
	Verify bool
	// Workers sizes the pool (≤ 0 means GOMAXPROCS).
	Workers int
	// Explain records the II-search explain report per loop.
	Explain bool
	// Tracer receives per-phase spans (one sink per pool worker, merged
	// at the end); nil traces nothing.
	Tracer *trace.Tracer
	// Engine selects the simulator implementation ("" = interp).  Rows
	// are engine-invariant; the compiled engine only changes host-side
	// wall clock.
	Engine softpipe.Engine
	// Effort selects the II search backend (heuristic or exact); see
	// schedule.Effort.  EffortBudget bounds the exact search per compile
	// (0 means the built-in default).
	Effort       schedule.Effort
	EffortBudget time.Duration
}

// pipelineOpts renders effort settings as scheduler options.
func pipelineOpts(eff schedule.Effort, budget time.Duration) pipeline.Options {
	return pipeline.Options{Effort: eff, SchedBudget: budget}
}

// Table42 reproduces Table 4-2 on machine m (one cell).  Kernels
// compile and simulate on a pool of `workers` goroutines (≤ 0 means
// GOMAXPROCS); results land in kernel order regardless of the pool size,
// so parallel and sequential runs are byte-identical.
func Table42(m *machine.Machine, verify bool, workers int) ([]Table42Row, error) {
	return Table42With(m, Table42Opts{Verify: verify, Workers: workers})
}

// Table42With is Table42 with explain/trace instrumentation.
func Table42With(m *machine.Machine, o Table42Opts) ([]Table42Row, error) {
	kernels := workloads.Livermore()
	rows := make([]Table42Row, len(kernels))
	err := ForEachTraced(context.Background(), len(kernels), o.Workers, o.Tracer, func(i int, t *trace.Tracer) error {
		row, err := runKernel42(kernels[i], m, o, t)
		if err != nil {
			return err
		}
		rows[i] = *row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func runKernel42(k *workloads.Kernel, m *machine.Machine, o Table42Opts, t *trace.Tracer) (*Table42Row, error) {
	p, err := k.Build()
	if err != nil {
		return nil, err
	}
	runner := run
	if o.Verify {
		runner = runVerified
	}
	job := t.Begin("kernel." + k.Name)
	defer job.End()
	pipe, err := runner(p, m, codegen.Options{Mode: codegen.ModePipelined, Pipeline: pipelineOpts(o.Effort, o.EffortBudget), VerifyEmitted: o.Verify, Explain: o.Explain, Tracer: t}, o.Engine)
	if err != nil {
		return nil, err
	}
	p2, err := k.Build()
	if err != nil {
		return nil, err
	}
	base, err := runner(p2, m, codegen.Options{Mode: codegen.ModeUnpipelined, VerifyEmitted: o.Verify, Tracer: t}, o.Engine)
	if err != nil {
		return nil, err
	}
	row := &Table42Row{
		KernelID:   k.ID,
		Name:       k.Name,
		MFLOPS:     pipe.CellMFLOPS,
		Efficiency: WeightedEfficiency(pipe.Report),
		Speedup:    float64(base.Cycles) / float64(pipe.Cycles),
		Note:       k.Note,
		Report:     pipe.Report,
	}
	for _, lr := range pipe.Report.Loops {
		if lr.Pipelined {
			row.Pipelined = true
		}
	}
	return row, nil
}

// WeightedEfficiency is the Table 4-2 efficiency lower bound: per loop
// MII/achieved-II, weighted by the loop's estimated execution time
// (trip count × II), with unpipelined loops counting as efficiency 1
// against their own length (the paper weighs kernels with multiple loops
// by execution time).
func WeightedEfficiency(rep *codegen.Report) float64 {
	var wsum, esum float64
	for _, lr := range rep.Loops {
		if lr.II <= 0 {
			continue
		}
		trip := float64(lr.TripCount)
		if trip < 0 {
			trip = 1
		}
		w := trip * float64(lr.II)
		eff := 1.0
		if lr.Pipelined && lr.II > 0 && lr.MII > 0 {
			eff = float64(lr.MII) / float64(lr.II)
		}
		wsum += w
		esum += w * eff
	}
	if wsum == 0 {
		return 1
	}
	return esum / wsum
}

// Table41Row is one application measurement (Lam Table 4-1).
type Table41Row struct {
	Name        string
	ArrayMFLOPS float64
	CellMFLOPS  float64
	PaperMFLOPS float64
	Cycles      int64
}

// Table41 reproduces Table 4-1.  Single-cell kernels scale by the cell
// count (the §4.1 homogeneous rule); the systolic matmul runs on the
// actual simulated array.  Applications fan out over `workers`
// goroutines (≤ 0 means GOMAXPROCS) with the row order fixed.
func Table41(m *machine.Machine, verify bool, workers int) ([]Table41Row, error) {
	return Table41Engine(m, verify, workers, softpipe.EngineInterp)
}

// Table41Engine is Table41 on the selected simulator engine (the
// systolic matmul row always runs on the interpreter array).
func Table41Engine(m *machine.Machine, verify bool, workers int, eng softpipe.Engine) ([]Table41Row, error) {
	return Table41With(m, SuiteOpts{Verify: verify, Workers: workers, Engine: eng})
}

// SuiteOpts tunes Table41With and RunSuiteWith beyond the mode flags.
type SuiteOpts struct {
	Verify  bool
	Workers int
	Tracer  *trace.Tracer
	Engine  softpipe.Engine
	// Effort/EffortBudget select and bound the II search backend.
	Effort       schedule.Effort
	EffortBudget time.Duration
}

// Table41With is Table41Engine with the full option set.
func Table41With(m *machine.Machine, o SuiteOpts) ([]Table41Row, error) {
	verify, workers, eng := o.Verify, o.Workers, o.Engine
	apps := workloads.Apps()
	rows := make([]Table41Row, len(apps)+1)
	runner := func(p *ir.Program, m *machine.Machine, mode codegen.Mode) (*RunResult, error) {
		opts := codegen.Options{Mode: mode, Pipeline: pipelineOpts(o.Effort, o.EffortBudget), VerifyEmitted: verify}
		if verify {
			return runVerified(p, m, opts, eng)
		}
		opts.VerifyEmitted = false
		return run(p, m, opts, eng)
	}
	err := ForEach(context.Background(), len(apps)+1, workers, func(i int) error {
		if i == 0 {
			sys, err := SystolicMatmulRow(m, 100, m.Cells)
			if err != nil {
				return err
			}
			rows[0] = sys
			return nil
		}
		app := apps[i-1]
		p, err := app.Build()
		if err != nil {
			return err
		}
		r, err := runner(p, m, codegen.ModePipelined)
		if err != nil {
			return err
		}
		rows[i] = Table41Row{
			Name:        app.Name,
			ArrayMFLOPS: r.ArrayMFLOPS,
			CellMFLOPS:  r.CellMFLOPS,
			PaperMFLOPS: app.PaperMFLOPS,
			Cycles:      r.Cycles,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// SystolicMatmulRow measures the paper's real matmul: C = A·B streamed
// through the full array (Table 4-1's 79.4 MFLOPS entry).
func SystolicMatmulRow(m *machine.Machine, n, cells int) (Table41Row, error) {
	a := make([]float64, n*n)
	bm := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.25
		bm[i] = float64(i%5)*0.5 - 1
	}
	got, st, _, err := workloads.SystolicMatmul(m, n, cells, a, bm)
	if err != nil {
		return Table41Row{}, err
	}
	// Spot-check a few entries against the host product.
	for _, idx := range []int{0, n + 1, n*n - 1} {
		i, j := idx/n, idx%n
		want := 0.0
		for k := 0; k < n; k++ {
			want += a[i*n+k] * bm[k*n+j]
		}
		if got[idx] != want {
			return Table41Row{}, fmt.Errorf("bench: systolic matmul wrong at [%d][%d]", i, j)
		}
	}
	return Table41Row{
		Name:        fmt.Sprintf("matmul-systolic-%dx%d", n, n),
		ArrayMFLOPS: st.MFLOPS(m, 1),
		CellMFLOPS:  st.MFLOPS(m, 1) / float64(cells),
		PaperMFLOPS: 79.4,
		Cycles:      st.Cycles,
	}, nil
}

// SuiteResult holds the per-program outcomes behind Figures 4-1 and 4-2.
type SuiteResult struct {
	Name        string
	HasCond     bool
	ArrayMFLOPS float64
	Speedup     float64
	Report      *codegen.Report
}

// RunSuite measures the synthetic population in both modes.  One job
// covers both compilations of a program (pipelined and the unpipelined
// baseline share sp.Prog), fanned out over `workers` goroutines (≤ 0
// means GOMAXPROCS); result order is the suite order either way.
func RunSuite(m *machine.Machine, verify bool, workers int) ([]SuiteResult, error) {
	return RunSuiteTraced(m, verify, workers, nil)
}

// RunSuiteTraced is RunSuite recording per-phase spans into tr (one
// trace sink per pool worker, merged at the end); nil tr traces nothing.
func RunSuiteTraced(m *machine.Machine, verify bool, workers int, tr *trace.Tracer) ([]SuiteResult, error) {
	return RunSuiteEngine(m, verify, workers, tr, softpipe.EngineInterp)
}

// RunSuiteEngine is RunSuiteTraced on the selected simulator engine.
func RunSuiteEngine(m *machine.Machine, verify bool, workers int, tr *trace.Tracer, eng softpipe.Engine) ([]SuiteResult, error) {
	return RunSuiteWith(m, SuiteOpts{Verify: verify, Workers: workers, Tracer: tr, Engine: eng})
}

// RunSuiteWith is RunSuiteEngine with the full option set.
func RunSuiteWith(m *machine.Machine, o SuiteOpts) ([]SuiteResult, error) {
	verify, workers, tr, eng := o.Verify, o.Workers, o.Tracer, o.Engine
	progs := workloads.Suite()
	out := make([]SuiteResult, len(progs))
	err := ForEachTraced(context.Background(), len(progs), workers, tr, func(i int, t *trace.Tracer) error {
		sp := progs[i]
		runner := run
		if verify {
			runner = runVerified
		}
		job := t.Begin("suite." + sp.Name)
		pipe, err := runner(sp.Prog, m, codegen.Options{Mode: codegen.ModePipelined, Pipeline: pipelineOpts(o.Effort, o.EffortBudget), VerifyEmitted: verify, Tracer: t}, eng)
		if err != nil {
			job.End()
			return err
		}
		base, err := runner(sp.Prog, m, codegen.Options{Mode: codegen.ModeUnpipelined, VerifyEmitted: verify, Tracer: t}, eng)
		job.End()
		if err != nil {
			return err
		}
		out[i] = SuiteResult{
			Name:        sp.Name,
			HasCond:     sp.HasCond,
			ArrayMFLOPS: pipe.ArrayMFLOPS,
			Speedup:     float64(base.Cycles) / float64(pipe.Cycles),
			Report:      pipe.Report,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Histogram buckets values for the figures.
func Histogram(values []float64, width float64, max float64) []int {
	n := int(max/width) + 1
	h := make([]int, n)
	for _, v := range values {
		b := int(v / width)
		if b >= n {
			b = n - 1
		}
		if b < 0 {
			b = 0
		}
		h[b]++
	}
	return h
}

// PopulationStats aggregates the §4.1 loop statistics over a set of
// compilation reports: the fraction of loops scheduled at the MII lower
// bound, and the fraction of conditional/recurrence-free loops pipelined
// perfectly (the paper reports 75% and 93%).
type PopulationStats struct {
	Loops          int
	Pipelined      int
	MetBound       int
	SimpleLoops    int // no conditionals, no nontrivial recurrences
	SimpleMet      int
	AvgEffOfMissed float64 // paper: 75% average efficiency for the rest
}

// Stats computes the population statistics.
func Stats(results []SuiteResult) PopulationStats {
	var st PopulationStats
	var missSum float64
	var missN int
	for _, r := range results {
		for _, lr := range r.Report.Loops {
			st.Loops++
			if lr.Pipelined {
				st.Pipelined++
			}
			if lr.Pipelined && lr.MetLower {
				st.MetBound++
			}
			simple := !lr.HasCond && !lr.HasRecur
			if simple {
				st.SimpleLoops++
				if lr.Pipelined && lr.MetLower {
					st.SimpleMet++
				}
			}
			if lr.Pipelined && !lr.MetLower && lr.II > 0 {
				missSum += float64(lr.MII) / float64(lr.II)
				missN++
			}
		}
	}
	if missN > 0 {
		st.AvgEffOfMissed = missSum / float64(missN)
	}
	return st
}

// FormatTable renders rows of strings with aligned columns.
func FormatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
