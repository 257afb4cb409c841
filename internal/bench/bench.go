// Package bench regenerates the paper's evaluation artifacts: Table 4-1
// (application MFLOPS on the array), Table 4-2 (Livermore loops on one
// cell: MFLOPS, efficiency lower bound, speedup), Figure 4-1 (MFLOPS
// histogram over the program population) and Figure 4-2 (speedup over
// locally compacted code), plus the §4.1 population statistics.
package bench

import (
	"fmt"
	"strings"

	"softpipe"
	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/workloads"
)

// RunResult is one compiled-and-simulated execution: the simulation
// result (cycles, flops, single-cell and homogeneous-array MFLOPS of Lam
// §4.1, final state) plus the compilation report.
type RunResult struct {
	Name string
	*softpipe.Result
	Report *softpipe.Report
	Words  int // instruction words of the object
}

// Run compiles p for m under cfg.Options and simulates it.
// With cfg.Options.VerifyEmitted the compile runs the independent
// emitted-code verifier (internal/verify) and the simulated final state
// is checked against the IR interpreter.
func Run(p *ir.Program, m *machine.Machine, cfg Config) (*RunResult, error) {
	var want *ir.State
	if cfg.Options.VerifyEmitted {
		var err error
		if want, err = ir.Run(p); err != nil {
			return nil, fmt.Errorf("bench: interpret %s: %w", p.Name, err)
		}
	}
	obj, err := softpipe.CompileWith(p, m, cfg.Options, func(o *codegen.Options) { o.WholeArms = cfg.WholeArms })
	if err != nil {
		return nil, fmt.Errorf("bench: compile %s: %w", p.Name, err)
	}
	res, err := obj.Run()
	if err != nil {
		return nil, fmt.Errorf("bench: simulate %s: %w", p.Name, err)
	}
	if want != nil {
		if d := want.Diff(res.State); d != "" {
			return nil, fmt.Errorf("bench: %s: simulated state diverges from interpreter: %s", p.Name, d)
		}
	}
	return &RunResult{Name: p.Name, Result: res, Report: obj.Report, Words: len(obj.Binary.Instrs)}, nil
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
	// explain data when cfg.Options.Explain was set).
	Report *softpipe.Report
}

// Table42 reproduces Table 4-2 on machine m (one cell): every Livermore
// kernel compiled under cfg.Options and as the locally compacted
// baseline, both simulated.
func Table42(m *machine.Machine, cfg Config) ([]Table42Row, error) {
	kernels := workloads.Livermore()
	var jobs []Job
	for _, k := range kernels {
		p, err := k.Build()
		if err != nil {
			return nil, err
		}
		jobs = cfg.pair(jobs, "kernel."+k.Name, p, m)
	}
	res, err := Measure(cfg, jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table42Row, len(kernels))
	for i, k := range kernels {
		pipe, base := res[2*i], res[2*i+1]
		rows[i] = Table42Row{
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
				rows[i].Pipelined = true
			}
		}
	}
	return rows, nil
}

// WeightedEfficiency is the Table 4-2 efficiency lower bound: per loop
// MII/achieved-II, weighted by the loop's estimated execution time
// (trip count × II), with unpipelined loops counting as efficiency 1
// against their own length (the paper weighs kernels with multiple loops
// by execution time).
func WeightedEfficiency(rep *softpipe.Report) float64 {
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
// actual simulated array.  The row order is fixed.
func Table41(m *machine.Machine, cfg Config) ([]Table41Row, error) {
	apps := workloads.Apps()
	jobs := make([]Job, len(apps))
	for i, app := range apps {
		p, err := app.Build()
		if err != nil {
			return nil, err
		}
		jobs[i] = Job{"app." + app.Name, p, m, cfg.Options}
	}
	// The systolic row is the longest single job and is not a compile, so
	// it runs beside the pool rather than in front of it.
	var sys Table41Row
	var sysErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		sys, sysErr = SystolicMatmulRow(m, 100, m.Cells)
	}()
	res, err := Measure(cfg, jobs)
	<-done
	if sysErr != nil {
		return nil, sysErr
	}
	if err != nil {
		return nil, err
	}
	rows := []Table41Row{sys}
	for i, r := range res {
		rows = append(rows, Table41Row{
			Name:        apps[i].Name,
			ArrayMFLOPS: r.ArrayMFLOPS,
			CellMFLOPS:  r.CellMFLOPS,
			PaperMFLOPS: apps[i].PaperMFLOPS,
			Cycles:      r.Cycles,
		})
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
	Report      *softpipe.Report
}

// RunSuite measures the synthetic population under cfg.Options and as
// the locally compacted baseline; result order is the suite order.
func RunSuite(m *machine.Machine, cfg Config) ([]SuiteResult, error) {
	progs := workloads.Suite()
	var jobs []Job
	for _, sp := range progs {
		jobs = cfg.pair(jobs, "suite."+sp.Name, sp.Prog, m)
	}
	res, err := Measure(cfg, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]SuiteResult, len(progs))
	for i, sp := range progs {
		pipe, base := res[2*i], res[2*i+1]
		out[i] = SuiteResult{
			Name:        sp.Name,
			HasCond:     sp.HasCond,
			ArrayMFLOPS: pipe.ArrayMFLOPS,
			Speedup:     float64(base.Cycles) / float64(pipe.Cycles),
			Report:      pipe.Report,
		}
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
