// Benchmark harness: one benchmark per table and figure of Lam (PLDI
// 1988), plus ablations for the design choices DESIGN.md calls out.
// Benchmarks report reproduction metrics (MFLOPS, speedup, initiation
// intervals, code growth) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's evaluation (see EXPERIMENTS.md for the
// paper-vs-measured record).
package softpipe_test

import (
	"fmt"
	"testing"

	"softpipe"
	"softpipe/internal/bench"
	"softpipe/internal/codegen"
	"softpipe/internal/depgraph"
	"softpipe/internal/hier"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/partition"
	"softpipe/internal/pipeline"
	"softpipe/internal/sim"
	"softpipe/internal/workloads"
)

// --- Table 4-1: application kernels on the 10-cell array ---------------

func BenchmarkTable41(b *testing.B) {
	m := machine.Warp()
	for _, app := range workloads.Apps() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			var last bench.RunResult
			for i := 0; i < b.N; i++ {
				p, err := app.Build()
				if err != nil {
					b.Fatal(err)
				}
				r, err := bench.Run(p, m, bench.Config{})
				if err != nil {
					b.Fatal(err)
				}
				last = *r
			}
			b.ReportMetric(last.ArrayMFLOPS, "MFLOPS")
			b.ReportMetric(app.PaperMFLOPS, "paperMFLOPS")
			b.ReportMetric(float64(last.Cycles), "cellCycles")
		})
	}
}

// BenchmarkTable41Systolic measures the paper's real matmul setup: the
// product streamed through the full 10-cell array (Table 4-1's 79.4
// MFLOPS entry).
func BenchmarkTable41Systolic(b *testing.B) {
	m := machine.Warp()
	var row bench.Table41Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = bench.SystolicMatmulRow(m, 100, m.Cells)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.ArrayMFLOPS, "MFLOPS")
	b.ReportMetric(row.PaperMFLOPS, "paperMFLOPS")
	b.ReportMetric(float64(row.Cycles), "arrayCycles")
}

// --- Table 4-2: Livermore loops on one cell ----------------------------

func BenchmarkTable42(b *testing.B) {
	m := machine.Warp()
	for _, k := range workloads.Livermore() {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			var mflops, eff, speedup float64
			for i := 0; i < b.N; i++ {
				p, err := k.Build()
				if err != nil {
					b.Fatal(err)
				}
				pipe, err := bench.Run(p, m, bench.Config{})
				if err != nil {
					b.Fatal(err)
				}
				p2, _ := k.Build()
				base, err := bench.Run(p2, m, bench.Config{Options: softpipe.Options{Baseline: true}})
				if err != nil {
					b.Fatal(err)
				}
				mflops = pipe.CellMFLOPS
				eff = bench.WeightedEfficiency(pipe.Report)
				speedup = float64(base.Cycles) / float64(pipe.Cycles)
			}
			b.ReportMetric(mflops, "MFLOPS")
			b.ReportMetric(eff, "efficiencyLB")
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// --- Figures 4-1 and 4-2: the 72-program population --------------------

func BenchmarkFig41_MFLOPS(b *testing.B) {
	m := machine.Warp()
	var meanMF float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunSuite(m, bench.Config{})
		if err != nil {
			b.Fatal(err)
		}
		s := 0.0
		for _, r := range res {
			s += r.ArrayMFLOPS
		}
		meanMF = s / float64(len(res))
	}
	b.ReportMetric(meanMF, "meanMFLOPS")
}

func BenchmarkFig42_Speedup(b *testing.B) {
	m := machine.Warp()
	var mean, condMean, noCondMean, metPct float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunSuite(m, bench.Config{})
		if err != nil {
			b.Fatal(err)
		}
		var s, sc, sn float64
		var nc, nn int
		for _, r := range res {
			s += r.Speedup
			if r.HasCond {
				sc += r.Speedup
				nc++
			} else {
				sn += r.Speedup
				nn++
			}
		}
		mean = s / float64(len(res))
		condMean = sc / float64(nc)
		noCondMean = sn / float64(nn)
		st := bench.Stats(res)
		metPct = 100 * float64(st.MetBound) / float64(st.Loops)
	}
	b.ReportMetric(mean, "meanSpeedup")
	b.ReportMetric(condMean, "condSpeedup")
	b.ReportMetric(noCondMean, "nocondSpeedup")
	b.ReportMetric(metPct, "pctMetBound")
}

// --- Ablation: modulo variable expansion on/off (§2.3) ------------------

func benchMVE(b *testing.B, disable bool) {
	m := machine.Warp()
	var mflops float64
	for i := 0; i < b.N; i++ {
		var k *workloads.Kernel
		for _, kk := range workloads.Livermore() {
			if kk.ID == 1 {
				k = kk
			}
		}
		p, err := k.Build()
		if err != nil {
			b.Fatal(err)
		}
		prog, _, err := codegen.Compile(p, m, codegen.Options{
			DisableMVE: disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		_, st, err := sim.Run(prog, m)
		if err != nil {
			b.Fatal(err)
		}
		mflops = st.MFLOPS(m, 1)
	}
	b.ReportMetric(mflops, "k1MFLOPS")
}

func BenchmarkAblationMVE_On(b *testing.B)  { benchMVE(b, false) }
func BenchmarkAblationMVE_Off(b *testing.B) { benchMVE(b, true) }

// --- Ablation: MVE unroll policy (min-unroll vs lcm, §2.3) --------------

func benchPolicy(b *testing.B, pol pipeline.Policy) {
	m := machine.Warp()
	var instrs, fregs float64
	for i := 0; i < b.N; i++ {
		instrs, fregs = 0, 0
		for _, k := range workloads.Livermore() {
			p, err := k.Build()
			if err != nil {
				b.Fatal(err)
			}
			prog, rep, err := codegen.Compile(p, m, codegen.Options{
				Policy: pol,
			})
			if err != nil {
				b.Fatal(err)
			}
			instrs += float64(len(prog.Instrs))
			fregs += float64(rep.FRegsUsed)
		}
	}
	b.ReportMetric(instrs, "totalInstrs")
	b.ReportMetric(fregs, "totalFRegs")
}

func BenchmarkAblationPolicy_MinUnroll(b *testing.B) { benchPolicy(b, pipeline.PolicyMinUnroll) }
func BenchmarkAblationPolicy_LCM(b *testing.B)       { benchPolicy(b, pipeline.PolicyLCM) }

// --- Ablation: hierarchical reduction on/off (§3) -----------------------

func benchHier(b *testing.B, opts codegen.Options) {
	m := machine.Warp()
	var cycles float64
	for i := 0; i < b.N; i++ {
		cycles = 0
		for _, sp := range workloads.Suite()[:workloads.SuiteCondSize] {
			prog, _, err := codegen.Compile(sp.Prog, m, opts)
			if err != nil {
				b.Fatal(err)
			}
			_, st, err := sim.Run(prog, m)
			if err != nil {
				b.Fatal(err)
			}
			cycles += float64(st.Cycles)
		}
	}
	b.ReportMetric(cycles, "condSuiteCycles")
}

func BenchmarkAblationHier_On(b *testing.B)  { benchHier(b, codegen.Options{}) }
func BenchmarkAblationHier_Off(b *testing.B) { benchHier(b, codegen.Options{DisableHier: true}) }

// Reduction as Lam §3.1 has it, every arm whole: what lifting arm-private
// operations out of the arms adds to Hier_On.
func BenchmarkAblationHier_WholeArms(b *testing.B) { benchHier(b, codegen.Options{WholeArms: true}) }

// --- Ablation: loop reduction on/off (§3.2) ------------------------------

func benchLoopReduction(b *testing.B, disable bool) {
	m := machine.Warp()
	var cycles float64
	for i := 0; i < b.N; i++ {
		cycles = 0
		for _, kid := range []int{18, 21} {
			var k *workloads.Kernel
			for _, kk := range workloads.Livermore() {
				if kk.ID == kid {
					k = kk
				}
			}
			p, err := k.Build()
			if err != nil {
				b.Fatal(err)
			}
			prog, _, err := codegen.Compile(p, m, codegen.Options{DisableLoopReduction: disable})
			if err != nil {
				b.Fatal(err)
			}
			_, st, err := sim.Run(prog, m)
			if err != nil {
				b.Fatal(err)
			}
			cycles += float64(st.Cycles)
		}
	}
	b.ReportMetric(cycles, "nestCycles")
}

func BenchmarkAblationLoopReduction_On(b *testing.B)  { benchLoopReduction(b, false) }
func BenchmarkAblationLoopReduction_Off(b *testing.B) { benchLoopReduction(b, true) }

// --- Ablation: inner-loop full unrolling (outer-loop pipelining) ---------
//
// A 4-tap FIR filter: the inner accumulation is a 7-cycle recurrence, so
// loop reduction can at best run the inner loop at II = 7 and pay its
// prolog/epilog once per output sample.  Unrolling the 4 taps makes the
// outer loop innermost; the accumulator re-initializes every iteration,
// and the loop pipelines at its resource bound instead.
const firSrc = `
program fir;
const n = 256;
var a: array [0..259] of real;
    w: array [0..3] of real;
    c: array [0..255] of real;
    s: real;
    i, j: int;
begin
  for i := 0 to n-1 do begin
    s := 0.0;
    for j := 0 to 3 do
      s := s + a[i+j]*w[j];
    c[i] := s;
  end;
end.
`

func benchUnrollInner(b *testing.B, trip int) {
	var cycles float64
	for i := 0; i < b.N; i++ {
		p, err := softpipe.ParseSource(firSrc)
		if err != nil {
			b.Fatal(err)
		}
		obj, err := softpipe.CompileWith(p, softpipe.Warp(), softpipe.Options{}, func(o *codegen.Options) { o.UnrollInnerTrip = trip })
		if err != nil {
			b.Fatal(err)
		}
		res, err := obj.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles = float64(res.Cycles)
	}
	b.ReportMetric(cycles, "firCycles")
}

func BenchmarkAblationUnrollInner_On(b *testing.B)  { benchUnrollInner(b, 4) }
func BenchmarkAblationUnrollInner_Off(b *testing.B) { benchUnrollInner(b, 0) }

// --- Scaling: wider data paths (Lam §6) ---------------------------------

func BenchmarkScalingWide(b *testing.B) {
	for _, factor := range []int{1, 2, 4} {
		factor := factor
		b.Run(fmt.Sprintf("parallel-loop-wide%d", factor), func(b *testing.B) {
			m := machine.Wide(factor)
			var mflops float64
			for i := 0; i < b.N; i++ {
				var k *workloads.Kernel
				for _, kk := range workloads.Livermore() {
					if kk.ID == 7 {
						k = kk
					}
				}
				p, err := k.Build()
				if err != nil {
					b.Fatal(err)
				}
				r, err := bench.Run(p, m, bench.Config{})
				if err != nil {
					b.Fatal(err)
				}
				mflops = r.CellMFLOPS
			}
			b.ReportMetric(mflops, "MFLOPS")
		})
		b.Run(fmt.Sprintf("recurrence-loop-wide%d", factor), func(b *testing.B) {
			m := machine.Wide(factor)
			var mflops float64
			for i := 0; i < b.N; i++ {
				var k *workloads.Kernel
				for _, kk := range workloads.Livermore() {
					if kk.ID == 5 {
						k = kk
					}
				}
				p, err := k.Build()
				if err != nil {
					b.Fatal(err)
				}
				r, err := bench.Run(p, m, bench.Config{})
				if err != nil {
					b.Fatal(err)
				}
				mflops = r.CellMFLOPS
			}
			b.ReportMetric(mflops, "MFLOPS")
		})
	}
}

// --- Compile-time benchmarks --------------------------------------------

func BenchmarkCompileLivermore(b *testing.B) {
	m := machine.Warp()
	kernels := workloads.Livermore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			p, err := k.Build()
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := codegen.Compile(p, m, codegen.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// livermoreProgram builds Livermore kernel id.
func livermoreProgram(b *testing.B, id int) *ir.Program {
	b.Helper()
	for _, k := range workloads.Livermore() {
		if k.ID == id {
			p, err := k.Build()
			if err != nil {
				b.Fatal(err)
			}
			return p
		}
	}
	b.Fatalf("no Livermore kernel %d", id)
	return nil
}

// BenchmarkPartitionPlan prices the array planner alone (no per-cell
// compile): k7, the widest split search of the corpus, and k1 on four
// cells, and a seeded chain program on two.  The metrics are the size of
// the search, which should only ever fall.
func BenchmarkPartitionPlan(b *testing.B) {
	warp := machine.Warp()
	for _, c := range []struct {
		name  string
		prog  *ir.Program
		cells int
	}{
		{"k7@4", livermoreProgram(b, 7), 4},
		{"k1@4", livermoreProgram(b, 1), 4},
		{"chain", workloads.RandomChainProgram(0), 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			var st partition.PlanStats
			for i := 0; i < b.N; i++ {
				plan, err := partition.Partition(c.prog, softpipe.Machines(warp, c.cells))
				if err != nil {
					b.Fatal(err)
				}
				st = plan.Stats
			}
			b.ReportMetric(float64(st.Clusters), "clusters")
			b.ReportMetric(float64(st.CostEvals), "costEvals")
			b.ReportMetric(float64(st.CostSkipped), "costSkipped")
		})
	}
}

// BenchmarkAnalyzeRecurrence prices depgraph.Analyze — components and
// bounds — on the recurrence-heaviest loop of the corpus, k22's
// (90 nodes, 926 edges once the expandable registers are filtered).
func BenchmarkAnalyzeRecurrence(b *testing.B) {
	b.Run("k22", func(b *testing.B) {
		m := machine.Warp()
		p := livermoreProgram(b, 22)
		var loop *ir.LoopStmt
		for _, s := range p.Body.Stmts {
			if l, ok := s.(*ir.LoopStmt); ok {
				loop = l
			}
		}
		nodes, err := hier.BuildNodes(p, m, loop.ID, loop.Body)
		if err != nil {
			b.Fatal(err)
		}
		full := depgraph.BuildIndep(nodes, loop.ID, loop.Independent)
		g := full.Filter(full.Expandable)
		b.ResetTimer()
		var mii int
		for i := 0; i < b.N; i++ {
			a, err := depgraph.Analyze(g, m)
			if err != nil {
				b.Fatal(err)
			}
			mii = a.MII
		}
		b.ReportMetric(float64(mii), "MII")
	})
}

func BenchmarkReduceConditional(b *testing.B) {
	bld := softpipe.NewBuilder("hier")
	bld.Array("a", ir.KindFloat, 64)
	zero := bld.FConst(0)
	bld.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := bld.Load("a", p, ir.Aff(l.ID, 1, 0))
		c := bld.FCmp(ir.PredGT, v, zero)
		bld.If(c, func() {
			bld.Store("a", p, bld.FMul(v, v), ir.Aff(l.ID, 1, 0))
		}, func() {
			bld.Store("a", p, zero, ir.Aff(l.ID, 1, 0))
		})
	})
	var loop *ir.LoopStmt
	for _, s := range bld.P.Body.Stmts {
		if l, ok := s.(*ir.LoopStmt); ok {
			loop = l
		}
	}
	m := machine.Warp()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hier.BuildNodes(bld.P, m, loop.ID, loop.Body); err != nil {
			b.Fatal(err)
		}
	}
}
