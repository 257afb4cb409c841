// Command warpbench regenerates the remaining evaluation artifacts of
// Lam (PLDI 1988): Table 4-1 (application MFLOPS on the 10-cell array),
// Figure 4-1 (MFLOPS distribution over the program population), Figure
// 4-2 (speedup of software pipelining over locally compacted code), and
// the §4.1 population statistics.
//
// Usage:
//
//	warpbench [-table41] [-fig41] [-fig42] [-stats] [-verify]
//	          [-machine warp|scalar|wideN|gen:...] [-parallel N]
//	          [-engine interp|compiled]
//	          [-effort heuristic|exact] [-effort-budget d]
//	          [-cpuprofile f] [-memprofile f] [-benchjson f]
//	          [-gap] [-gapset full|smoke] [-gapout f]
//	          [-sweep] [-sweepset full|smoke] [-machines "a;b;..."] [-sweepout f]
//	          [-array] [-cells "2,4"] [-arrayout f]
//
// With no selection flags, everything runs.  -parallel sizes the
// compile/simulate worker pool (0 = GOMAXPROCS, 1 = sequential).
// -engine selects the simulator implementation for the table/figure
// runs (identical artifacts, different wall clock).  -effort selects
// the II-search backend for the table/figure compiles.  -benchjson
// instead times the harness itself — suite wall-clock sequential vs.
// parallel, both engines' simulator cycles/sec, batch throughput, and
// allocs per cycle — and writes the baseline JSON (see EXPERIMENTS.md
// for the schema).  -gap instead compiles the gap corpus (saxpy +
// Livermore + the checked-in fuzz seeds) under both scheduler backends,
// prints the per-loop heuristic-vs-optimal II table, and exits nonzero
// if the exact backend is ever worse than the heuristic; -gapout also
// writes the BENCH_gap.json artifact.  -sweep instead compiles the sweep
// corpus (saxpy + the Livermore kernels) on every machine of the default
// generator grid (or -machines), verified, and prints the per-machine
// pipelining table comparing rotating register files against modulo
// variable expansion; -sweepout also writes the BENCH_sweep.json
// artifact (see EXPERIMENTS.md for the schema).  -array instead
// auto-partitions the corpus (saxpy + the Livermore kernels) across the
// cell array at each -cells width, proves every partition equivalent to
// its single-cell reference, and prints the per-width speedup table;
// -arrayout also writes the BENCH_array.json artifact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"softpipe"
	"softpipe/internal/bench"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/schedule"
	"softpipe/internal/sim"
	"softpipe/internal/trace"
	"softpipe/internal/vliw"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("warpbench: ")
	t41 := flag.Bool("table41", false, "Table 4-1: application kernels")
	f41 := flag.Bool("fig41", false, "Figure 4-1: MFLOPS histogram")
	f42 := flag.Bool("fig42", false, "Figure 4-2: speedup histogram")
	stats := flag.Bool("stats", false, "§4.1 population statistics")
	verify := flag.Bool("verify", false, "run the independent object-code verifier on every emitted binary and differentially verify every run")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	engineFlag := flag.String("engine", "interp", "simulator engine for table/figure runs: interp or compiled")
	effortFlag := flag.String("effort", "heuristic", "II search effort for table/figure compiles: heuristic or exact")
	effortBudget := flag.Duration("effort-budget", 0, "with -effort=exact or -gap: per-compile exact search budget (0 = default)")
	gap := flag.Bool("gap", false, "measure the heuristic-vs-optimal II gap over the corpus and print the per-loop table")
	gapSet := flag.String("gapset", "full", "with -gap: corpus to measure, full or smoke")
	gapOut := flag.String("gapout", "", "with -gap: also write the BENCH_gap.json artifact to this file")
	machineName := flag.String("machine", "warp", "target machine for the table/figure runs: warp, scalar, wideN (e.g. wide4), or gen:... (e.g. gen:fa2,fm2,mem2,rot)")
	array := flag.Bool("array", false, "auto-partition the corpus across the cell array and print the per-width speedup table")
	arrayCells := flag.String("cells", "2,4", "with -array: comma-separated array widths to measure")
	arrayOut := flag.String("arrayout", "", "with -array: also write the BENCH_array.json artifact to this file")
	sweep := flag.Bool("sweep", false, "compile the sweep corpus across a machine grid and print the per-machine table")
	sweepSet := flag.String("sweepset", "full", "with -sweep: corpus to sweep, full or smoke")
	sweepOut := flag.String("sweepout", "", "with -sweep: also write the BENCH_sweep.json artifact to this file")
	sweepMachines := flag.String("machines", "", "with -sweep: semicolon-separated machine names overriding the default grid (gen: names contain commas)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	benchjson := flag.String("benchjson", "", "benchmark the harness itself and write the baseline JSON to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the suite's compile/simulate phases to this file")
	flag.Parse()
	all := !*t41 && !*f41 && !*f42 && !*stats

	eng, err := softpipe.ParseEngine(*engineFlag)
	if err != nil {
		log.Fatal(err)
	}
	effort, err := schedule.ParseEffort(*effortFlag)
	if err != nil {
		log.Fatal(err)
	}
	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	defer stopProfiles()

	m, err := machine.Parse(*machineName)
	if err != nil {
		log.Fatal(err)
	}

	if *benchjson != "" {
		if err := writeBenchJSON(m, *benchjson); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *array {
		var widths []int
		for _, f := range strings.Split(*arrayCells, ",") {
			if f = strings.TrimSpace(f); f == "" {
				continue
			}
			n, err := strconv.Atoi(f)
			if err != nil {
				log.Fatalf("-cells: bad width %q: %v", f, err)
			}
			widths = append(widths, n)
		}
		rep, err := bench.MeasureArray(m, bench.ArrayOpts{
			Widths:  widths,
			Workers: *parallel,
			Verify:  true,
			Engine:  eng,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatArrayReport(rep))
		if *arrayOut != "" {
			out, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			out = append(out, '\n')
			if err := os.WriteFile(*arrayOut, out, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "warpbench: wrote %s\n", *arrayOut)
		}
		return
	}

	if *sweep {
		var grid []string
		if *sweepMachines != "" {
			for _, n := range strings.Split(*sweepMachines, ";") {
				if n = strings.TrimSpace(n); n != "" {
					grid = append(grid, n)
				}
			}
		}
		rep, err := bench.MeasureSweep(bench.SweepOpts{
			Machines:     grid,
			Set:          *sweepSet,
			Workers:      *parallel,
			Verify:       true,
			Effort:       effort,
			EffortBudget: *effortBudget,
			Engine:       eng,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatSweepReport(rep))
		if *sweepOut != "" {
			out, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			out = append(out, '\n')
			if err := os.WriteFile(*sweepOut, out, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "warpbench: wrote %s\n", *sweepOut)
		}
		return
	}

	if *gap {
		rep, err := bench.MeasureGap(m, bench.GapOpts{
			Set:     *gapSet,
			Budget:  *effortBudget,
			Workers: *parallel,
			Verify:  true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatGapReport(rep))
		if *gapOut != "" {
			out, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			out = append(out, '\n')
			if err := os.WriteFile(*gapOut, out, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "warpbench: wrote %s\n", *gapOut)
		}
		return
	}

	if all || *t41 {
		rows, err := bench.Table41With(m, bench.SuiteOpts{
			Verify: *verify, Workers: *parallel, Engine: eng,
			Effort: effort, EffortBudget: *effortBudget,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Table 4-1: application kernels on the 10-cell array (reproduction)")
		var out [][]string
		sort.Slice(rows, func(i, j int) bool { return rows[i].ArrayMFLOPS > rows[j].ArrayMFLOPS })
		for _, r := range rows {
			out = append(out, []string{
				r.Name,
				fmt.Sprintf("%.1f", r.ArrayMFLOPS),
				fmt.Sprintf("%.1f", r.PaperMFLOPS),
				fmt.Sprintf("%d", r.Cycles),
			})
		}
		fmt.Print(bench.FormatTable(
			[]string{"Task", "MFLOPS (ours)", "MFLOPS (paper)", "cell cycles"}, out))
		fmt.Println()
	}

	var suite []bench.SuiteResult
	needSuite := all || *f41 || *f42 || *stats
	if needSuite {
		var tracer *trace.Tracer
		if *traceOut != "" {
			tracer = trace.New("warpbench-suite")
		}
		var err error
		suite, err = bench.RunSuiteWith(m, bench.SuiteOpts{
			Verify: *verify, Workers: *parallel, Tracer: tracer, Engine: eng,
			Effort: effort, EffortBudget: *effortBudget,
		})
		if err != nil {
			log.Fatal(err)
		}
		if tracer != nil {
			f, err := os.Create(*traceOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := tracer.WriteJSON(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "warpbench: wrote trace to %s\n", *traceOut)
		}
	}

	if all || *f41 {
		var mflops []float64
		for _, r := range suite {
			mflops = append(mflops, r.ArrayMFLOPS)
		}
		fmt.Println("Figure 4-1: MFLOPS over the 72-program population (array rates)")
		printHistogram(mflops, 10, 100, "MFLOPS")
		fmt.Println()
	}

	if all || *f42 {
		var speedups, cond, nocond []float64
		for _, r := range suite {
			speedups = append(speedups, r.Speedup)
			if r.HasCond {
				cond = append(cond, r.Speedup)
			} else {
				nocond = append(nocond, r.Speedup)
			}
		}
		fmt.Println("Figure 4-2: speedup over locally compacted code")
		printHistogram(speedups, 0.5, 8, "speedup")
		fmt.Printf("mean %.2f (paper: ~3); with conditionals %.2f, without %.2f\n",
			mean(speedups), mean(cond), mean(nocond))
		fmt.Println()
	}

	if all || *stats {
		st := bench.Stats(suite)
		fmt.Println("Population statistics (§4.1)")
		fmt.Printf("  loops: %d, pipelined: %d\n", st.Loops, st.Pipelined)
		fmt.Printf("  scheduled at the MII lower bound: %d (%.0f%%; paper: 75%%)\n",
			st.MetBound, pct(st.MetBound, st.Loops))
		fmt.Printf("  conditional/recurrence-free loops pipelined perfectly: %d/%d (%.0f%%; paper: 93%%)\n",
			st.SimpleMet, st.SimpleLoops, pct(st.SimpleMet, st.SimpleLoops))
		if st.AvgEffOfMissed > 0 {
			fmt.Printf("  average efficiency of loops missing the bound: %.0f%% (paper: 75%%)\n",
				100*st.AvgEffOfMissed)
		}
	}
}

// startProfiles begins CPU profiling (if requested) and returns a stop
// function that finishes the CPU profile and snapshots the heap.
func startProfiles(cpu, mem string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// HarnessBaseline is the BENCH_harness.json schema: how fast the
// reproduction harness itself runs on this machine.  Future PRs compare
// against it to keep the tooling's throughput from regressing.
type HarnessBaseline struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`

	// Whole-suite wall-clock (72 programs × {pipelined, unpipelined},
	// compile + simulate), sequential (workers=1) vs. the worker pool
	// (workers=GOMAXPROCS).  ParallelMeasured is false on a single-CPU
	// host, where the pool cannot actually run anything concurrently;
	// the speedup is then omitted rather than reported as a meaningless
	// ~1.0 (the parallel pass still runs, as a determinism check).
	SuitePrograms     int      `json:"suite_programs"`
	SuiteSequentialMS float64  `json:"suite_sequential_ms"`
	SuiteParallelMS   float64  `json:"suite_parallel_ms"`
	ParallelMeasured  bool     `json:"parallel_measured"`
	SuiteSpeedup      *float64 `json:"suite_parallel_speedup,omitempty"`
	SuiteMeanMFLOPS   float64  `json:"suite_mean_array_mflops"`

	// Simulator steady-state hot loop on a synthetic pipelined kernel:
	// the interpreter engine, then the compiled engine on the same
	// kernel (whole run, build amortized), and their ratio.
	SimNsPerCycle         float64 `json:"sim_ns_per_cycle"`
	SimCyclesPerSec       float64 `json:"sim_cycles_per_sec"`
	SimAllocsPerCycle     float64 `json:"sim_allocs_per_cycle"`
	SimCompiledNsPerCycle float64 `json:"sim_compiled_ns_per_cycle"`
	SimCompiledCyclesSec  float64 `json:"sim_compiled_cycles_per_sec"`
	SimEngineSpeedup      float64 `json:"sim_engine_speedup"`

	// BatchRunsPerSec is the compiled engine's batch throughput: 16
	// independent 10k-iteration lanes per compiled artifact, lanes
	// completed per second.
	BatchRunsPerSec float64 `json:"batch_runs_per_sec"`

	// PhaseMS is the per-phase wall-clock of one traced sequential suite
	// pass (milliseconds summed over all programs), keyed by span name
	// (lang.compile, depgraph.analyze, schedule.search, codegen.emit,
	// sim.run, ...).
	PhaseMS map[string]float64 `json:"phase_ms"`
}

func writeBenchJSON(m *machine.Machine, path string) error {
	b := HarnessBaseline{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	timeSuite := func(workers int) (float64, []bench.SuiteResult, error) {
		bestMS := 0.0
		var res []bench.SuiteResult
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			r, err := bench.RunSuite(m, false, workers)
			if err != nil {
				return 0, nil, err
			}
			ms := float64(time.Since(start)) / float64(time.Millisecond)
			if rep == 0 || ms < bestMS {
				bestMS = ms
			}
			res = r
		}
		return bestMS, res, nil
	}
	seqMS, res, err := timeSuite(1)
	if err != nil {
		return err
	}
	parMS, res2, err := timeSuite(0)
	if err != nil {
		return err
	}
	s := 0.0
	for i, r := range res {
		if res2[i].ArrayMFLOPS != r.ArrayMFLOPS {
			return fmt.Errorf("benchjson: parallel run diverges from sequential on %s", r.Name)
		}
		s += r.ArrayMFLOPS
	}
	b.SuitePrograms = len(res)
	b.SuiteSequentialMS = seqMS
	b.SuiteParallelMS = parMS
	b.ParallelMeasured = b.NumCPU > 1 && b.GOMAXPROCS > 1
	if b.ParallelMeasured {
		speedup := seqMS / parMS
		b.SuiteSpeedup = &speedup
	}
	b.SuiteMeanMFLOPS = s / float64(len(res))

	nsPerCycle, allocs, err := measureSim(m)
	if err != nil {
		return err
	}
	b.SimNsPerCycle = nsPerCycle
	b.SimCyclesPerSec = 1e9 / nsPerCycle
	b.SimAllocsPerCycle = allocs

	compiledNs, err := measureCompiledSim(m)
	if err != nil {
		return err
	}
	b.SimCompiledNsPerCycle = compiledNs
	b.SimCompiledCyclesSec = 1e9 / compiledNs
	b.SimEngineSpeedup = nsPerCycle / compiledNs

	batchRPS, err := measureBatch(m)
	if err != nil {
		return err
	}
	b.BatchRunsPerSec = batchRPS

	// One traced sequential pass prices the phases themselves.
	tracer := trace.New("warpbench-benchjson")
	if _, err := bench.RunSuiteTraced(m, false, 1, tracer); err != nil {
		return err
	}
	b.PhaseMS = tracer.PhaseTotals()

	out, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	if b.ParallelMeasured {
		fmt.Printf("suite: %.1f ms sequential, %.1f ms parallel (%.2fx, %d workers)\n",
			seqMS, parMS, seqMS/parMS, runtime.GOMAXPROCS(0))
	} else {
		fmt.Printf("suite: %.1f ms sequential (single CPU: parallel speedup not measurable)\n", seqMS)
	}
	fmt.Printf("sim:   %.1f ns/cycle (%.1f Mcycles/s), %.3f allocs/cycle steady state\n",
		nsPerCycle, 1e3/nsPerCycle, allocs)
	fmt.Printf("sim:   %.1f ns/cycle compiled engine (%.2fx), batch %.0f runs/s\n",
		compiledNs, nsPerCycle/compiledNs, batchRPS)
	fmt.Printf("wrote %s\n", path)
	return nil
}

// measureSim prices the simulator's steady-state loop on the same
// pipelined-kernel shape as the in-package benchmarks: ns per cycle via
// testing.Benchmark and allocations per cycle via testing.AllocsPerRun,
// both after a warm-up so ring slots and the store buffer have settled.
func measureSim(m *machine.Machine) (nsPerCycle, allocsPerCycle float64, err error) {
	const warm = 64
	r := testing.Benchmark(func(bb *testing.B) {
		s := sim.New(simKernel(int64(bb.N)+4*warm), m)
		for i := 0; i < warm; i++ {
			if _, serr := s.Step(); serr != nil {
				err = serr
				bb.FailNow()
			}
		}
		bb.ResetTimer()
		for i := 0; i < bb.N; i++ {
			if _, serr := s.Step(); serr != nil {
				err = serr
				bb.FailNow()
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	s := sim.New(simKernel(5_000_000), m)
	for i := 0; i < warm; i++ {
		if _, serr := s.Step(); serr != nil {
			return 0, 0, serr
		}
	}
	allocs := testing.AllocsPerRun(10_000, func() {
		if _, serr := s.Step(); serr != nil {
			err = serr
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return float64(r.NsPerOp()), allocs, nil
}

// measureCompiledSim prices the compiled engine on the same kernel
// shape, whole-run: one decode (with fast-path blocks) plus one Run of
// ~bb.N cycles, so the build cost is amortized exactly as a real caller
// would see it.
func measureCompiledSim(m *machine.Machine) (nsPerCycle float64, err error) {
	r := testing.Benchmark(func(bb *testing.B) {
		p := simKernel(int64(bb.N) + 64)
		bb.ResetTimer()
		if _, _, rerr := sim.RunEngine(p, m, true); rerr != nil {
			err = rerr
			bb.FailNow()
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(r.NsPerOp()), nil
}

// measureBatch prices batch throughput: 16 independent 10k-iteration
// lanes over one compiled artifact, reported as lanes per second.
func measureBatch(m *machine.Machine) (runsPerSec float64, err error) {
	const lanes = 16
	cp, err := sim.Decode(simKernel(10_000), m, true)
	if err != nil {
		return 0, err
	}
	r := testing.Benchmark(func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			batch := sim.NewBatch(cp, make([]sim.Lane, lanes))
			if _, berr := batch.Run(context.Background()); berr != nil {
				err = berr
				bb.FailNow()
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return lanes * 1e9 / float64(r.NsPerOp()), nil
}

// simKernel builds the synthetic pipelined-kernel-shaped object program
// used to price the simulator: a counted loop whose single wide
// instruction loads, multiplies, accumulates and stores every cycle.
func simKernel(iters int64) *vliw.Program {
	const n = 64
	initF := make([]float64, n)
	for i := range initF {
		initF[i] = float64(i%7) * 0.25
	}
	instrs := []vliw.Instr{
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 0, IImm: iters}}}, // count
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 1, IImm: 0}}},     // ptr
		{Ops: []vliw.SlotOp{{Class: machine.ClassIConst, Dst: 2, IImm: 1}}},     // stride
		{Ops: []vliw.SlotOp{{Class: machine.ClassFConst, Dst: 0, FImm: 0}}},     // acc
		{}, {}, {}, {}, {},
		{
			Ops: []vliw.SlotOp{
				{Class: machine.ClassLoad, Dst: 1, Src: []int{1}, Array: "a"},
				{Class: machine.ClassFMul, Dst: 2, Src: []int{1, 1}},
				{Class: machine.ClassFAdd, Dst: 0, Src: []int{0, 2}},
				{Class: machine.ClassStore, Src: []int{1, 2}, Array: "a"},
				{Class: machine.ClassIAdd, Dst: 4, Src: []int{1, 2}},
				{Class: machine.ClassIAnd, Dst: 1, Src: []int{4}, IImm: 63},
			},
			Ctl: vliw.Ctl{Kind: vliw.CtlDBNZ, Reg: 0, Target: 9},
		},
		{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}},
	}
	return &vliw.Program{
		Name:     "simbench",
		Instrs:   instrs,
		NumFRegs: 8,
		NumIRegs: 8,
		MemWords: n,
		Arrays:   []vliw.ArrayInfo{{Name: "a", Kind: ir.KindFloat, Base: 0, Size: n}},
		InitF:    map[string][]float64{"a": initF},
		InitI:    map[string][]int64{},
	}
}

func printHistogram(values []float64, width, max float64, label string) {
	h := bench.Histogram(values, width, max)
	peak := 1
	for _, c := range h {
		if c > peak {
			peak = c
		}
	}
	for b, c := range h {
		if c == 0 {
			continue
		}
		bar := strings.Repeat("#", c*40/peak)
		fmt.Printf("  %6.1f-%6.1f %s: %3d %s\n", float64(b)*width, float64(b+1)*width, label, c, bar)
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
