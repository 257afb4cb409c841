// Command livermore regenerates Lam's Table 4-2: the Livermore loops on
// a single Warp-like cell, reporting MFLOPS, the efficiency lower bound
// (MII / achieved II), and the speedup of software pipelining over
// locally compacted code.
//
// Usage:
//
//	livermore [-machine warp|scalar|wideN|gen:...] [-verify] [-parallel N]
//	          [-engine interp|compiled] [-explain] [-trace out.json]
//	          [-cpuprofile f] [-memprofile f]
//
// -parallel sizes the compile/simulate worker pool (0 = GOMAXPROCS,
// 1 = sequential); the table is identical either way.  -engine selects
// the simulator implementation — "compiled" lets steady-state kernel
// loops run on the dataflow fast path (identical table, faster wall
// clock).  -explain appends
// the per-loop II-search explain report under the table; -trace writes
// a Chrome trace_event JSON of all compile/simulate phases (one trace
// sink per worker, merged at the end).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"softpipe"
	"softpipe/internal/bench"
	"softpipe/internal/machine"
	"softpipe/internal/schedule"
	"softpipe/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("livermore: ")
	machineName := flag.String("machine", "warp", "target machine: warp, scalar, wideN (e.g. wide4), or gen:... (e.g. gen:fa2,fm2,mem2,rot)")
	cells := flag.Int("cells", 0, "auto-partition each kernel across an N-cell array and print the speedup table instead of Table 4-2")
	verify := flag.Bool("verify", true, "run the independent object-code verifier on every emitted binary and differentially verify every run against the interpreter")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	explain := flag.Bool("explain", false, "print the II-search explain report for every loop of every kernel")
	engineFlag := flag.String("engine", "interp", "simulator engine: interp or compiled")
	effortFlag := flag.String("effort", "heuristic", "II search effort: heuristic or exact")
	effortBudget := flag.Duration("effort-budget", 0, "with -effort=exact: per-kernel exact search budget (0 = default)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the compile/simulate phases to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	eng, err := softpipe.ParseEngine(*engineFlag)
	if err != nil {
		log.Fatal(err)
	}
	effort, err := schedule.ParseEffort(*effortFlag)
	if err != nil {
		log.Fatal(err)
	}
	m, err := machine.Parse(*machineName)
	if err != nil {
		log.Fatal(err)
	}
	if *cells > 0 {
		if *cells < 2 {
			log.Fatal("-cells needs at least 2 cells (1 is the Table 4-2 baseline)")
		}
		rep, err := bench.MeasureArray(m, bench.ArrayOpts{
			Widths:  []int{*cells},
			Workers: *parallel,
			Verify:  *verify,
			Engine:  eng,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Livermore loops partitioned across %d cells\n", *cells)
		fmt.Print(bench.FormatArrayReport(rep))
		return
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New("livermore")
	}
	rows, err := bench.Table42With(m, bench.Table42Opts{
		Verify:  *verify,
		Workers: *parallel,
		Explain: *explain,
		Tracer:  tracer,
		Engine:  eng,

		Effort:       effort,
		EffortBudget: *effortBudget,
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
		fmt.Fprintf(os.Stderr, "livermore: wrote trace to %s\n", *traceOut)
	}
	fmt.Println("Table 4-2: Livermore loops on one cell (reproduction)")
	fmt.Printf("machine: %s\n\n", m)
	var out [][]string
	for _, r := range rows {
		pipe := "yes"
		if !r.Pipelined {
			pipe = "NO"
		}
		out = append(out, []string{
			fmt.Sprintf("%d", r.KernelID),
			r.Name,
			fmt.Sprintf("%.2f", r.MFLOPS),
			fmt.Sprintf("%.2f", r.Efficiency),
			fmt.Sprintf("%.2f", r.Speedup),
			pipe,
			r.Note,
		})
	}
	fmt.Print(bench.FormatTable(
		[]string{"Kernel", "Name", "MFLOPS", "Eff(LB)", "Speedup", "Pipelined", "Character"},
		out))
	if *explain {
		fmt.Println("\nII-search explain reports (-explain)")
		for _, r := range rows {
			for _, lr := range r.Report.Loops {
				if lr.Explain == nil {
					continue
				}
				fmt.Printf("kernel %d (%s), loop %d (trip %d):\n", r.KernelID, r.Name, lr.LoopID, lr.TripCount)
				fmt.Print(lr.Explain.Format())
			}
		}
	}
	fmt.Println("\nPaper anchors: recurrences (3,5,11) pinned at their dependence cycles;")
	fmt.Println("parallel kernels (1,7,9,12) near the resource bound; kernel 22 (EXP) not")
	fmt.Println("pipelined; efficiency column is the MII/achieved-II lower bound of §4.2.")
}
