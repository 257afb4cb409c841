// Command livermore regenerates Lam's Table 4-2: the Livermore loops on
// a single Warp-like cell, reporting MFLOPS, the efficiency lower bound
// (MII / achieved II), and the speedup of software pipelining over
// locally compacted code.
//
// Usage:
//
//	livermore [-machine warp|scalar|wideN|gen:...] [-verify] [-parallel N]
//	          [-explain] [-trace out.json] [-cpuprofile f] [-memprofile f]
//
// -parallel sizes the compile/simulate worker pool (0 = GOMAXPROCS,
// 1 = sequential); the table is identical either way.  -explain appends
// the per-loop II-search explain report under the table; -trace writes
// a Chrome trace_event JSON of all compile/simulate phases (one trace
// sink per worker, merged at the end).
package main

import (
	"flag"
	"fmt"
	"log"

	"softpipe/internal/bench"
	"softpipe/internal/cliflags"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("livermore: ")
	shared := cliflags.Bind(flag.CommandLine, "machine", "verify=true", "parallel", "explain",
		"effort", "effort-budget", "trace", "cpuprofile", "memprofile")
	cells := flag.Int("cells", 0, "auto-partition each kernel across an N-cell array and print the speedup table instead of Table 4-2")
	flag.Parse()
	run, err := shared.Open("livermore")
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()
	m := run.Machine
	cfg := bench.Config{Options: run.Options, Workers: run.Workers}
	cfg.Options.VerifyEmitted = run.Verify

	if *cells > 0 {
		if *cells < 2 {
			log.Fatal("-cells needs at least 2 cells (1 is the Table 4-2 baseline)")
		}
		rep, err := bench.MeasureArray(m, []int{*cells}, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Livermore loops partitioned across %d cells\n", *cells)
		fmt.Print(bench.FormatArrayReport(rep))
		return
	}
	rows, err := bench.Table42(m, cfg)
	if err != nil {
		log.Fatal(err)
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
	if cfg.Options.Explain {
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
