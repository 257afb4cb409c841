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
//	          [-cpuprofile f] [-memprofile f] [-trace out.json]
//	          [-gap] [-gapout f]
//	          [-sweep] [-machines "a;b;..."] [-sweepout f]
//	          [-array] [-cells "2,4"] [-arrayout f]
//
// With no selection flags, everything runs.  -parallel sizes the
// compile/simulate worker pool (0 = GOMAXPROCS, 1 = sequential).
// (How fast the harness itself runs is benchmark/run.sh's to say; see
// README.)
// -gap instead compiles the gap corpus (saxpy +
// Livermore + the checked-in fuzz seeds) twice, at the default and with
// the heuristic alone (codegen.Options.HeuristicOnly), prints the
// per-loop heuristic-vs-kept II table with each workload's simulated
// cycles, and exits nonzero if the default is ever slower than the
// heuristic alone or keeps a higher II; -gapout also writes the
// BENCH_gap.json artifact.  -sweep instead compiles the sweep
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
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"softpipe/internal/bench"
	"softpipe/internal/cliflags"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("warpbench: ")
	shared := cliflags.Bind(flag.CommandLine, "machine", "verify", "parallel",
		"trace", "cpuprofile", "memprofile")
	t41 := flag.Bool("table41", false, "Table 4-1: application kernels")
	f41 := flag.Bool("fig41", false, "Figure 4-1: MFLOPS histogram")
	f42 := flag.Bool("fig42", false, "Figure 4-2: speedup histogram")
	stats := flag.Bool("stats", false, "§4.1 population statistics")
	gap := flag.Bool("gap", false, "measure the heuristic-vs-optimal II gap over the corpus and print the per-loop table")
	gapOut := flag.String("gapout", "", "with -gap: also write the BENCH_gap.json artifact to this file")
	array := flag.Bool("array", false, "auto-partition the corpus across the cell array and print the per-width speedup table")
	arrayCells := flag.String("cells", "2,4", "with -array: comma-separated array widths to measure")
	arrayOut := flag.String("arrayout", "", "with -array: also write the BENCH_array.json artifact to this file")
	sweep := flag.Bool("sweep", false, "compile the sweep corpus across a machine grid and print the per-machine table")
	sweepOut := flag.String("sweepout", "", "with -sweep: also write the BENCH_sweep.json artifact to this file")
	sweepMachines := flag.String("machines", "", "with -sweep: semicolon-separated machine names overriding the default grid (gen: names contain commas)")
	flag.Parse()
	all := !*t41 && !*f41 && !*f42 && !*stats

	run, err := shared.Open("warpbench-suite")
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()
	m := run.Machine
	cfg := bench.Config{Options: run.Options, Workers: run.Workers}
	// The three reports are always verified; the tables on -verify.
	cfg.Options.VerifyEmitted = run.Verify || *array || *sweep || *gap

	switch {
	case *array:
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
		rep, err := bench.MeasureArray(m, widths, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatArrayReport(rep))
		writeReport(*arrayOut, rep)
		return
	case *sweep:
		var grid []string
		for _, n := range strings.Split(*sweepMachines, ";") {
			if n = strings.TrimSpace(n); n != "" {
				grid = append(grid, n)
			}
		}
		rep, err := bench.MeasureSweep(grid, bench.SetFull, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatSweepReport(rep))
		writeReport(*sweepOut, rep)
		return
	case *gap:
		rep, err := bench.MeasureGap(m, bench.SetFull, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatGapReport(rep))
		writeReport(*gapOut, rep)
		return
	}

	if all || *t41 {
		rows, err := bench.Table41(m, cfg)
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
		var err error
		if suite, err = bench.RunSuite(m, cfg); err != nil {
			log.Fatal(err)
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
		// Twice: as compiled by default, and with every conditional reduced
		// arms whole — Lam's configuration, the one the paper's mean is for.
		whole := cfg
		whole.WholeArms = true
		wholeSuite, err := bench.RunSuite(m, whole)
		if err != nil {
			log.Fatal(err)
		}
		for _, fig := range []struct {
			title string
			suite []bench.SuiteResult
		}{
			{"Figure 4-2: speedup over locally compacted code", suite},
			{"Figure 4-2 with whole-arm conditionals (Lam §3.1: nothing lifted out of an arm)", wholeSuite},
		} {
			var speedups, cond, nocond []float64
			for _, r := range fig.suite {
				speedups = append(speedups, r.Speedup)
				if r.HasCond {
					cond = append(cond, r.Speedup)
				} else {
					nocond = append(nocond, r.Speedup)
				}
			}
			fmt.Println(fig.title)
			printHistogram(speedups, 0.5, 16, "speedup")
			fmt.Printf("mean %.2f (paper: ~3); with conditionals %.2f, without %.2f\n",
				mean(speedups), mean(cond), mean(nocond))
			fmt.Println()
		}
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

// writeReport writes a report as the indented JSON artifact checked in
// as BENCH_*.json; an empty path writes nothing.
func writeReport(path string, rep any) {
	if path == "" {
		return
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
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
