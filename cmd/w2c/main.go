// Command w2c compiles W2-like source files for the Warp-like VLIW cell:
// it prints the per-loop scheduling report, optionally disassembles the
// wide-instruction binary, and optionally runs it on the cycle-accurate
// simulator.  -verify additionally proves the emitted code legal with the
// independent checker of internal/verify (resource reservations including
// kernel wraparound, dependence and liveness via concolic provenance) and
// diffs the simulation against the reference interpreter.
//
// Usage:
//
//	w2c [-machine warp|scalar|wideN|gen:...] [-baseline] [-timeout d]
//	    [-S] [-kernel] [-run] [-exectrace N] [-verify] [-explain]
//	    [-trace out.json] [-cells N [-partition] [-input tape]] file.w2
//	w2c -fmt file.w2
//
// The paper's ablations (MVE, hierarchical and loop reduction off, binary
// II search, the lcm unroll policy) are not flags; the BenchmarkAblation*
// benchmarks of the root package measure them.  Nor is full unrolling of
// inner loops: the source asks for it per loop, `unroll for j := ...`.
//
// -run retires steady-state kernel loops on the dataflow fast path of
// internal/sim, bit-identical to stepping every cycle; -exectrace steps
// every cycle.
//
// -explain prints the explain report every compile records for each loop:
// why every candidate initiation interval below the accepted one failed
// (the failing op and the resource that blocked it), or why a loop that
// is not pipelined is not.  It only adds lines.
// -trace writes a Chrome trace_event JSON of the compile (and -run /
// -verify) phases, viewable in chrome://tracing or Perfetto.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"softpipe"
	"softpipe/internal/cliflags"
	"softpipe/internal/lang"
)

// splitNote says how a pipelined loop's compile-time trip count was
// split: kernel passes and the iterations that start in the tail, or
// that the loop has no kernel at all (nothing for a run-time count), how
// many operations were lifted out of its conditionals, and how many setup
// operations of an outer body rotated into the previous iteration.
func splitNote(lr softpipe.LoopInfo) string {
	note := ""
	switch {
	case lr.Flat:
		note = "; flat, no kernel"
	case lr.Passes > 0:
		note = fmt.Sprintf("; passes %d, tail %d", lr.Passes, lr.Tail)
	}
	if lr.Hoisted > 0 {
		note += fmt.Sprintf("; hoisted %d", lr.Hoisted)
	}
	if lr.Rotated > 0 {
		note += fmt.Sprintf("; rotated %d", lr.Rotated)
	}
	return note
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("w2c: ")
	shared := cliflags.Bind(flag.CommandLine, "machine", "verify", "explain", "trace")
	baseline := flag.Bool("baseline", false, "disable software pipelining (locally compacted code)")
	kernel := flag.Bool("kernel", false, "print each pipelined loop's steady-state kernel schedule")
	cells := flag.Int("cells", 0, "run the program on an N-cell array, streaming -input through the inter-cell queues")
	partitionFlag := flag.Bool("partition", false, "with -cells: auto-partition the loop nest across the cells (one fragment per cell wired by queue cuts) instead of replicating the whole program")
	input := flag.String("input", "", "whitespace-separated floats fed to the first cell's input queue")
	disasm := flag.Bool("S", false, "print the VLIW disassembly")
	format := flag.Bool("fmt", false, "pretty-print the parsed source and exit")
	run := flag.Bool("run", false, "simulate the program and print statistics")
	exectrace := flag.Int64("exectrace", 0, "with -run: print an execution trace for the first N cycles")
	timeout := flag.Duration("timeout", 0, "abort compilation after this long (the II search stops between candidate intervals); 0 means no limit")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: w2c [flags] file.w2")
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	if *format {
		ast, err := lang.Parse(string(src))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(lang.Format(ast))
		return
	}
	cli, err := shared.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	m, verify := cli.Machine, cli.Verify
	opts := cli.Options
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Ctx = ctx
	}
	opts.Baseline = *baseline
	if *partitionFlag {
		if *cells < 2 {
			log.Fatal("-partition needs -cells N with N >= 2")
		}
		runPartitioned(string(src), m, *cells, opts, readTape(*input), verify)
		return
	}
	obj, err := softpipe.CompileSource(string(src), m, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("; %s: %d instructions, %d float regs, %d int regs\n",
		flag.Arg(0), len(obj.Binary.Instrs), obj.Report.FRegsUsed, obj.Report.IRegsUsed)
	loops := append([]softpipe.LoopInfo(nil), obj.Report.Loops...)
	sort.Slice(loops, func(i, j int) bool { return loops[i].LoopID < loops[j].LoopID })
	for _, lr := range loops {
		status := fmt.Sprintf("pipelined II=%d (bound %d, met=%v, unroll %d, stages %d%s)",
			lr.II, lr.MII, lr.MetLower, lr.Unroll, lr.Stages, splitNote(lr))
		if !lr.Pipelined {
			status = "not pipelined"
			if lr.Reason != "" {
				status += ": " + lr.Reason
			}
			status += splitNote(lr)
		}
		fmt.Printf("; loop %d (trip %d): %s\n", lr.LoopID, lr.TripCount, status)
		if cli.Explain {
			fmt.Print(lr.Explain.Format())
		}
		if *kernel && lr.Kernel() != "" {
			fmt.Print(lr.Kernel())
		}
	}
	if *disasm {
		fmt.Print(obj.Disassemble())
	}
	if *cells > 0 {
		tape := readTape(*input)
		objs := make([]*softpipe.Object, *cells)
		for i := range objs {
			objs[i] = obj
		}
		res, err := softpipe.RunArray(objs, tape)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("; array of %d cells: %d cycles, %d flops, %.1f MFLOPS\n",
			*cells, res.Cycles, res.Flops, res.MFLOPS)
		for _, v := range res.Output {
			fmt.Println(v)
		}
		return
	}
	if *run || verify {
		if *exectrace > 0 {
			if err := obj.Trace(os.Stdout, *exectrace); err != nil {
				log.Fatal(err)
			}
		}
		simulate := obj.Run
		if verify {
			simulate = obj.Verify
		}
		res, err := simulate()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("; ran %d cycles, %d flops: %.3f MFLOPS/cell (%.1f on the %d-cell array)\n",
			res.Cycles, res.Flops, res.CellMFLOPS, res.ArrayMFLOPS, m.Cells)
		var names []string
		for name := range res.State.Scalars {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("; %s = %v\n", name, res.State.Scalars[name])
		}
	}
}

// readTape parses a whitespace-separated float file into an input tape;
// an empty path yields a nil tape.
func readTape(path string) []float64 {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var tape []float64
	for _, f := range strings.Fields(string(data)) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			log.Fatalf("bad input value %q: %v", f, err)
		}
		tape = append(tape, v)
	}
	return tape
}

// runPartitioned compiles the source as an auto-partitioned N-cell
// array, prints the per-cell schedule and runtime stats, and optionally
// proves the partition equivalent to the single-cell program.
func runPartitioned(src string, m *softpipe.Machine, cells int, opts softpipe.Options, tape []float64, verify bool) {
	ao, err := softpipe.CompileSourcePartitioned(src, softpipe.Machines(m, cells), opts)
	if err != nil {
		log.Fatal(err)
	}
	iis := ao.CellII()
	for i, c := range ao.Cells {
		fmt.Printf("; cell %d (%s): %d instructions, II=%d, est MII=%d, %d body ops\n",
			i, c.Binary.Name, len(c.Binary.Instrs), iis[i], ao.Plan.EstMII[i], len(ao.Plan.Stages[i]))
	}
	for b, w := range ao.Plan.CutWidths {
		fmt.Printf("; channel %d->%d: %d values/iteration\n", b, b+1, w)
	}
	for _, w := range ao.CapacityWarnings {
		fmt.Printf("; warning: %s\n", w)
	}
	if verify {
		if err := ao.Verify(tape); err != nil {
			log.Fatal(err)
		}
		fmt.Println("; verified: partitioned array equivalent to single-cell reference")
	}
	res, err := ao.RunArray(tape, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("; partitioned array of %d cells: %d cycles, %d flops, %.1f MFLOPS\n",
		cells, res.Cycles, res.Flops, res.MFLOPS)
	for i, cs := range res.CellStats {
		fmt.Printf("; cell %d: II=%d, stalled %d cycles, input queue high-water %d\n",
			i, cs.II, cs.StallCycles, cs.MaxInQueue)
	}
	for _, v := range res.Output {
		fmt.Println(v)
	}
}
