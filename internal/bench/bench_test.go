package bench

import (
	"fmt"
	"strings"
	"testing"

	"softpipe"
	"softpipe/internal/machine"
)

func TestTable42Shape(t *testing.T) {
	m := machine.Warp()
	rows, err := Table42(m, Config{Options: softpipe.Options{VerifyEmitted: true}})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]Table42Row{}
	for _, r := range rows {
		byID[r.KernelID] = r
		fmt.Printf("k%-2d %-26s mflops=%6.2f eff=%4.2f speedup=%5.2f pipelined=%v\n",
			r.KernelID, r.Name, r.MFLOPS, r.Efficiency, r.Speedup, r.Pipelined)
	}
	// Shape anchors from the paper:
	// - the parallel kernels (1, 7, 12) pipeline and speed up well;
	if r := byID[12]; !r.Pipelined || r.Speedup < 3 {
		t.Errorf("k12 should pipeline with a large speedup: %+v", r)
	}
	if r := byID[7]; !r.Pipelined || r.Speedup < 3 {
		t.Errorf("k7 should pipeline with a large speedup: %+v", r)
	}
	// - recurrences (5, 11) are bound by the dependence cycle: modest
	//   MFLOPS but still real speedup from overlapping the rest;
	if r := byID[5]; r.MFLOPS > 2.0 {
		t.Errorf("k5 is a serial recurrence; MFLOPS %v too high", r.MFLOPS)
	}
	// - kernel 22 (EXP) must not pipeline tightly (the paper's compiler
	//   skipped it);
	if r := byID[22]; r.Speedup > 2.0 {
		t.Errorf("k22 should be nearly serial (EXP conditionals): %+v", r)
	}
	// - the accumulator kernel 3 is bound by the 7-cycle adder:
	//   2 flops / 7 cycles at 5 MHz = 1.43 MFLOPS.
	if r := byID[3]; r.MFLOPS > 1.6 || r.MFLOPS < 1.2 {
		t.Errorf("k3 MFLOPS %v, want ~1.43 (7-cycle accumulation recurrence)", r.MFLOPS)
	}
}

func TestTable41Shape(t *testing.T) {
	m := machine.Warp()
	rows, err := Table41(m, Config{Options: softpipe.Options{VerifyEmitted: true}})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table41Row{}
	for _, r := range rows {
		byName[r.Name] = r
		fmt.Printf("%-16s array=%6.1f cell=%5.2f paper=%5.1f cycles=%d\n",
			r.Name, r.ArrayMFLOPS, r.CellMFLOPS, r.PaperMFLOPS, r.Cycles)
	}
	// Regular dense kernels (matmul, conv) must beat the irregular ones
	// (warshall with its min/selects, hough with opaque addressing) —
	// the ordering the paper's table shows.
	if byName["matmul-100"].ArrayMFLOPS <= byName["warshall"].ArrayMFLOPS {
		t.Errorf("matmul (%v) should beat warshall (%v)",
			byName["matmul-100"].ArrayMFLOPS, byName["warshall"].ArrayMFLOPS)
	}
	if byName["conv3x3"].ArrayMFLOPS <= byName["hough"].ArrayMFLOPS {
		t.Errorf("conv3x3 (%v) should beat hough (%v)",
			byName["conv3x3"].ArrayMFLOPS, byName["hough"].ArrayMFLOPS)
	}
}

func TestSuiteFigures(t *testing.T) {
	m := machine.Warp()
	res, err := RunSuite(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 72 {
		t.Fatalf("%d programs, want 72", len(res))
	}
	var sum, condSum, noCondSum float64
	var nCond, nNoCond int
	minS, maxS := 1e9, 0.0
	for _, r := range res {
		sum += r.Speedup
		if r.Speedup < minS {
			minS = r.Speedup
		}
		if r.Speedup > maxS {
			maxS = r.Speedup
		}
		if r.HasCond {
			condSum += r.Speedup
			nCond++
		} else {
			noCondSum += r.Speedup
			nNoCond++
		}
	}
	mean := sum / float64(len(res))
	fmt.Printf("speedup mean=%.2f min=%.2f max=%.2f cond-mean=%.2f nocond-mean=%.2f\n",
		mean, minS, maxS, condSum/float64(nCond), noCondSum/float64(nNoCond))
	st := Stats(res)
	fmt.Printf("loops=%d pipelined=%d metbound=%d (%.0f%%) simple=%d simplemet=%d (%.0f%%) avgEffMissed=%.2f\n",
		st.Loops, st.Pipelined, st.MetBound,
		100*float64(st.MetBound)/float64(st.Loops),
		st.SimpleLoops, st.SimpleMet,
		100*float64(st.SimpleMet)/maxf(1, float64(st.SimpleLoops)),
		st.AvgEffOfMissed)

	// Figure 4-2 anchors: in the paper's configuration — conditionals
	// reduced with their arms whole — the mean speedup is around 3;
	// lifting arm-private operations out of the arms only adds to it; and
	// programs with conditionals speed up more (they gain both pipelining
	// and cross-block compaction, Lam §4.1).
	whole, err := RunSuite(m, Config{WholeArms: true})
	if err != nil {
		t.Fatal(err)
	}
	wholeSum := 0.0
	for i, r := range whole {
		wholeSum += r.Speedup
		if res[i].Speedup < r.Speedup {
			t.Errorf("%s: speedup %.2f with operations lifted, %.2f with whole arms", r.Name, res[i].Speedup, r.Speedup)
		}
	}
	if wholeMean := wholeSum / float64(len(whole)); wholeMean < 2 || wholeMean > 6 {
		t.Errorf("mean speedup %.2f with whole arms outside the paper's ballpark (~3)", wholeMean)
	}
	if condSum/float64(nCond) <= noCondSum/float64(nNoCond) {
		t.Errorf("conditional programs should speed up more (cond %.2f vs %.2f)",
			condSum/float64(nCond), noCondSum/float64(nNoCond))
	}
	// §4.1: 75% of loops meet the lower bound; 93% of simple loops are
	// pipelined perfectly.  Require the same character.
	if frac := float64(st.MetBound) / float64(st.Loops); frac < 0.6 {
		t.Errorf("only %.0f%% of loops meet the MII bound (paper: 75%%)", 100*frac)
	}
	if st.SimpleLoops > 0 {
		if frac := float64(st.SimpleMet) / float64(st.SimpleLoops); frac < 0.8 {
			t.Errorf("only %.0f%% of simple loops pipeline perfectly (paper: 93%%)", 100*frac)
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestHistogram(t *testing.T) {
	vals := []float64{0.5, 1.5, 1.7, 9.9, 50, -1}
	h := Histogram(vals, 1, 10)
	if len(h) != 11 {
		t.Fatalf("buckets = %d, want 11", len(h))
	}
	if h[0] != 2 { // 0.5 and the clamped -1
		t.Errorf("bucket 0 = %d, want 2", h[0])
	}
	if h[1] != 2 { // 1.5, 1.7
		t.Errorf("bucket 1 = %d, want 2", h[1])
	}
	if h[9] != 1 || h[10] != 1 { // 9.9; 50 clamps into the last bucket
		t.Errorf("tail buckets = %d,%d want 1,1", h[9], h[10])
	}
	total := 0
	for _, n := range h {
		total += n
	}
	if total != len(vals) {
		t.Errorf("histogram loses values: %d of %d", total, len(vals))
	}
}

func TestFormatTable(t *testing.T) {
	s := FormatTable([]string{"name", "v"}, [][]string{{"aa", "1"}, {"b", "22"}})
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), s)
	}
	if lines[0] != "name  v " {
		t.Errorf("header misaligned: %q", lines[0])
	}
	if lines[1] != "aa    1 " {
		t.Errorf("row misaligned: %q", lines[1])
	}
}
