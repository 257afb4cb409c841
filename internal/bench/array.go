package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"softpipe"
	"softpipe/internal/machine"
	"softpipe/internal/trace"
)

// The array report measures auto-partitioning across the cell array
// (internal/partition): each corpus kernel is compiled once for a single
// cell and once per requested array width, every partitioned run is
// proved equivalent to the single-cell reference, and the steady-state
// speedup is the single-cell cycle count over the array cycle count.
// Lam §4.1's claim is that a balanced partition never stalls after the
// setup skew; the per-cell stall counters make that observable.

// ArrayRow is one (kernel, width) measurement in BENCH_array.json.
type ArrayRow struct {
	Workload string `json:"workload"`
	Cells    int    `json:"cells"`
	// CellII is each cell's scheduled initiation interval; the slowest
	// cell paces the array.
	CellII []int `json:"cell_ii"`
	// EstMII is the planner's per-stage MII estimate used to balance the
	// cut (before scheduling).
	EstMII []int `json:"est_mii"`
	// CutWidths is values per iteration crossing each inter-cell queue.
	CutWidths []int `json:"cut_widths,omitempty"`
	// SingleCycles is the one-cell pipelined baseline; ArrayCycles the
	// partitioned array's global-clock run; Speedup their ratio.
	SingleCycles int64   `json:"single_cell_cycles"`
	ArrayCycles  int64   `json:"array_cycles"`
	Speedup      float64 `json:"speedup"`
	// Words is the instruction words of the cells' objects, summed.
	Words int `json:"words"`
	// StallCycles and MaxInQueue are per-cell runtime counters: global
	// cycles spent blocked on a queue, and the input-queue high-water mark.
	StallCycles []int64 `json:"stall_cycles"`
	MaxInQueue  []int   `json:"max_in_queue"`
	// Verified means the partition passed the provenance-equivalence
	// check against the single-cell reference (ArrayObject.Verify).
	Verified bool `json:"verified"`
	// CapacityWarnings counts channels whose estimated in-flight words
	// approach the queue bound (legal under back-pressure).
	CapacityWarnings int `json:"capacity_warnings,omitempty"`
}

// ArraySkip records a (kernel, width) pair the planner rejected and why
// — shapes outside the partitioner's domain (conditionals, multiple
// top-level loops) or widths beyond the kernel's cuttable parallelism.
type ArraySkip struct {
	Workload string `json:"workload"`
	Cells    int    `json:"cells"`
	Reason   string `json:"reason"`
}

// ArraySummary aggregates the corpus.
type ArraySummary struct {
	Rows int `json:"rows"`
	// Partitioned counts distinct workloads with at least one
	// successfully partitioned width.
	Partitioned int `json:"workloads_partitioned"`
	Skips       int `json:"skips"`
	// Verified counts rows that passed the equivalence check (equals
	// Rows whenever verification is enabled).
	Verified     int     `json:"verified"`
	BestSpeedup  float64 `json:"best_speedup"`
	BestWorkload string  `json:"best_workload"`
	BestCells    int     `json:"best_cells"`
	MeanSpeedup  float64 `json:"mean_speedup"`
}

// ArrayReport is the artifact behind BENCH_array.json.
type ArrayReport struct {
	Machine string       `json:"machine"`
	Widths  []int        `json:"widths"`
	Rows    []ArrayRow   `json:"rows"`
	Skipped []ArraySkip  `json:"skipped,omitempty"`
	Summary ArraySummary `json:"summary"`
}

// MeasureArray partitions Corpus(SetFull, false) across each requested
// array width (nil means {2, 4}), measures steady-state speedup over the
// single-cell pipelined schedule, and reports per-cell II, stall cycles
// and queue occupancy.  Kernels the planner rejects are recorded as
// skips, not errors; a failed equivalence check is an error.
// cfg.Options.VerifyEmitted here means the array-level proof
// (ArrayObject.Verify) on every partitioned row: it covers each cell's
// object code, so the per-cell compiles do not repeat the verifier, and
// the single-cell leg is Table 4-2's to verify.
func MeasureArray(m *machine.Machine, widths []int, cfg Config) (*ArrayReport, error) {
	if len(widths) == 0 {
		widths = []int{2, 4}
	}
	for _, n := range widths {
		if n < 2 {
			return nil, fmt.Errorf("bench: array width %d: need at least 2 cells", n)
		}
	}
	ws, err := Corpus(SetFull, false)
	if err != nil {
		return nil, err
	}
	verify := cfg.Options.VerifyEmitted
	cfg.Options.VerifyEmitted = false
	jobs := make([]Job, len(ws))
	for i, w := range ws {
		jobs[i] = Job{"array " + w.Name + " (single cell)", w.Prog, m, cfg.Options}
	}
	singles, err := Measure(cfg, jobs)
	if err != nil {
		return nil, err
	}

	// One pool job per (workload, width); exactly one of row and skip is
	// set.  The report lists workloads in corpus order, widths within.
	type cell struct {
		row  *ArrayRow
		skip *ArraySkip
	}
	cells := make([]cell, len(ws)*len(widths))
	err = ForEachTraced(context.Background(), len(cells), cfg.Workers, cfg.Options.Tracer, func(i int, t *trace.Tracer) error {
		w, n := ws[i/len(widths)], widths[i%len(widths)]
		opts := cfg.Options
		opts.Tracer = t
		ao, err := softpipe.CompilePartitioned(w.Prog, softpipe.Machines(m, n), opts)
		if err != nil {
			cells[i].skip = &ArraySkip{Workload: w.Name, Cells: n, Reason: err.Error()}
			return nil
		}
		if cells[i].row, err = arrayRow(w.Name, ao, singles[i/len(widths)].Cycles, verify); err != nil {
			return fmt.Errorf("bench: array %s at %d cells: %w", w.Name, n, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &ArrayReport{Machine: m.Name, Widths: widths}
	for _, c := range cells {
		if c.row != nil {
			rep.Rows = append(rep.Rows, *c.row)
		} else {
			rep.Skipped = append(rep.Skipped, *c.skip)
		}
	}
	rep.Summary = summarizeArray(rep.Rows, rep.Skipped)
	return rep, nil
}

// arrayRow verifies (when asked) and runs one partitioned compile and
// projects it onto its report row.
func arrayRow(name string, ao *softpipe.ArrayObject, singleCycles int64, verify bool) (*ArrayRow, error) {
	if verify {
		if err := ao.Verify(nil); err != nil {
			return nil, err
		}
	}
	res, err := ao.RunArray(nil, "")
	if err != nil {
		return nil, err
	}
	row := &ArrayRow{
		Workload:         name,
		Cells:            ao.Width(),
		CellII:           ao.CellII(),
		EstMII:           ao.Plan.EstMII,
		CutWidths:        ao.Plan.CutWidths,
		SingleCycles:     singleCycles,
		ArrayCycles:      res.Cycles,
		Verified:         verify,
		CapacityWarnings: len(ao.CapacityWarnings),
	}
	if res.Cycles > 0 {
		row.Speedup = float64(singleCycles) / float64(res.Cycles)
	}
	for _, c := range ao.Cells {
		row.Words += len(c.Binary.Instrs)
	}
	for _, cs := range res.CellStats {
		row.StallCycles = append(row.StallCycles, cs.StallCycles)
		row.MaxInQueue = append(row.MaxInQueue, cs.MaxInQueue)
	}
	return row, nil
}

func summarizeArray(rows []ArrayRow, skips []ArraySkip) ArraySummary {
	s := ArraySummary{Rows: len(rows), Skips: len(skips)}
	seen := map[string]bool{}
	var sum float64
	for _, r := range rows {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			s.Partitioned++
		}
		if r.Verified {
			s.Verified++
		}
		sum += r.Speedup
		if r.Speedup > s.BestSpeedup {
			s.BestSpeedup = r.Speedup
			s.BestWorkload = r.Workload
			s.BestCells = r.Cells
		}
	}
	if len(rows) > 0 {
		s.MeanSpeedup = sum / float64(len(rows))
	}
	return s
}

// FormatArrayReport renders the report as the fixed-width table printed
// by `warpbench -array` and `livermore -cells`.
func FormatArrayReport(rep *ArrayReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "array partitioning on %s, widths %v\n", rep.Machine, rep.Widths)
	fmt.Fprintf(&b, "%-24s %5s  %-12s %6s %6s  %7s  %-14s %s\n",
		"workload", "cells", "cell II", "1-cell", "array", "speedup", "stall cycles", "verified")
	rows := append([]ArrayRow(nil), rep.Rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return rows[i].Cells < rows[j].Cells
	})
	for _, r := range rows {
		ver := "-"
		if r.Verified {
			ver = "yes"
		}
		fmt.Fprintf(&b, "%-24s %5d  %-12s %6d %6d  %6.2fx  %-14s %s\n",
			r.Workload, r.Cells, intList(r.CellII), r.SingleCycles, r.ArrayCycles,
			r.Speedup, int64List(r.StallCycles), ver)
	}
	for _, sk := range rep.Skipped {
		reason := sk.Reason
		if i := strings.LastIndex(reason, ": "); i >= 0 {
			reason = reason[i+2:]
		}
		fmt.Fprintf(&b, "%-24s %5d  skipped: %s\n", sk.Workload, sk.Cells, reason)
	}
	s := rep.Summary
	fmt.Fprintf(&b, "rows %d (verified %d)  workloads partitioned %d  skips %d  best %.2fx (%s at %d cells)  mean %.2fx\n",
		s.Rows, s.Verified, s.Partitioned, s.Skips, s.BestSpeedup, s.BestWorkload, s.BestCells, s.MeanSpeedup)
	return b.String()
}

func intList(v []int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, "/")
}

func int64List(v []int64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, "/")
}
