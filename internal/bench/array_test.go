package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"softpipe"
	"softpipe/internal/machine"
)

// TestMeasureArray runs the full array measurement at width 2 with
// verification on: every partitioned row must be proved equivalent to
// the single-cell reference, and at least one kernel must clear the
// 1.5× steady-state speedup the paper's array-scaling argument (§4.1)
// predicts for a balanced two-cell cut.
func TestMeasureArray(t *testing.T) {
	rep, err := MeasureArray(machine.Warp(), []int{2}, Config{Options: softpipe.Options{VerifyEmitted: true}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Rows == 0 {
		t.Fatal("no kernel partitioned at width 2")
	}
	if rep.Summary.Verified != rep.Summary.Rows {
		t.Fatalf("verified %d of %d rows", rep.Summary.Verified, rep.Summary.Rows)
	}
	if rep.Summary.BestSpeedup < 1.5 {
		t.Errorf("best 2-cell speedup %.2fx (%s); want >= 1.5x",
			rep.Summary.BestSpeedup, rep.Summary.BestWorkload)
	}
	for _, r := range rep.Rows {
		if len(r.CellII) != r.Cells || len(r.StallCycles) != r.Cells || len(r.MaxInQueue) != r.Cells {
			t.Errorf("%s at %d cells: ragged per-cell stats %+v", r.Workload, r.Cells, r)
		}
		if r.ArrayCycles <= 0 {
			t.Errorf("%s at %d cells: array cycles %d", r.Workload, r.Cells, r.ArrayCycles)
		}
	}

	// The artifact must round-trip and the table must render every row.
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back ArrayReport
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.Summary != rep.Summary {
		t.Fatalf("summary did not round-trip: %+v vs %+v", back.Summary, rep.Summary)
	}
	table := FormatArrayReport(rep)
	for _, r := range rep.Rows {
		if !strings.Contains(table, r.Workload) {
			t.Errorf("table is missing %s:\n%s", r.Workload, table)
		}
	}
}

// TestMeasureArrayRejectsWidthOne: replicating onto one cell is the
// homogeneous path, not a partition.
func TestMeasureArrayRejectsWidthOne(t *testing.T) {
	if _, err := MeasureArray(machine.Warp(), []int{1}, Config{}); err == nil {
		t.Fatal("width 1 must be rejected")
	}
}
