package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"softpipe"
	"softpipe/internal/machine"
	"softpipe/internal/workloads"
)

// update regenerates testdata/gap_golden.txt:
//
//	go test ./internal/bench/ -run TestGoldenGapReport -update
var update = flag.Bool("update", false, "rewrite testdata golden files from current output")

var gapConfig = Config{Options: softpipe.Options{VerifyEmitted: true}}

// checkGapInvariants asserts what every gap row must satisfy regardless
// of corpus or machine.  MeasureGap itself fails if the exact backend is
// ever worse than the heuristic, so by the time rows exist the ordering
// holds; this re-checks it anyway alongside the bound and bookkeeping
// invariants.
func checkGapInvariants(t *testing.T, rep *GapReport) {
	t.Helper()
	if len(rep.Loops) == 0 {
		t.Fatal("gap report has no pipelined loops")
	}
	for _, l := range rep.Loops {
		if l.II > l.HeurII || l.Cycles > l.HeurCycles {
			t.Errorf("%s loop %d: kept II %d, %d cycles; heuristic II %d, %d cycles", l.Workload, l.Loop, l.II, l.Cycles, l.HeurII, l.HeurCycles)
		}
		if l.II < l.MII {
			t.Errorf("%s loop %d: kept II %d below MII %d (bound unsound)", l.Workload, l.Loop, l.II, l.MII)
		}
		if l.Gap != l.HeurII-l.II {
			t.Errorf("%s loop %d: gap %d != %d-%d", l.Workload, l.Loop, l.Gap, l.HeurII, l.II)
		}
		if l.Proved && l.FellBack {
			t.Errorf("%s loop %d: both proved and fell back", l.Workload, l.Loop)
		}
	}
	s := rep.Summary
	if s.Loops != len(rep.Loops) {
		t.Errorf("summary loops %d != %d", s.Loops, len(rep.Loops))
	}
	if s.Efficiency < s.HeurEfficiency || s.Cycles > s.HeurCycles {
		t.Errorf("kept efficiency %.3f, %d cycles; heuristic %.3f, %d cycles", s.Efficiency, s.Cycles, s.HeurEfficiency, s.HeurCycles)
	}
}

// TestGapCorpusDifferential is the differential harness over the full
// corpus (every Livermore kernel plus every checked-in fuzz seed plus
// saxpy): every workload compiles at the default and with the heuristic
// alone, every emitted binary passes the independent verifier, every
// simulation matches the IR interpreter state (so the two final states
// are identical), and the default is never slower nor keeps a higher II.
// Short mode runs the smoke corpus.
func TestGapCorpusDifferential(t *testing.T) {
	set := SetFull
	if testing.Short() {
		set = SetSmoke
	}
	rep, err := MeasureGap(machine.Warp(), set, gapConfig)
	if err != nil {
		t.Fatal(err)
	}
	checkGapInvariants(t, rep)
	if !testing.Short() && rep.Summary.ProvedOptimal == 0 {
		t.Error("the search proved nothing on the full corpus")
	}
}

// TestGapCorpusSecondMachine repeats the differential harness on a
// machine with a different resource shape, where ResMII and the
// reservation conflicts differ from Warp's.
func TestGapCorpusSecondMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus second machine is not short")
	}
	rep, err := MeasureGap(machine.Wide(2), SetFull, gapConfig)
	if err != nil {
		t.Fatal(err)
	}
	checkGapInvariants(t, rep)
}

func TestCorpusUnknownSet(t *testing.T) {
	if _, err := Corpus("everything", true); err == nil {
		t.Fatal("unknown corpus set accepted")
	}
	ws, err := Corpus(SetSmoke, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 || ws[0].Name != "saxpy" || ws[1].Name != "k18-2d-hydro" {
		t.Fatalf("smoke corpus = %v, want [saxpy k18-2d-hydro]", ws)
	}
}

// TestGoldenGapReport pins the rendered gap table for two contrasting
// loops: k5 (recurrence-bound: RecMII dominates and the heuristic is
// provably optimal at the bound, gap 0) and k18 (resource-bound loops
// where MII is unachievable compactly).  Regenerate with -update.
func TestGoldenGapReport(t *testing.T) {
	var ws []Workload
	for _, id := range []int{5, 18} {
		for _, k := range workloads.Livermore() {
			if k.ID != id {
				continue
			}
			p, err := k.Build()
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, Workload{Name: k.Name, Prog: p})
		}
	}
	if len(ws) != 2 {
		t.Fatalf("expected 2 golden workloads, got %d", len(ws))
	}
	rep, err := MeasureGapWorkloads(machine.Warp(), "golden", ws, gapConfig)
	if err != nil {
		t.Fatal(err)
	}
	checkGapInvariants(t, rep)
	got := FormatGapReport(rep)
	path := filepath.Join("testdata", "gap_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("golden gap report drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
