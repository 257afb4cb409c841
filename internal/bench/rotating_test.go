package bench

import (
	"strings"
	"testing"

	"softpipe"
	"softpipe/internal/codegen"
	"softpipe/internal/machine"
)

// TestRotatingEndToEnd is the rotating-register acceptance gate: on a
// rotating grid machine every pipelined corpus loop must collapse to
// MVE unroll 1, pass the independent object-code verifier, and simulate
// bit-identically to the IR interpreter on both engines.
func TestRotatingEndToEnd(t *testing.T) {
	ws, err := Corpus(SetFull, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gen:rot", "gen:fa2,fm2,mem2,rot"} {
		m, err := machine.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		if !m.RotatingRegs {
			t.Fatalf("%s: RotatingRegs not set", name)
		}
		t.Run(name, func(t *testing.T) {
			pipelined := 0
			for _, w := range ws {
				var cycles []int64
				for _, eng := range []softpipe.Engine{softpipe.EngineInterp, softpipe.EngineCompiled} {
					r, err := Run(w.Prog, m, Config{Options: softpipe.Options{VerifyEmitted: true}, Engine: eng})
					if err != nil {
						t.Fatalf("%s (%s): %v", w.Name, eng, err)
					}
					cycles = append(cycles, r.Cycles)
					for _, lr := range r.Report.Loops {
						if !lr.Pipelined {
							continue
						}
						pipelined++
						if !lr.Rotating {
							t.Errorf("%s loop %d: pipelined without the rotating schedule", w.Name, lr.LoopID)
						}
						if lr.Unroll != 1 {
							t.Errorf("%s loop %d: MVE unroll %d on a rotating machine (want 1)", w.Name, lr.LoopID, lr.Unroll)
						}
					}
				}
				if cycles[0] != cycles[1] {
					t.Errorf("%s: engines disagree on cycle count (%d vs %d)", w.Name, cycles[0], cycles[1])
				}
			}
			if pipelined == 0 {
				t.Fatal("no corpus loop pipelined on the rotating machine")
			}
		})
	}
}

// TestRotatingSchedulesMatchMVE pins the schedule-quality invariants of
// the rotating register file against pure MVE.  With ample registers
// the copy-budget machinery never engages, so toggling the register
// file must not move any initiation interval: rotation renames copies,
// it does not reschedule.  At the default file size register pressure
// legitimately separates the two (the remedies differ: MVE un-expands,
// rotating first trades interval for ring depth), but rotating needs
// strictly fewer copy registers, so it must never pipeline less, and
// any II drift on shared loops stays small.
func TestRotatingSchedulesMatchMVE(t *testing.T) {
	ws, err := Corpus(SetFull, false)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		mve, rot string
		ample    bool
	}
	for _, pr := range []pair{
		{"gen:fa2,fm2,mem2,fr512", "gen:fa2,fm2,mem2,fr512,rot", true},
		{"gen:fa2,fm2,mem2", "gen:fa2,fm2,mem2,rot", false},
	} {
		mve, err := machine.Parse(pr.mve)
		if err != nil {
			t.Fatal(err)
		}
		rot, err := machine.Parse(pr.rot)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			a, err := Run(w.Prog, mve, Config{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(w.Prog, rot, Config{})
			if err != nil {
				t.Fatal(err)
			}
			bByID := map[int]*codegen.LoopReport{}
			for i := range b.Report.Loops {
				bByID[b.Report.Loops[i].LoopID] = &b.Report.Loops[i]
			}
			for _, la := range a.Report.Loops {
				lb := bByID[la.LoopID]
				if lb == nil {
					t.Errorf("%s %s loop %d: missing from the rotating report", pr.rot, w.Name, la.LoopID)
					continue
				}
				if la.Pipelined && !lb.Pipelined {
					t.Errorf("%s %s loop %d: pipelines under MVE but not rotating (%s)", pr.rot, w.Name, la.LoopID, lb.Reason)
					continue
				}
				if !la.Pipelined || !lb.Pipelined {
					continue
				}
				if pr.ample && la.II != lb.II {
					t.Errorf("%s %s loop %d: II %d under MVE, %d rotating with ample registers (rotation renames copies, it must not reschedule)",
						pr.rot, w.Name, la.LoopID, la.II, lb.II)
				}
				if !pr.ample && lb.II > la.II+2 {
					t.Errorf("%s %s loop %d: rotating II %d drifted past MVE II %d+2 under pressure", pr.rot, w.Name, la.LoopID, lb.II, la.II)
				}
			}
		}
	}
}

// TestSweepDefaultGridSmoke runs the sweep machinery itself over the
// default grid on the smoke corpus, verified, and checks the report
// invariants the checked-in artifact relies on.
func TestSweepDefaultGridSmoke(t *testing.T) {
	rep, err := MeasureSweep(nil, SetSmoke, Config{Options: softpipe.Options{VerifyEmitted: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Machines) != len(machine.DefaultGrid()) {
		t.Fatalf("got %d grid points, want %d", len(rep.Machines), len(machine.DefaultGrid()))
	}
	fps := map[string]string{}
	for i, sm := range rep.Machines {
		if sm.Fingerprint == "" {
			t.Errorf("%s: empty fingerprint", sm.Machine)
		}
		if prev, dup := fps[sm.Fingerprint]; dup {
			t.Errorf("fingerprint collision: %s vs %s", prev, sm.Machine)
		}
		fps[sm.Fingerprint] = sm.Machine
		if sm.Pipelined == 0 {
			t.Errorf("%s: nothing pipelined on the smoke corpus", sm.Machine)
		}
		if sm.Rotating && sm.MaxUnroll > 1 {
			t.Errorf("%s: max unroll %d on a rotating machine", sm.Machine, sm.MaxUnroll)
		}
		if j := rep.RotPartner(i); j < 0 {
			t.Errorf("%s: no rotating/MVE partner in the default grid", sm.Machine)
		}
	}
	if s := FormatSweepReport(rep); s == "" || len(s) < 100 {
		t.Fatalf("implausibly short report rendering:\n%s", s)
	}
	// The report must mention every grid point by canonical name.
	s := FormatSweepReport(rep)
	for _, g := range machine.DefaultGrid() {
		if !strings.Contains(s, g.Name()) {
			t.Errorf("rendered report missing grid point %s", g.Name())
		}
	}
}
