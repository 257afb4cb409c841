package softpipe_test

import (
	"slices"
	"strings"
	"testing"

	"softpipe"
)

// TestEveryLoopExplainsItsOutcome: every compile, the baseline's too,
// records an explain report for every loop, and the report of a loop that
// is not pipelined carries the loop's Reason, whichever stage wrote it —
// a pragma, analysis, the II search, a refusal after a successful search
// (too few iterations, the register files), or a nest's overlap and
// rollbacks.
func TestEveryLoopExplainsItsOutcome(t *testing.T) {
	var progs []digestProgram
	for _, p := range digestPrograms(t) {
		if strings.HasPrefix(p.name, "suite/") || strings.HasPrefix(p.name, "livermore/") ||
			strings.HasPrefix(p.name, "apps/") || strings.HasPrefix(p.name, "shape/") {
			progs = append(progs, p)
		}
	}
	machines := digestMachines(t)
	rot := slices.IndexFunc(machines, func(m *softpipe.Machine) bool { return m.RotatingRegs })
	refused := 0
	for _, m := range []*softpipe.Machine{machines[0], machines[rot]} {
		for _, p := range progs {
			for _, opts := range []softpipe.Options{{}, {Baseline: true}} {
				obj, err := softpipe.Compile(p.prog, m, opts)
				if err != nil {
					t.Fatalf("%s on %s: %v", p.name, m.Name, err)
				}
				for _, lr := range obj.Report.Loops {
					switch {
					case lr.Explain == nil:
						t.Errorf("%s on %s, loop %d: no explain report", p.name, m.Name, lr.LoopID)
					case !lr.Pipelined && !strings.Contains(lr.Explain.Format(), lr.Reason):
						t.Errorf("%s on %s, loop %d: not pipelined (%s), but the report says\n%s",
							p.name, m.Name, lr.LoopID, lr.Reason, lr.Explain.Format())
					case lr.Reason != "":
						refused++
					}
				}
			}
		}
	}
	if refused == 0 {
		t.Error("no loop of the corpus is refused: the test checks nothing")
	}
}
