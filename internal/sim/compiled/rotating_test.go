package compiled

import (
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
	"softpipe/internal/workloads"
)

// TestDifferentialLivermoreRotating: the Livermore kernels compiled for a
// rotating grid machine — ring operands in every pipelined kernel,
// Rotate-marked loop-backs, rotclear at region heads — must run to the
// same state, stats and cycle count on both engines, and no Rotate loop
// may become a fast-path block (register identity changes every pass).
func TestDifferentialLivermoreRotating(t *testing.T) {
	m, err := machine.Parse("gen:fa2,fm2,mem2,rot")
	if err != nil {
		t.Fatal(err)
	}
	rotating := 0
	for _, k := range workloads.Livermore() {
		p, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		prog, _, err := codegen.Compile(p, m, codegen.Options{Mode: codegen.ModePipelined})
		if err != nil {
			t.Fatalf("%s: compile: %v", k.Name, err)
		}
		diffEngines(t, k.Name, prog, m)

		// Every block is a backward DBNZ self-loop, so the loops that
		// do not rotate bound the block count from above.
		static := 0
		for pc, in := range prog.Instrs {
			if in.Ctl.Kind != vliw.CtlDBNZ || int(in.Ctl.Target) > pc {
				continue
			}
			if in.Ctl.Rotate {
				rotating++
			} else {
				static++
			}
		}
		if got := mustBuild(t, prog, m).Blocks(); got > static {
			t.Errorf("%s: Blocks() = %d with only %d non-rotating loops: a Rotate loop took the fast path", k.Name, got, static)
		}
	}
	if rotating == 0 {
		t.Fatal("no Livermore kernel compiled to a rotating loop; the test exercises nothing")
	}
}
