package codegen_test

import (
	"strings"
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/machine"
	"softpipe/internal/workloads"
)

// TestWholeArmsKeptWhenLiftingLoses: the lifted body is the default, and
// the whole-arm body is what the loop is emitted from in the three cases
// where the lifted one is worse.  The explain report names the case, the
// loop reports no hoisted operations, and — where no other loop of the
// program lifted anything — forcing whole arms compiles the same object.
// draw/1054 is the plain case beside them: lifted, and said so.
func TestWholeArmsKeptWhenLiftingLoses(t *testing.T) {
	for _, tc := range []struct {
		seed    int64
		machine string
		loop    int
		note    string // "": the lifted body is kept
	}{
		{1050, "warp", 0, "the lifted body does not pipeline (pipeline: initiation interval bound 27 within 99% of unpipelined length 27)"},
		{1012, "wide2", 1, "the lifted body's 5 stages are too many for 4 iterations"},
		{1026, "warp", 0, "the lifted body lands on II 47"},
		{1054, "warp", 0, ""},
	} {
		m, err := machine.Parse(tc.machine)
		if err != nil {
			t.Fatal(err)
		}
		p := workloads.RandomProgram(tc.seed)
		obj, rep, err := codegen.Compile(p, m, codegen.Options{VerifyEmitted: true})
		if err != nil {
			t.Fatalf("draw/%d: %v", tc.seed, err)
		}
		whole, _, err := codegen.Compile(p, m, codegen.Options{WholeArms: true})
		if err != nil {
			t.Fatalf("draw/%d, whole arms: %v", tc.seed, err)
		}
		var lr *codegen.LoopReport
		hoisted := 0
		for i := range rep.Loops {
			hoisted += rep.Loops[i].Hoisted
			if rep.Loops[i].LoopID == tc.loop {
				lr = &rep.Loops[i]
			}
		}
		if lr == nil || !lr.Pipelined {
			t.Fatalf("draw/%d: loop %d not pipelined: %+v", tc.seed, tc.loop, lr)
		}
		notes := strings.Join(lr.Explain.Notes, "\n")
		if tc.note == "" {
			if lr.Hoisted == 0 || strings.Contains(notes, "whole-arm") || obj.String() == whole.String() {
				t.Errorf("draw/%d: hoisted %d, notes %q: want the lifted body, and an object the whole-arm switch changes", tc.seed, lr.Hoisted, notes)
			}
			continue
		}
		// The last note names the case; a note before it may say which of
		// the whole-arm body's two plans was kept (keepFaster).
		if want := "whole-arm conditionals kept: " + tc.note; lr.Hoisted != 0 || !strings.HasSuffix(notes, want) {
			t.Errorf("draw/%d: hoisted %d, notes %q, want 0 and %q", tc.seed, lr.Hoisted, notes, want)
		}
		if !strings.Contains(lr.Explain.Format(), "note: whole-arm conditionals kept: ") {
			t.Errorf("draw/%d: -explain does not say the whole-arm form was kept:\n%s", tc.seed, lr.Explain.Format())
		}
		if hoisted == 0 && obj.String() != whole.String() {
			t.Errorf("draw/%d: the kept whole-arm body is not the one the whole-arm switch compiles", tc.seed)
		}
	}
}
