package verify_test

import (
	"strings"
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/verify"
	"softpipe/internal/vliw"
)

// scaleCell is one stage of a two-cell chain: ten words in, each times a
// constant (and once accumulated into an owned array and a result), ten
// words out.
func scaleCell(t *testing.T, body string) (*ir.Program, *vliw.Program) {
	t.Helper()
	p, err := lang.Compile(`
program stage;
var acc: array [0..9] of real;
    last: real;
    i: int;
begin
  for i := 0 to 9 do begin
` + body + `
  end;
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := codegen.Compile(p, machine.Warp(), codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, obj
}

// TestArrayChainedCells proves a hand-cut two-cell realization against
// its single-cell source by term identity — (in·2)·3 on one cell is what
// ·2 feeding ·3 builds across the queue — and then breaks it four ways:
// the objects swapped between the cells, an observable owned by a cell
// that never computes it, an owner outside the array, and a plan whose
// shape does not match its objects.
func TestArrayChainedCells(t *testing.T) {
	m := machine.Warp()
	src, _ := scaleCell(t, `
    last := (receive() * 2.0) * 3.0;
    acc[i] := last;
    send(last);`)
	f0, o0 := scaleCell(t, `
    send(receive() * 2.0);`)
	f1, o1 := scaleCell(t, `
    last := receive() * 3.0;
    acc[i] := last;
    send(last);`)
	input := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	plan := verify.ArrayPlan{
		Fragments:   []*ir.Program{f0, f1},
		ArrayOwner:  map[string]int{"acc": 1},
		ResultOwner: map[string]int{},
	}
	for _, r := range src.Results {
		plan.ResultOwner[r.Name] = 1
	}
	ms := []*machine.Machine{m, m}
	opts := verify.Options{Input: input}
	if err := verify.Array(src, plan, []*vliw.Program{o0, o1}, ms, opts); err != nil {
		t.Fatalf("verifier rejects a correct two-cell chain: %v", err)
	}

	for _, tc := range []struct {
		name    string
		plan    verify.ArrayPlan
		objs    []*vliw.Program
		wantErr string
	}{
		{"objects swapped between cells", plan, []*vliw.Program{o1, o0}, "cell 0"},
		{"array owned by the cell that never stores it",
			verify.ArrayPlan{Fragments: plan.Fragments, ArrayOwner: map[string]int{"acc": 0}, ResultOwner: plan.ResultOwner},
			[]*vliw.Program{o0, o1}, "acc[0]"},
		{"owner outside the array",
			verify.ArrayPlan{Fragments: plan.Fragments, ArrayOwner: map[string]int{"acc": 2}, ResultOwner: plan.ResultOwner},
			[]*vliw.Program{o0, o1}, "no owning cell"},
		{"fewer objects than fragments", plan, []*vliw.Program{o0}, "2 fragments, 1 objects"},
		{"no fragments", verify.ArrayPlan{}, nil, "no fragments"},
	} {
		err := verify.Array(src, tc.plan, tc.objs, ms[:len(tc.objs)], opts)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestStaticChecksWithoutExecution: Static is what a compile falls back
// to when a program receives and no tape is supplied; it must still pass
// good code and catch an encoding fault.
func TestStaticChecksWithoutExecution(t *testing.T) {
	m := machine.Warp()
	_, obj := scaleCell(t, `
    send(receive() * 2.0);`)
	if err := verify.Static(obj, m); err != nil {
		t.Fatalf("static checks reject good code: %v", err)
	}
	bad := *obj
	bad.NumFRegs = m.FloatRegs + 1
	if err := verify.Static(&bad, m); err == nil {
		t.Error("static checks accept a program that claims more float registers than the machine has")
	}
	bad = *obj
	bad.Instrs = append([]vliw.Instr(nil), obj.Instrs...)
	bad.Instrs[0].Ctl = vliw.Ctl{Kind: vliw.CtlJump, Target: int32(len(bad.Instrs) + 5)}
	if err := verify.Static(&bad, m); err == nil {
		t.Error("static checks accept a jump past the end of the program")
	}
}
