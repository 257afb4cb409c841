package verify_test

import (
	"fmt"
	"testing"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/trace"
	"softpipe/internal/verify"
	"softpipe/internal/vliw"
	"softpipe/internal/workloads"
)

var modes = []struct {
	name string
	opts codegen.Options
}{
	{"pipelined", codegen.Options{Mode: codegen.ModePipelined}},
	{"unpipelined", codegen.Options{Mode: codegen.ModeUnpipelined}},
}

// TestVerifyLivermore: the verifier must pass every loop of the
// Livermore suite in both compilation modes (acceptance criterion).
func TestVerifyLivermore(t *testing.T) {
	m := machine.Warp()
	for _, k := range workloads.Livermore() {
		for _, mode := range modes {
			k, mode := k, mode
			t.Run(fmt.Sprintf("%s/%s", k.Name, mode.name), func(t *testing.T) {
				t.Parallel()
				p, err := k.Build()
				if err != nil {
					t.Fatal(err)
				}
				obj, _, err := codegen.Compile(p, m, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := verify.Program(p, obj, m); err != nil {
					t.Errorf("verifier rejects known-good schedule: %v", err)
				}
			})
		}
	}
}

// TestVerifyApps: same for the application kernels of Table 4-1.
func TestVerifyApps(t *testing.T) {
	m := machine.Warp()
	for _, a := range workloads.Apps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			p, err := a.Build()
			if err != nil {
				t.Fatal(err)
			}
			obj, _, err := codegen.Compile(p, m, codegen.Options{Mode: codegen.ModePipelined})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Program(p, obj, m); err != nil {
				t.Errorf("verifier rejects known-good schedule: %v", err)
			}
		})
	}
}

// TestVerifySuiteSample: a slice of the synthetic user-program
// population, which exercises conditionals and accumulator recurrences.
func TestVerifySuiteSample(t *testing.T) {
	m := machine.Warp()
	suite := workloads.Suite()
	step := 8
	if testing.Short() {
		step = 24
	}
	for i := 0; i < len(suite); i += step {
		sp := suite[i]
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			obj, _, err := codegen.Compile(sp.Prog, m, codegen.Options{Mode: codegen.ModePipelined})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Program(sp.Prog, obj, m); err != nil {
				t.Errorf("verifier rejects known-good schedule: %v", err)
			}
		})
	}
}

// TestVerifyWideMachine: a wider cell changes every schedule; the
// verifier must be machine-parametric, not Warp-specific.
func TestVerifyWideMachine(t *testing.T) {
	m := machine.Wide(2)
	p, err := workloads.Livermore()[1].Build()
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := codegen.Compile(p, m, codegen.Options{Mode: codegen.ModePipelined})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Program(p, obj, m); err != nil {
		t.Errorf("verifier rejects known-good schedule on wide2: %v", err)
	}
}

// compileK1 returns Livermore kernel 1 compiled pipelined, for the
// rejection tests below.
func compileK1(t *testing.T, m *machine.Machine) (*ir.Program, *vliw.Program) {
	t.Helper()
	p, err := workloads.Livermore()[1].Build()
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := codegen.Compile(p, m, codegen.Options{Mode: codegen.ModePipelined})
	if err != nil {
		t.Fatal(err)
	}
	return p, obj
}

// TestVerifyReportsTermCounters: a traced run says how many terms it
// interned and how many lookups that took; on a sound object the second
// execution re-finds what the first interned, so lookups exceed terms.
func TestVerifyReportsTermCounters(t *testing.T) {
	m := machine.Warp()
	p, obj := compileK1(t, m)
	tr := trace.New("test")
	if err := verify.ProgramOpts(p, obj, m, verify.Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	terms, ok := lastCount(tr, "verify.terms")
	lookups, ok2 := lastCount(tr, "verify.term_lookups")
	if !ok || !ok2 || terms <= 0 || lookups <= terms {
		t.Errorf("verify.terms = %d (reported %v), verify.term_lookups = %d (reported %v)", terms, ok, lookups, ok2)
	}
}

// TestVerifyRejectsOversubscription: two loads forced into one row must
// trip the resource check (one memory read port on the Warp cell).
func TestVerifyRejectsOversubscription(t *testing.T) {
	m := machine.Warp()
	p, obj := compileK1(t, m)
	mut := verify.CloneProgram(obj)
	// Find two rows each issuing a load and merge their ops into one.
	first := -1
	for pc := range mut.Instrs {
		hasLoad := false
		for _, o := range mut.Instrs[pc].Ops {
			if o.Class == machine.ClassLoad {
				hasLoad = true
			}
		}
		if !hasLoad {
			continue
		}
		if first < 0 {
			first = pc
			continue
		}
		mut.Instrs[first].Ops = append(mut.Instrs[first].Ops, mut.Instrs[pc].Ops...)
		mut.Instrs[pc].Ops = nil
		break
	}
	if err := verify.Program(p, mut, m); err == nil {
		t.Fatal("verifier accepted a row with two loads on a one-port machine")
	}
}

// TestVerifyRejectsBadRegister: an out-of-file register index must trip
// the structural check.
func TestVerifyRejectsBadRegister(t *testing.T) {
	m := machine.Warp()
	p, obj := compileK1(t, m)
	mut := verify.CloneProgram(obj)
	for pc := range mut.Instrs {
		for oi := range mut.Instrs[pc].Ops {
			o := &mut.Instrs[pc].Ops[oi]
			if len(o.Sources()) > 0 {
				o.Src[0] = 1 << 20
				if err := verify.Program(p, mut, m); err == nil {
					t.Fatal("verifier accepted an out-of-range register")
				}
				return
			}
		}
	}
	t.Fatal("no op with a source operand found")
}

// TestVerifyRejectsSwappedDependentRows: swapping a load row with the
// row consuming it breaks the dependence and must be rejected even
// though both rows stay individually legal.
func TestVerifyRejectsSwappedDependentRows(t *testing.T) {
	m := machine.Warp()
	p, obj := compileK1(t, m)
	rejected := 0
	for pc := 0; pc+1 < len(obj.Instrs); pc++ {
		a, b := obj.Instrs[pc], obj.Instrs[pc+1]
		if a.Ctl.Kind != vliw.CtlNone || b.Ctl.Kind != vliw.CtlNone {
			continue
		}
		if len(a.Ops) == 0 || len(b.Ops) == 0 {
			continue
		}
		mut := verify.CloneProgram(obj)
		mut.Instrs[pc], mut.Instrs[pc+1] = mut.Instrs[pc+1], mut.Instrs[pc]
		if err := verify.Program(p, mut, m); err != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no adjacent-row swap was rejected; the dependence check is vacuous")
	}
}

// TestVerifyCatchesValueCoincidence: the provenance comparison must
// reject a schedule that reads a *different* register holding the *same*
// value — the bug class plain differential testing cannot see.
func TestVerifyCatchesValueCoincidence(t *testing.T) {
	m := machine.Warp()
	b := ir.NewBuilder("coincidence")
	arr := b.Array("a", ir.KindFloat, 9) // one word more than the loop reads, so a load one over stays in bounds
	b.Array("o", ir.KindFloat, 8)
	for i := 0; i < 9; i++ {
		arr.InitF = append(arr.InitF, 2.0) // every element equal: stale reads are value-invisible
	}
	b.ForN(8, func(l *ir.LoopCtx) {
		pt := l.Pointer(0, 1)
		v := b.Load("a", pt, ir.Aff(l.ID, 1, 0))
		st := l.Pointer(0, 1)
		b.Store("o", st, b.FAdd(v, v), ir.Aff(l.ID, 1, 0))
	})
	p := b.P
	obj, _, err := codegen.Compile(p, m, codegen.Options{Mode: codegen.ModePipelined})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Program(p, obj, m); err != nil {
		t.Fatalf("good schedule rejected: %v", err)
	}
	// Redirect one load one element over: every value it can read is
	// bit-identical, so only provenance can catch it.
	mut := verify.CloneProgram(obj)
	done := false
	for pc := range mut.Instrs {
		if done {
			break
		}
		for oi := range mut.Instrs[pc].Ops {
			o := &mut.Instrs[pc].Ops[oi]
			if o.Class == machine.ClassLoad && o.Array == "a" {
				o.Disp++ // shift to the next (equal-valued) element
				done = true
				break
			}
		}
	}
	if !done {
		t.Fatal("no load of array a found")
	}
	err = verify.Program(p, mut, m)
	if err == nil {
		t.Fatal("verifier accepted a stale load hidden by equal values")
	}
	// The diagnosis names both provenances, array names included.
	const want = "verify: o[0] provenance mismatch:\n" +
		"  object:    fadd(init(a[1]), init(a[1]))\n" +
		"  reference: fadd(init(a[0]), init(a[0]))"
	if err.Error() != want {
		t.Errorf("caught as:\n%v\nwant:\n%s", err, want)
	}
}
