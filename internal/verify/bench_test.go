package verify_test

import (
	"os"
	"testing"

	"softpipe"
	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/trace"
	"softpipe/internal/verify"
	"softpipe/internal/vliw"
	"softpipe/internal/workloads"
)

// rotMachine is a generator point with a rotating register file whose
// long latencies force deep pipelines, so its objects carry rings.
const rotMachine = "gen:fa1,fm1,mem1,lat7/7/3,fr62,rot"

// compileOn compiles p pipelined for the named machine.
func compileOn(tb testing.TB, p *ir.Program, mach string) (*vliw.Program, *machine.Machine) {
	tb.Helper()
	m, err := machine.Parse(mach)
	if err != nil {
		tb.Fatal(err)
	}
	obj, _, err := codegen.Compile(p, m, codegen.Options{Mode: codegen.ModePipelined})
	if err != nil {
		tb.Fatal(err)
	}
	return obj, m
}

func livermore(tb testing.TB, id int) *ir.Program {
	tb.Helper()
	for _, k := range workloads.Livermore() {
		if k.ID == id {
			p, err := k.Build()
			if err != nil {
				tb.Fatal(err)
			}
			return p
		}
	}
	tb.Fatalf("no Livermore kernel %d", id)
	return nil
}

// lastCount returns the last sample of a counter the run recorded.
func lastCount(tr *trace.Tracer, name string) (int64, bool) {
	evs := tr.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Ph == 'C' && evs[i].Name == name {
			return evs[i].Args[0].Val, true
		}
	}
	return 0, false
}

func saxpy(tb testing.TB) *ir.Program {
	tb.Helper()
	src, err := os.ReadFile("../../testdata/saxpy.w2")
	if err != nil {
		tb.Fatal(err)
	}
	p, err := lang.Compile(string(src))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// arrayCase is a partitioned program ready for verify.Array.
type arrayCase struct {
	src  *ir.Program
	plan verify.ArrayPlan
	objs []*vliw.Program
	ms   []*machine.Machine
}

func (a *arrayCase) verify(opts verify.Options) error {
	return verify.Array(a.src, a.plan, a.objs, a.ms, opts)
}

// saxpyArray is saxpy partitioned across cells Warp cells.
func saxpyArray(tb testing.TB, cells int) *arrayCase {
	tb.Helper()
	p := saxpy(tb)
	ao, err := softpipe.CompilePartitioned(p, softpipe.Machines(machine.Warp(), cells), softpipe.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	a := &arrayCase{src: p, plan: verify.ArrayPlan{
		Fragments:   ao.Plan.Fragments,
		ArrayOwner:  ao.Plan.ArrayOwner,
		ResultOwner: ao.Plan.ResultOwner,
	}}
	for _, c := range ao.Cells {
		a.objs = append(a.objs, c.Binary)
		a.ms = append(a.ms, c.Machine)
	}
	return a
}

// BenchmarkVerifyProgram is the verifier's host cost on four objects of
// different character — a short streaming loop, a memory-bound kernel, a
// long expression over many arrays, and a rotating-register object —
// and on saxpy cut across two cells, whose verify.Array runs every cell
// in one term store.
func BenchmarkVerifyProgram(b *testing.B) {
	saxpy := saxpy(b)
	for _, bc := range []struct {
		name string
		prog *ir.Program
		mach string
	}{
		{"saxpy/warp", saxpy, "warp"},
		{"k1-hydro/warp", livermore(b, 1), "warp"},
		{"k7-state-fragment/warp", livermore(b, 7), "warp"},
		{"k7-state-fragment/rot", livermore(b, 7), rotMachine},
	} {
		obj, m := compileOn(b, bc.prog, bc.mach)
		b.Run(bc.name, func(b *testing.B) {
			tr := trace.New("bench")
			if err := verify.ProgramOpts(bc.prog, obj, m, verify.Options{Tracer: tr}); err != nil {
				b.Fatal(err)
			}
			terms, _ := lastCount(tr, "verify.terms")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := verify.Program(bc.prog, obj, m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(terms), "terms/op")
		})
	}
	arr := saxpyArray(b, 2)
	b.Run("saxpy/array2", func(b *testing.B) {
		tr := trace.New("bench")
		if err := arr.verify(verify.Options{Tracer: tr}); err != nil {
			b.Fatal(err)
		}
		terms, _ := lastCount(tr, "verify.array.terms")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := arr.verify(verify.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(terms), "terms/op")
	})
}
