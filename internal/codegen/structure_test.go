package codegen

import (
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// TestEmittedKernelGeometry checks the §2 code shape: for a loop
// pipelined at initiation interval II with unroll u and m stages, the
// emitted pipelined region has a (m-1)·II-cycle prolog, a u·II-cycle
// kernel closed by a DBNZ back to its first instruction, and an epilog.
func TestEmittedKernelGeometry(t *testing.T) {
	m := machine.Warp()
	b := ir.NewBuilder("geom")
	arr := b.Array("a", ir.KindFloat, 128)
	b.Array("c", ir.KindFloat, 128)
	for i := 0; i < 128; i++ {
		arr.InitF = append(arr.InitF, float64(i))
	}
	cst := b.FConst(1.5)
	b.ForN(100, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		q := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		b.Store("c", q, b.FMul(v, cst), ir.Aff(l.ID, 1, 0))
	})
	prog, rep, err := Compile(b.P, m, Options{Mode: ModePipelined})
	if err != nil {
		t.Fatal(err)
	}
	lr := rep.Loops[0]
	if !lr.Pipelined {
		t.Fatalf("not pipelined: %+v", lr)
	}

	// Find the kernel: the unique DBNZ whose target is earlier in the
	// stream and whose span is u·II.
	var dbnzAt, target = -1, -1
	for pc, in := range prog.Instrs {
		if in.Ctl.Kind == vliw.CtlDBNZ {
			if dbnzAt != -1 {
				t.Fatalf("more than one loop-back branch")
			}
			dbnzAt, target = pc, int(in.Ctl.Target)
		}
	}
	if dbnzAt == -1 {
		t.Fatal("no kernel DBNZ found")
	}
	kernelLen := dbnzAt - target + 1
	if kernelLen != lr.Unroll*lr.II {
		t.Errorf("kernel length %d, want unroll*II = %d", kernelLen, lr.Unroll*lr.II)
	}
	// The prolog spans (stages-1)*II instructions immediately before the
	// kernel (preceded by the counter setup).
	wantProlog := (lr.Stages - 1) * lr.II
	if target < wantProlog {
		t.Errorf("kernel starts at %d, too early for a %d-cycle prolog", target, wantProlog)
	}
	// The prolog must ramp up: its first instruction carries fewer slot
	// ops than the kernel's densest instruction.
	first := len(prog.Instrs[target-wantProlog].Ops)
	densest := 0
	for pc := target; pc <= dbnzAt; pc++ {
		if n := len(prog.Instrs[pc].Ops); n > densest {
			densest = n
		}
	}
	if first >= densest {
		t.Errorf("prolog does not ramp (first=%d densest=%d)", first, densest)
	}
	// Steady state iterates every II cycles: kernel instructions II apart
	// carry the same op classes (different register copies).
	if lr.Unroll > 1 {
		for off := 0; off < lr.II; off++ {
			a := prog.Instrs[target+off]
			b := prog.Instrs[target+off+lr.II]
			if len(a.Ops) != len(b.Ops) {
				t.Errorf("kernel rows %d and %d differ in width", off, off+lr.II)
				continue
			}
			for i := range a.Ops {
				if a.Ops[i].Class != b.Ops[i].Class {
					t.Errorf("kernel rows %d/%d differ at slot %d: %v vs %v",
						off, off+lr.II, i, a.Ops[i].Class, b.Ops[i].Class)
				}
			}
		}
	}
}

// TestCodeSizeBound checks the paper's §2.4 claim scaled to our scheme:
// the pipelined object code of a simple loop stays within a small factor
// of the unpipelined code.
func TestCodeSizeBound(t *testing.T) {
	m := machine.Warp()
	mk := func(mode Mode) int {
		b := ir.NewBuilder("size")
		b.Array("a", ir.KindFloat, 256)
		b.Array("c", ir.KindFloat, 256)
		cst := b.FConst(2)
		b.ForN(200, func(l *ir.LoopCtx) {
			p := l.Pointer(0, 1)
			q := l.Pointer(0, 1)
			v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
			w := b.FMul(v, cst)
			x := b.FAdd(w, cst)
			b.Store("c", q, x, ir.Aff(l.ID, 1, 0))
		})
		prog, _, err := Compile(b.P, m, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return len(prog.Instrs)
	}
	pipe := mk(ModePipelined)
	base := mk(ModeUnpipelined)
	if pipe > 6*base {
		t.Errorf("pipelined code %d instrs vs unpipelined %d: beyond the expected growth bound", pipe, base)
	}
}
