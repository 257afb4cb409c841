package ir

import (
	"fmt"
	"strings"
	"testing"

	"softpipe/internal/machine"
)

// TestValidateRejections drives Program.Validate through every rejection
// class: wrong register kinds, bad operand counts, missing memory
// annotations, malformed structured statements.
func TestValidateRejections(t *testing.T) {
	m := machine.Warp()
	cases := []struct {
		name  string
		build func(p *Program) // p starts with f0..f1 float, i0..i1 int, array "a"
		want  string
	}{
		{
			name: "fadd int source",
			build: func(p *Program) {
				o := p.NewOp(machine.ClassFAdd)
				o.Dst = 0
				o.Src = []VReg{0, 2} // r2 is int
				p.Body.Stmts = append(p.Body.Stmts, &OpStmt{Op: o})
			},
			want: "want float",
		},
		{
			name: "fadd wrong arity",
			build: func(p *Program) {
				o := p.NewOp(machine.ClassFAdd)
				o.Dst = 0
				o.Src = []VReg{0}
				p.Body.Stmts = append(p.Body.Stmts, &OpStmt{Op: o})
			},
			want: "want 2",
		},
		{
			name: "fadd dest missing",
			build: func(p *Program) {
				o := p.NewOp(machine.ClassFAdd)
				o.Src = []VReg{0, 1}
				p.Body.Stmts = append(p.Body.Stmts, &OpStmt{Op: o})
			},
			want: "bad dest register",
		},
		{
			name: "register out of range",
			build: func(p *Program) {
				o := p.NewOp(machine.ClassFMov)
				o.Dst = 0
				o.Src = []VReg{99}
				p.Body.Stmts = append(p.Body.Stmts, &OpStmt{Op: o})
			},
			want: "bad source 0 register r99 out of range",
		},
		{
			name: "load without mem annotation",
			build: func(p *Program) {
				o := p.NewOp(machine.ClassLoad)
				o.Dst = 0
				o.Src = []VReg{2}
				p.Body.Stmts = append(p.Body.Stmts, &OpStmt{Op: o})
			},
			want: "without valid memory annotation",
		},
		{
			name: "load from unknown array",
			build: func(p *Program) {
				o := p.NewOp(machine.ClassLoad)
				o.Dst = 0
				o.Src = []VReg{2}
				o.Mem = &MemRef{Array: "nope"}
				p.Body.Stmts = append(p.Body.Stmts, &OpStmt{Op: o})
			},
			want: "without valid memory annotation",
		},
		{
			name: "load float address",
			build: func(p *Program) {
				o := p.NewOp(machine.ClassLoad)
				o.Dst = 0
				o.Src = []VReg{1} // float reg as address
				o.Mem = &MemRef{Array: "a"}
				p.Body.Stmts = append(p.Body.Stmts, &OpStmt{Op: o})
			},
			want: "bad source 0 register r1 is float, want int",
		},
		{
			name: "store with destination",
			build: func(p *Program) {
				o := p.NewOp(machine.ClassStore)
				o.Dst = 0
				o.Src = []VReg{2, 0}
				o.Mem = &MemRef{Array: "a"}
				p.Body.Stmts = append(p.Body.Stmts, &OpStmt{Op: o})
			},
			want: "store with destination",
		},
		{
			name: "store int value into float array",
			build: func(p *Program) {
				o := p.NewOp(machine.ClassStore)
				o.Dst = NoReg
				o.Src = []VReg{2, 3} // value r3 is int, array is float
				o.Mem = &MemRef{Array: "a"}
				p.Body.Stmts = append(p.Body.Stmts, &OpStmt{Op: o})
			},
			want: "want float",
		},
		{
			name: "send with destination",
			build: func(p *Program) {
				o := p.NewOp(machine.ClassSend)
				o.Dst = 0
				o.Src = []VReg{0}
				p.Body.Stmts = append(p.Body.Stmts, &OpStmt{Op: o})
			},
			want: "send with destination",
		},
		{
			name: "iselect mixed operand kinds",
			build: func(p *Program) {
				o := p.NewOp(machine.ClassISelect)
				o.Dst = 0               // float dest
				o.Src = []VReg{2, 0, 3} // r3 int, dest float
				p.Body.Stmts = append(p.Body.Stmts, &OpStmt{Op: o})
			},
			want: "want float",
		},
		{
			name: "if condition is float",
			build: func(p *Program) {
				p.Body.Stmts = append(p.Body.Stmts, &IfStmt{Cond: 0, Then: &Block{}, Else: &Block{}})
			},
			want: "bad condition register",
		},
		{
			name: "if nil arm",
			build: func(p *Program) {
				p.Body.Stmts = append(p.Body.Stmts, &IfStmt{Cond: 2, Then: &Block{}})
			},
			want: "nil branch block",
		},
		{
			name: "loop float count register",
			build: func(p *Program) {
				p.Body.Stmts = append(p.Body.Stmts, &LoopStmt{CountReg: 0, Body: &Block{}})
			},
			want: "bad count register r0 is float, want int",
		},
		{
			name: "loop nil body",
			build: func(p *Program) {
				p.Body.Stmts = append(p.Body.Stmts, &LoopStmt{CountReg: NoReg, CountImm: 3})
			},
			want: "nil body",
		},
		{
			name: "bad op inside loop inside if",
			build: func(p *Program) {
				o := p.NewOp(machine.ClassIAdd)
				o.Dst = 2
				o.Src = []VReg{2, 0} // float source
				inner := &LoopStmt{CountReg: NoReg, CountImm: 2,
					Body: &Block{Stmts: []Stmt{&OpStmt{Op: o}}}}
				p.Body.Stmts = append(p.Body.Stmts,
					&IfStmt{Cond: 2, Then: &Block{Stmts: []Stmt{inner}}, Else: &Block{}})
			},
			want: "want int",
		},
		{
			name: "object-only class rejected in IR",
			build: func(p *Program) {
				o := p.NewOp(machine.ClassIAnd)
				o.Dst = 2
				o.Src = []VReg{2}
				p.Body.Stmts = append(p.Body.Stmts, &OpStmt{Op: o})
			},
			want: "not valid in IR bodies",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProgram("v")
			p.NewReg(KindFloat) // r0
			p.NewReg(KindFloat) // r1
			p.NewReg(KindInt)   // r2
			p.NewReg(KindInt)   // r3
			p.AddArray("a", KindFloat, 8)
			tc.build(p)
			err := p.Validate(m)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestValidateAccepts: a program touching every op family must pass.
func TestValidateAccepts(t *testing.T) {
	b := NewBuilder("ok")
	b.Array("a", KindFloat, 8)
	b.Array("n", KindInt, 8)
	f := b.FConst(2)
	i := b.IConst(3)
	b.ForN(4, func(l *LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, Aff(l.ID, 1, 0))
		w := b.FAdd(b.FMul(v, f), b.FNeg(v))
		c := b.FCmp(PredGT, w, f)
		s := b.Select(c, w, v)
		b.Store("a", p, s, Aff(l.ID, 1, 0))
		k := b.Load("n", p, Aff(l.ID, 1, 0))
		b.Store("n", p, b.IAdd(k, i), Aff(l.ID, 1, 0))
		b.Send(b.Recv())
	})
	if err := b.P.Validate(machine.Warp()); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

// TestValidateEveryClassFromTable generates, for every class the table
// admits to IR (and each array kind and select kind it can take), the one
// well-formed op its row describes — which must validate — and then every
// single-operand corruption of it, each of which must not: an operand
// moved to the other file, set to NoReg, −2 or NumRegs, a source dropped
// or added, the memory annotation removed or one attached where none
// belongs.  Classes the table keeps out of IR are rejected even when well
// formed.
func TestValidateEveryClassFromTable(t *testing.T) {
	m := machine.Warp()
	// Registers 0-3 are float, 4-7 int; reg(k, n) is the n-th of kind k.
	reg := func(k Kind, n int) VReg {
		if k == KindFloat {
			return VReg(n)
		}
		return VReg(4 + n)
	}
	other := map[Kind]Kind{KindFloat: KindInt, KindInt: KindFloat}
	newProg := func() *Program {
		p := NewProgram("one")
		for _, k := range []Kind{KindFloat, KindInt} {
			for i := 0; i < 4; i++ {
				p.NewReg(k)
			}
		}
		p.AddArray("af", KindFloat, 4)
		p.AddArray("ai", KindInt, 4)
		return p
	}
	check := func(name string, p *Program, o *Op, wantOK bool) {
		t.Helper()
		p.Body.Stmts = []Stmt{&OpStmt{Op: o}}
		if err := p.Validate(m); (err == nil) != wantOK {
			t.Errorf("%s: %v: Validate = %v, want ok=%v", name, o, err, wantOK)
		}
	}
	for c := machine.Class(0); c < machine.Class(machine.NumClasses()); c++ {
		row := c.Info()
		for _, arrKind := range []Kind{KindFloat, KindInt} {
			for _, selKind := range []Kind{KindFloat, KindInt} {
				usesSel := row.Dst == machine.FileSelect
				if (!row.UsesArray() && arrKind == KindInt) || (!usesSel && selKind == KindInt) {
					continue // the class has one form only
				}
				kind := func(f machine.File) Kind {
					if f.Resolve(arrKind == KindFloat, selKind == KindFloat) == machine.FileFloat {
						return KindFloat
					}
					return KindInt
				}
				name := fmt.Sprintf("%v/arr=%v/sel=%v", c, arrKind, selKind)
				p := newProg()
				good := p.NewOp(c)
				if row.Dst != machine.FileNone {
					good.Dst = reg(kind(row.Dst), 0)
				}
				for k := 0; k < row.NSrc(); k++ {
					good.Src = append(good.Src, reg(kind(row.Src[k]), k+1))
				}
				if row.UsesArray() {
					good.Mem = &MemRef{Array: map[Kind]string{KindFloat: "af", KindInt: "ai"}[arrKind]}
				}
				if !row.IR {
					check(name+"/not IR", p, good, false)
					continue
				}
				check(name, p, good, true)

				// Every operand position, dst first (-1).
				for pos := -1; pos < row.NSrc(); pos++ {
					f := row.Dst
					if pos >= 0 {
						f = row.Src[pos]
					}
					bad := []VReg{NoReg, -2, VReg(p.NumRegs())}
					if f == machine.FileNone {
						bad = []VReg{0, 4, -2, VReg(p.NumRegs())} // no destination: any register is wrong
					} else {
						bad = append(bad, reg(other[kind(f)], 0))
					}
					for _, r := range bad {
						o := good.Clone()
						if pos < 0 {
							o.Dst = r
						} else {
							o.Src[pos] = r
						}
						check(fmt.Sprintf("%s/operand %d = r%d", name, pos, r), p, o, false)
					}
				}
				short, long := good.Clone(), good.Clone()
				long.Src = append(long.Src, reg(KindInt, 3))
				check(name+"/one source too many", p, long, false)
				if row.NSrc() > 0 {
					short.Src = short.Src[:row.NSrc()-1]
					check(name+"/one source too few", p, short, false)
				}
				mem := good.Clone()
				if row.UsesArray() {
					mem.Mem = nil
				} else {
					mem.Mem = &MemRef{Array: "af"}
				}
				check(name+"/memory annotation flipped", p, mem, false)
			}
		}
	}
}

// TestBuilderOpTakesKindFromTable: Builder.Op allocates the result
// register in the file the class's row names — for a select, the file of
// its arms; for a class without a destination, none — and what it emits
// validates.
func TestBuilderOpTakesKindFromTable(t *testing.T) {
	b := NewBuilder("op")
	f, i := b.FConst(1), b.IConst(1)
	for _, tc := range []struct {
		class machine.Class
		src   []VReg
		want  Kind // ignored when the class has no destination
	}{
		{machine.ClassI2F, []VReg{i}, KindFloat},
		{machine.ClassF2I, []VReg{f}, KindInt},
		{machine.ClassFRecipSeed, []VReg{f}, KindFloat},
		{machine.ClassFRsqrtSeed, []VReg{f}, KindFloat},
		{machine.ClassFCmp, []VReg{f, f}, KindInt},
		{machine.ClassAdrAdd, []VReg{i, i}, KindInt},
		{machine.ClassISelect, []VReg{i, f, f}, KindFloat},
		{machine.ClassISelect, []VReg{i, i, i}, KindInt},
		{machine.ClassRecv, nil, KindFloat},
		{machine.ClassSend, []VReg{f}, 0},
	} {
		r := b.Op(tc.class, tc.src...)
		if tc.class.Info().Dst == machine.FileNone {
			if r != NoReg {
				t.Errorf("%v: Op returned r%d for a class without a destination", tc.class, r)
			}
		} else if r == NoReg || b.P.Kind(r) != tc.want {
			t.Errorf("%v%v: result r%d, want a fresh %v register", tc.class, tc.src, r, tc.want)
		}
	}
	if err := b.P.Validate(machine.Warp()); err != nil {
		t.Fatalf("Builder.Op emitted an invalid program: %v", err)
	}
}
