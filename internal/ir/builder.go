package ir

import (
	"fmt"
	"slices"

	"softpipe/internal/machine"
)

// Builder constructs Programs imperatively.  It is used by tests, by the
// examples, and by the synthetic workload generator; the W2 frontend in
// internal/lang lowers source programs through the same primitives.
//
// Ops are appended to the innermost open block.  ForN/If temporarily open
// nested blocks; helper emissions requested inside a loop body that belong
// in the loop preheader (pointer initialization) land in the enclosing
// block automatically because the loop statement is appended only when its
// body function returns.
type Builder struct {
	P *Program

	blocks []*Block // stack; blocks[0] is P.Body
}

// LoopCtx describes one open loop during building.
type LoopCtx struct {
	ID int

	b        *Builder
	parent   *Block // block enclosing the loop (preheader emissions)
	body     *Block
	iv       VReg
	deferred []*Op          // increments appended to the body when the loop closes
	steps    map[int64]VReg // pointer-step constants, shared per loop
}

// NewBuilder returns a builder over a fresh program.
func NewBuilder(name string) *Builder {
	p := NewProgram(name)
	return &Builder{P: p, blocks: []*Block{p.Body}}
}

func (b *Builder) cur() *Block { return b.blocks[len(b.blocks)-1] }

// CurrentBlock exposes the innermost open block (the frontend rewrites
// the last emitted op during assignment retargeting).
func (b *Builder) CurrentBlock() *Block { return b.cur() }

// Emit appends a raw op to the current block and returns it.
func (b *Builder) Emit(o *Op) *Op {
	b.cur().Stmts = append(b.cur().Stmts, &OpStmt{Op: o})
	return o
}

func (b *Builder) newOp(c machine.Class, dst VReg, src ...VReg) *Op {
	o := b.P.NewOp(c)
	o.Dst = dst
	o.Src = src
	return b.Emit(o)
}

// fresh emits class c over src into a fresh register of the kind the
// class's row gives its destination (for a select, the kind of its arms),
// or into no register when the class has no destination.
func (b *Builder) fresh(c machine.Class, src ...VReg) *Op {
	row := c.Info()
	selFloat := false
	if k := slices.Index(row.Src[:], machine.FileSelect); k >= 0 {
		selFloat = b.P.Kind(src[k]) == KindFloat
	}
	d := NoReg
	switch row.Dst.Resolve(false, selFloat) {
	case machine.FileFloat:
		d = b.P.NewReg(KindFloat)
	case machine.FileInt:
		d = b.P.NewReg(KindInt)
	}
	return b.newOp(c, d, src...)
}

// Op emits an operation of class c over src and returns the fresh
// register holding its result (NoReg for a class that has none).  It
// serves every class whose result kind the class table decides; a load's
// comes from its array, so loads go through LoadAt.
func (b *Builder) Op(c machine.Class, src ...VReg) VReg { return b.fresh(c, src...).Dst }

// FConst materializes a float constant.
func (b *Builder) FConst(v float64) VReg {
	o := b.fresh(machine.ClassFConst)
	o.FImm = v
	return o.Dst
}

// IConst materializes an int constant.
func (b *Builder) IConst(v int64) VReg {
	o := b.fresh(machine.ClassIConst)
	o.IImm = v
	return o.Dst
}

// FAdd emits dst = x + y.
func (b *Builder) FAdd(x, y VReg) VReg { return b.Op(machine.ClassFAdd, x, y) }

// FSub emits dst = x - y.
func (b *Builder) FSub(x, y VReg) VReg { return b.Op(machine.ClassFSub, x, y) }

// FMul emits dst = x * y.
func (b *Builder) FMul(x, y VReg) VReg { return b.Op(machine.ClassFMul, x, y) }

// FNeg emits dst = -x.
func (b *Builder) FNeg(x VReg) VReg { return b.Op(machine.ClassFNeg, x) }

// FMov emits dst = x (float copy into a fresh register).
func (b *Builder) FMov(x VReg) VReg { return b.Op(machine.ClassFMov, x) }

// FAssign emits dst = x into an existing register (a mutable variable).
func (b *Builder) FAssign(dst, x VReg) { b.newOp(machine.ClassFMov, dst, x) }

// IAssign emits dst = x into an existing int register.
func (b *Builder) IAssign(dst, x VReg) { b.newOp(machine.ClassIMov, dst, x) }

// FAddTo emits dst = x + y into an existing register.
func (b *Builder) FAddTo(dst, x, y VReg) { b.newOp(machine.ClassFAdd, dst, x, y) }

// FSubTo emits dst = x - y into an existing register.
func (b *Builder) FSubTo(dst, x, y VReg) { b.newOp(machine.ClassFSub, dst, x, y) }

// FMulTo emits dst = x * y into an existing register.
func (b *Builder) FMulTo(dst, x, y VReg) { b.newOp(machine.ClassFMul, dst, x, y) }

// IAdd emits dst = x + y.
func (b *Builder) IAdd(x, y VReg) VReg { return b.Op(machine.ClassIAdd, x, y) }

// ISub emits dst = x - y.
func (b *Builder) ISub(x, y VReg) VReg { return b.Op(machine.ClassISub, x, y) }

// IMul emits dst = x * y.
func (b *Builder) IMul(x, y VReg) VReg { return b.Op(machine.ClassIMul, x, y) }

// IAddTo emits dst = x + y into an existing int register.
func (b *Builder) IAddTo(dst, x, y VReg) { b.newOp(machine.ClassIAdd, dst, x, y) }

// FCmp emits an int 0/1 register = pred(x, y) over floats.
func (b *Builder) FCmp(p Pred, x, y VReg) VReg {
	o := b.fresh(machine.ClassFCmp, x, y)
	o.IImm = int64(p)
	return o.Dst
}

// ICmp emits an int 0/1 register = pred(x, y) over ints.
func (b *Builder) ICmp(p Pred, x, y VReg) VReg {
	o := b.fresh(machine.ClassICmp, x, y)
	o.IImm = int64(p)
	return o.Dst
}

// Select emits dst = cond != 0 ? x : y, with dst of the kind of x.
func (b *Builder) Select(cond, x, y VReg) VReg { return b.Op(machine.ClassISelect, cond, x, y) }

// Recv emits dst = one word dequeued from the cell's input channel.
func (b *Builder) Recv() VReg { return b.Op(machine.ClassRecv) }

// Send enqueues x on the cell's output channel.
func (b *Builder) Send(x VReg) { b.Op(machine.ClassSend, x) }

// Load emits dst = arr[addr] with an optional affine annotation.
func (b *Builder) Load(arr string, addr VReg, aff *Affine) VReg {
	return b.LoadAt(arr, addr, 0, aff)
}

// LoadAt emits dst = arr[addr + disp]: the constant displacement lets
// several references share one strength-reduced pointer.
func (b *Builder) LoadAt(arr string, addr VReg, disp int64, aff *Affine) VReg {
	a := b.P.Array(arr)
	if a == nil {
		panic(fmt.Sprintf("builder: unknown array %q", arr))
	}
	d := b.P.NewReg(a.Kind)
	o := b.newOp(machine.ClassLoad, d, addr)
	o.Mem = &MemRef{Array: arr, Disp: disp, Affine: aff}
	return d
}

// Store emits arr[addr] = val with an optional affine annotation.
func (b *Builder) Store(arr string, addr, val VReg, aff *Affine) {
	b.StoreAt(arr, addr, 0, val, aff)
}

// StoreAt emits arr[addr + disp] = val.
func (b *Builder) StoreAt(arr string, addr VReg, disp int64, val VReg, aff *Affine) {
	if b.P.Array(arr) == nil {
		panic(fmt.Sprintf("builder: unknown array %q", arr))
	}
	o := b.newOp(machine.ClassStore, NoReg, addr, val)
	o.Mem = &MemRef{Array: arr, Disp: disp, Affine: aff}
}

// Array declares an array on the program.
func (b *Builder) Array(name string, kind Kind, size int) *ArrayDecl {
	return b.P.AddArray(name, kind, size)
}

// Result registers a named observable scalar.
func (b *Builder) Result(name string, r VReg) {
	b.P.Results = append(b.P.Results, ScalarResult{Name: name, Reg: r})
}

// ForN opens a loop with a compile-time trip count and runs fn to fill its
// body.  The loop statement is appended after fn returns, so ops emitted
// into the enclosing block during fn (e.g. Pointer initialization) precede
// the loop.
func (b *Builder) ForN(n int64, fn func(l *LoopCtx)) *LoopStmt {
	return b.forCommon(NoReg, n, fn)
}

// ForReg opens a loop whose trip count is read from an int register
// (evaluated once on loop entry).
func (b *Builder) ForReg(n VReg, fn func(l *LoopCtx)) *LoopStmt {
	return b.forCommon(n, 0, fn)
}

func (b *Builder) forCommon(nreg VReg, nimm int64, fn func(l *LoopCtx)) *LoopStmt {
	loop := &LoopStmt{ID: b.P.NewLoopID(), CountReg: nreg, CountImm: nimm, Body: &Block{}}
	ctx := &LoopCtx{ID: loop.ID, b: b, parent: b.cur(), body: loop.Body, iv: NoReg}
	b.blocks = append(b.blocks, loop.Body)
	fn(ctx)
	for _, inc := range ctx.deferred {
		loop.Body.Stmts = append(loop.Body.Stmts, &OpStmt{Op: inc})
	}
	b.blocks = b.blocks[:len(b.blocks)-1]
	b.cur().Stmts = append(b.cur().Stmts, loop)
	return loop
}

// If opens a conditional; elseFn may be nil.
func (b *Builder) If(cond VReg, thenFn, elseFn func()) {
	s := &IfStmt{Cond: cond, Then: &Block{}, Else: &Block{}}
	b.blocks = append(b.blocks, s.Then)
	thenFn()
	b.blocks = b.blocks[:len(b.blocks)-1]
	if elseFn != nil {
		b.blocks = append(b.blocks, s.Else)
		elseFn()
		b.blocks = b.blocks[:len(b.blocks)-1]
	}
	b.cur().Stmts = append(b.cur().Stmts, s)
}

// IV returns the loop's 0-based iteration index register, materializing
// the counter on first use: the register is initialized to 0 in the
// preheader and incremented at the end of each iteration, so the body
// observes values 0, 1, 2, ...
func (l *LoopCtx) IV() VReg {
	if l.iv == NoReg {
		l.b.InPreheader(l, func() { l.iv = l.b.IConst(0) })
		l.step(machine.ClassIAdd, l.iv, 1)
	}
	return l.iv
}

// Pointer creates a strength-reduced address register for the loop: it is
// initialized to `init` in the preheader and incremented by `step` at the
// end of every iteration, so it holds init + step·k during iteration k.
func (l *LoopCtx) Pointer(init int64, step int64) (p VReg) {
	l.b.InPreheader(l, func() { p = l.b.IConst(init) })
	l.step(machine.ClassAdrAdd, p, step)
	return p
}

// PointerFrom is like Pointer but starts from a register value computed in
// the enclosing block (e.g. an outer-loop pointer).
func (l *LoopCtx) PointerFrom(init VReg, step int64) (p VReg) {
	l.b.InPreheader(l, func() { p = l.b.Op(machine.ClassIMov, init) })
	l.step(machine.ClassAdrAdd, p, step)
	return p
}

// step defers r = r + by (an op of class c) to the end of each iteration.
func (l *LoopCtx) step(c machine.Class, r VReg, by int64) {
	inc := l.b.P.NewOp(c)
	inc.Dst = r
	inc.Src = []VReg{r, l.stepConst(by)}
	l.deferred = append(l.deferred, inc)
}

// stepConst returns a register holding the given constant, shared among
// this loop's pointer steps and emitted once in the preheader.
func (l *LoopCtx) stepConst(v int64) VReg {
	r, ok := l.steps[v]
	if !ok {
		l.b.InPreheader(l, func() { r = l.b.IConst(v) })
		if l.steps == nil {
			l.steps = map[int64]VReg{}
		}
		l.steps[v] = r
	}
	return r
}

// InPreheader runs fn with emission redirected to the block enclosing the
// loop (its preheader position: ops emitted there land before the loop
// statement, which is appended only when the loop body function returns).
func (b *Builder) InPreheader(l *LoopCtx, fn func()) {
	b.blocks = append(b.blocks, l.parent)
	fn()
	b.blocks = b.blocks[:len(b.blocks)-1]
}

// DeferOp schedules an op to run at the very end of each loop iteration
// (after the automatically generated pointer increments emitted so far).
func (l *LoopCtx) DeferOp(o *Op) { l.deferred = append(l.deferred, o) }

// Aff is a convenience constructor for a one-loop affine annotation.
func Aff(loopID int, coef, c int64) *Affine {
	return &Affine{Const: c, Coef: map[int]int64{loopID: coef}}
}

// With adds one more loop coefficient and returns the annotation, so
// multi-loop subscripts chain: ir.Aff(i, 32, 0).With(j, 1).
func (a *Affine) With(loopID int, coef int64) *Affine {
	a.Coef[loopID] = coef
	return a
}
