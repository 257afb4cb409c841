package lang

import (
	"fmt"
	"math"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// Compile parses, checks and lowers a W2-like source program to IR.
// Array contents are zero-initialized; callers preset inputs through the
// returned program's Arrays (by name) before running.  All scalar
// variables are registered as observable results.
func Compile(src string) (*ir.Program, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Lower(ast)
}

// symbol describes one declared name.
type symbol struct {
	decl *VarDecl
	reg  ir.VReg // scalars
	isC  bool    // named constant
	c    *ConstDecl
}

// loopFrame tracks one active loop during lowering, for affine analysis.
type loopFrame struct {
	stmt     *ForStmt
	ctx      *ir.LoopCtx
	varReg   ir.VReg // the source-level loop variable
	dir      int64   // +1 for to, -1 for downto
	loReg    ir.VReg // register holding the (possibly runtime) lower bound
	loConst  int64   // compile-time initial value of the loop variable
	loKnown  bool
	assigned map[string]bool // scalars assigned anywhere in the body
	stored   map[string]bool // arrays stored anywhere in the body

	// hoistCache holds loads hoisted to this loop's preheader
	// (loop-invariant address, array not stored in the body).
	hoistCache map[loadKey]ir.VReg

	// Address caches, valid for this loop instance: references with the
	// same array, stride pattern and access direction share a single
	// strength-reduced pointer (constant offsets become displacements),
	// and term sums computed in the preheader are reused.
	ptrCache map[string]pointer
	sumCache map[string]ir.VReg
}

type lowerer struct {
	ast *ProgramAST
	b   *ir.Builder

	syms  map[string]*symbol
	loops []*loopFrame

	// constant pools hoisted to program entry
	fconsts map[float64]ir.VReg
	iconsts map[int64]ir.VReg
	hoisted []*ir.Op

	// ifDepth tracks conditional nesting during lowering; loads are
	// never hoisted from inside a conditional (they could trap on a
	// path the guard excludes).
	ifDepth int

	// loadCache provides common-subexpression elimination for array
	// loads: identical (pointer, displacement) references reuse one
	// load until a store to the same array kills the entry.  Entries
	// created inside conditional arms are discarded at the join.
	loadCache map[loadKey]ir.VReg
	// storeLog records the arrays stored so far, for conditional-arm
	// invalidation.
	storeLog []string
}

type loadKey struct {
	arr  string
	addr ir.VReg
	disp int64
}

// Lower converts a parsed program to IR.
func Lower(ast *ProgramAST) (*ir.Program, error) {
	lo := &lowerer{
		ast:       ast,
		b:         ir.NewBuilder(ast.Name),
		syms:      map[string]*symbol{},
		fconsts:   map[float64]ir.VReg{},
		iconsts:   map[int64]ir.VReg{},
		loadCache: map[loadKey]ir.VReg{},
	}
	if err := lo.declare(); err != nil {
		return nil, err
	}
	if err := lo.stmts(ast.Body); err != nil {
		return nil, err
	}
	// Hoisted constants execute once, before everything else.
	prog := lo.b.P
	pre := make([]ir.Stmt, 0, len(lo.hoisted))
	for _, op := range lo.hoisted {
		pre = append(pre, &ir.OpStmt{Op: op})
	}
	prog.Body.Stmts = append(pre, prog.Body.Stmts...)
	return prog, nil
}

func (lo *lowerer) errf(line int, format string, args ...any) error {
	return fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
}

func (lo *lowerer) declare() error {
	for _, c := range lo.ast.Consts {
		if lo.syms[c.Name] != nil {
			return lo.errf(c.Line, "duplicate declaration of %q", c.Name)
		}
		lo.syms[c.Name] = &symbol{isC: true, c: c}
	}
	for _, v := range lo.ast.Vars {
		if lo.syms[v.Name] != nil {
			return lo.errf(v.Line, "duplicate declaration of %q", v.Name)
		}
		s := &symbol{decl: v}
		if v.Type.IsScalar() {
			kind := ir.KindInt
			if v.Type.Real {
				kind = ir.KindFloat
			}
			s.reg = lo.b.P.NewReg(kind)
			// Deterministic zero initialization.
			var init *ir.Op
			if kind == ir.KindFloat {
				init = lo.b.P.NewOp(machine.ClassFConst)
			} else {
				init = lo.b.P.NewOp(machine.ClassIConst)
			}
			init.Dst = s.reg
			lo.hoisted = append(lo.hoisted, init)
			lo.b.Result(v.Name, s.reg)
		} else {
			kind := ir.KindInt
			if v.Type.Real {
				kind = ir.KindFloat
			}
			lo.b.Array(v.Name, kind, v.Type.Elems())
		}
		lo.syms[v.Name] = s
	}
	return nil
}

// constF returns a register holding the float constant v, hoisted to
// program entry (loop-invariant by construction).
func (lo *lowerer) constF(v float64) ir.VReg {
	if r, ok := lo.fconsts[v]; ok {
		return r
	}
	r := lo.b.P.NewReg(ir.KindFloat)
	op := lo.b.P.NewOp(machine.ClassFConst)
	op.Dst = r
	op.FImm = v
	lo.hoisted = append(lo.hoisted, op)
	lo.fconsts[v] = r
	return r
}

func (lo *lowerer) constI(v int64) ir.VReg {
	if r, ok := lo.iconsts[v]; ok {
		return r
	}
	r := lo.b.P.NewReg(ir.KindInt)
	op := lo.b.P.NewOp(machine.ClassIConst)
	op.Dst = r
	op.IImm = v
	lo.hoisted = append(lo.hoisted, op)
	lo.iconsts[v] = r
	return r
}

func (lo *lowerer) stmts(ss []StmtAST) error {
	for _, s := range ss {
		if err := lo.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) stmt(s StmtAST) error {
	switch s := s.(type) {
	case *AssignStmt:
		return lo.assign(s)
	case *IfStmtAST:
		cond, ty, err := lo.expr(s.Cond)
		if err != nil {
			return err
		}
		if ty.Real {
			return lo.errf(s.Line, "if condition must be boolean/int")
		}
		// Loads cached before the conditional stay valid inside it, but
		// loads from inside an arm must not leak past the join (the arm
		// may not execute) and arm stores invalidate conservatively.
		snap := make(map[loadKey]ir.VReg, len(lo.loadCache))
		for k, v := range lo.loadCache {
			snap[k] = v
		}
		mark := len(lo.storeLog)
		var innerErr error
		lo.ifDepth++
		lo.b.If(cond, func() {
			innerErr = lo.stmts(s.Then)
		}, func() {
			if innerErr == nil {
				innerErr = lo.stmts(s.Else)
			}
		})
		lo.ifDepth--
		for _, arr := range lo.storeLog[mark:] {
			for k := range snap {
				if k.arr == arr {
					delete(snap, k)
				}
			}
		}
		lo.loadCache = snap
		return innerErr
	case *SendStmt:
		v, ty, err := lo.expr(s.Value)
		if err != nil {
			return err
		}
		if !ty.Real {
			v = lo.i2f(v)
		}
		lo.b.Send(v)
		return nil
	case *ForStmt:
		return lo.forLoop(s)
	}
	return fmt.Errorf("lang: unknown statement %T", s)
}

func (lo *lowerer) assign(s *AssignStmt) error {
	sym := lo.syms[s.Target.Name]
	if sym == nil {
		return lo.errf(s.Line, "undeclared variable %q", s.Target.Name)
	}
	if sym.isC {
		return lo.errf(s.Line, "cannot assign to constant %q", s.Target.Name)
	}
	for _, f := range lo.loops {
		if f.stmt.Var == s.Target.Name {
			return lo.errf(s.Line, "cannot assign to loop variable %q", s.Target.Name)
		}
	}
	watermark := lo.b.P.NumRegs()
	val, vty, err := lo.expr(s.Value)
	if err != nil {
		return err
	}
	if sym.decl.Type.IsScalar() {
		if len(s.Target.Index) != 0 {
			return lo.errf(s.Line, "%q is not an array", s.Target.Name)
		}
		if sym.decl.Type.Real && !vty.Real {
			val = lo.i2f(val)
		} else if !sym.decl.Type.Real && vty.Real {
			return lo.errf(s.Line, "cannot assign real to int variable %q", s.Target.Name)
		}
		// Retarget the producing operation to write the variable
		// directly when the value is a fresh temporary; a register move
		// costs a full adder latency and would double recurrence cycles
		// like q := q + z[k]*x[k] (Livermore 3).
		if val >= ir.VReg(watermark) && lo.retarget(val, sym.reg) {
			return nil
		}
		if sym.decl.Type.Real {
			lo.b.FAssign(sym.reg, val)
		} else {
			lo.b.IAssign(sym.reg, val)
		}
		return nil
	}
	// Array element store.
	addr, disp, aff, err := lo.address(s.Target, sym, true)
	if err != nil {
		return err
	}
	if sym.decl.Type.Real && !vty.Real {
		val = lo.i2f(val)
	} else if !sym.decl.Type.Real && vty.Real {
		return lo.errf(s.Line, "cannot store real into int array %q", s.Target.Name)
	}
	lo.killLoads(s.Target.Name)
	lo.b.StoreAt(s.Target.Name, addr, disp, val, aff)
	return nil
}

// killLoads drops cached loads of an array about to be stored.
func (lo *lowerer) killLoads(arr string) {
	lo.storeLog = append(lo.storeLog, arr)
	for k := range lo.loadCache {
		if k.arr == arr {
			delete(lo.loadCache, k)
		}
	}
}

func (lo *lowerer) forLoop(s *ForStmt) error {
	sym := lo.syms[s.Var]
	if sym == nil || sym.isC || !sym.decl.Type.IsScalar() || sym.decl.Type.Real {
		return lo.errf(s.Line, "loop variable %q must be a declared int scalar", s.Var)
	}
	loVal, loTy, err := lo.expr(s.Lo)
	if err != nil {
		return err
	}
	hiVal, hiTy, err := lo.expr(s.Hi)
	if err != nil {
		return err
	}
	if loTy.Real || hiTy.Real {
		return lo.errf(s.Line, "loop bounds must be int")
	}
	loConst, loKnown := constIntOf(s.Lo, lo)
	hiConst, hiKnown := constIntOf(s.Hi, lo)

	// Initialize the loop variable before the loop.
	lo.b.IAssign(sym.reg, loVal)

	dir := int64(1)
	if s.Down {
		dir = -1
	}

	emitBody := func(l *ir.LoopCtx) error {
		// A loop body must not reuse loads cached outside it (its stores
		// re-execute every iteration), nor leak its own entries out.
		lo.loadCache = map[loadKey]ir.VReg{}
		frame := &loopFrame{
			stmt:     s,
			ctx:      l,
			varReg:   sym.reg,
			dir:      dir,
			loReg:    loVal,
			loConst:  loConst,
			loKnown:  loKnown,
			assigned: assignedScalars(s.Body),
			stored:   storedArrays(s.Body),
		}
		lo.loops = append(lo.loops, frame)
		err := lo.stmts(s.Body)
		lo.loops = lo.loops[:len(lo.loops)-1]
		lo.loadCache = map[loadKey]ir.VReg{}
		if err != nil {
			return err
		}
		// i := i ± 1 at the end of each iteration.
		inc := lo.b.P.NewOp(machine.ClassIAdd)
		inc.Dst = sym.reg
		inc.Src = []ir.VReg{sym.reg, lo.constI(dir)}
		l.DeferOp(inc)
		return nil
	}

	var bodyErr error
	if loKnown && hiKnown {
		count := hiConst - loConst + 1
		if s.Down {
			count = loConst - hiConst + 1
		}
		if count <= 0 {
			return nil
		}
		loop := lo.b.ForN(count, func(l *ir.LoopCtx) { bodyErr = emitBody(l) })
		loop.NoPipeline = s.NoPipeline
		loop.Independent = s.Independent
		loop.ForceUnroll = s.Unroll
		return bodyErr
	}
	// Runtime count = hi-lo+1 (or lo-hi+1 for downto), clamped by the
	// backend's zero guard.
	var count ir.VReg
	if s.Down {
		count = lo.b.ISub(loVal, hiVal)
	} else {
		count = lo.b.ISub(hiVal, loVal)
	}
	count = lo.b.IAdd(count, lo.constI(1))
	loop := lo.b.ForReg(count, func(l *ir.LoopCtx) { bodyErr = emitBody(l) })
	loop.NoPipeline = s.NoPipeline
	loop.Independent = s.Independent
	loop.ForceUnroll = s.Unroll
	return bodyErr
}

// retarget rewrites the most recent op in the current block writing the
// fresh temporary `from` so that it writes `to` instead; it reports
// whether the rewrite happened.  Safe because fresh temporaries have a
// single definition and no later readers at this point, and loads cached
// for CSE are never retargeted.
func (lo *lowerer) retarget(from, to ir.VReg) bool {
	blk := lo.b.CurrentBlock()
	for i := len(blk.Stmts) - 1; i >= 0; i-- {
		op, ok := blk.Stmts[i].(*ir.OpStmt)
		if !ok {
			return false
		}
		if op.Op.Dst == from {
			if op.Op.Class == machine.ClassLoad {
				// The loaded value may live in the CSE cache under its
				// own register; keep the move instead of aliasing.
				return false
			}
			op.Op.Dst = to
			return true
		}
		// Scan past unrelated ops emitted after the producer (pointer
		// increments are deferred, so in practice the producer is last).
		for _, s := range op.Op.Src {
			if s == from {
				return false
			}
		}
	}
	return false
}

// constIntOf evaluates compile-time integer expressions (literals, named
// constants, and arithmetic over them).
func constIntOf(e ExprAST, lo *lowerer) (int64, bool) {
	switch e := e.(type) {
	case *IntLit:
		return e.Val, true
	case *VarRef:
		if s := lo.syms[e.Name]; s != nil && s.isC && !s.c.Real && len(e.Index) == 0 {
			return s.c.IVal, true
		}
	case *UnExpr:
		if e.Op == "-" {
			if v, ok := constIntOf(e.X, lo); ok {
				return -v, true
			}
		}
	case *BinExpr:
		l, okL := constIntOf(e.L, lo)
		r, okR := constIntOf(e.R, lo)
		if okL && okR {
			switch e.Op {
			case "+":
				return l + r, true
			case "-":
				return l - r, true
			case "*":
				return l * r, true
			}
		}
	}
	return 0, false
}

// storedArrays collects arrays stored anywhere in a statement list.
func storedArrays(ss []StmtAST) map[string]bool {
	out := map[string]bool{}
	var walk func(ss []StmtAST)
	walk = func(ss []StmtAST) {
		for _, s := range ss {
			switch s := s.(type) {
			case *AssignStmt:
				if len(s.Target.Index) > 0 {
					out[s.Target.Name] = true
				}
			case *IfStmtAST:
				walk(s.Then)
				walk(s.Else)
			case *ForStmt:
				walk(s.Body)
			}
		}
	}
	walk(ss)
	return out
}

// assignedScalars collects scalar names assigned anywhere in a statement
// list (including nested loop variables), for invariance analysis.
func assignedScalars(ss []StmtAST) map[string]bool {
	out := map[string]bool{}
	var walk func(ss []StmtAST)
	walk = func(ss []StmtAST) {
		for _, s := range ss {
			switch s := s.(type) {
			case *AssignStmt:
				if len(s.Target.Index) == 0 {
					out[s.Target.Name] = true
				}
			case *IfStmtAST:
				walk(s.Then)
				walk(s.Else)
			case *ForStmt:
				out[s.Var] = true
				walk(s.Body)
			}
		}
	}
	walk(ss)
	return out
}

func (lo *lowerer) i2f(r ir.VReg) ir.VReg { return lo.b.Op(machine.ClassI2F, r) }

// --- affine index analysis -------------------------------------------

// affForm is the symbolic decomposition of an integer index expression:
// Const + Σ LoopCoef[frame]·var(frame) + Σ Inv[reg]·reg.
type affForm struct {
	c    int64
	loop map[*loopFrame]int64
	inv  map[ir.VReg]int64
}

func (a *affForm) scale(k int64) {
	a.c *= k
	for f := range a.loop {
		a.loop[f] *= k
	}
	for r := range a.inv {
		a.inv[r] *= k
	}
}

func (a *affForm) add(b *affForm, sign int64) {
	a.c += sign * b.c
	for f, v := range b.loop {
		a.loop[f] += sign * v
	}
	for r, v := range b.inv {
		a.inv[r] += sign * v
	}
}

// affineOf decomposes e; ok=false means the expression is not affine in
// the active loop variables (the reference then gets an opaque address).
func (lo *lowerer) affineOf(e ExprAST) (*affForm, bool) {
	switch e := e.(type) {
	case *IntLit:
		return &affForm{c: e.Val, loop: map[*loopFrame]int64{}, inv: map[ir.VReg]int64{}}, true
	case *UnExpr:
		if e.Op != "-" {
			return nil, false
		}
		a, ok := lo.affineOf(e.X)
		if !ok {
			return nil, false
		}
		a.scale(-1)
		return a, true
	case *VarRef:
		if len(e.Index) != 0 {
			return nil, false
		}
		s := lo.syms[e.Name]
		if s == nil {
			return nil, false
		}
		if s.isC {
			if s.c.Real {
				return nil, false
			}
			return &affForm{c: s.c.IVal, loop: map[*loopFrame]int64{}, inv: map[ir.VReg]int64{}}, true
		}
		if !s.decl.Type.IsScalar() || s.decl.Type.Real {
			return nil, false
		}
		// A loop variable of an active loop?
		for _, f := range lo.loops {
			if f.stmt.Var == e.Name {
				return &affForm{loop: map[*loopFrame]int64{f: 1}, inv: map[ir.VReg]int64{}}, true
			}
		}
		// Loop-invariant scalar? (not assigned inside any active loop)
		for _, f := range lo.loops {
			if f.assigned[e.Name] {
				return nil, false
			}
		}
		return &affForm{loop: map[*loopFrame]int64{}, inv: map[ir.VReg]int64{s.reg: 1}}, true
	case *BinExpr:
		switch e.Op {
		case "+", "-":
			l, ok := lo.affineOf(e.L)
			if !ok {
				return nil, false
			}
			r, ok := lo.affineOf(e.R)
			if !ok {
				return nil, false
			}
			sign := int64(1)
			if e.Op == "-" {
				sign = -1
			}
			l.add(r, sign)
			return l, true
		case "*":
			l, okL := lo.affineOf(e.L)
			r, okR := lo.affineOf(e.R)
			if !okL || !okR {
				return nil, false
			}
			if isConstForm(l) {
				r.scale(l.c)
				return r, true
			}
			if isConstForm(r) {
				l.scale(r.c)
				return l, true
			}
			return nil, false
		}
	}
	return nil, false
}

func isConstForm(a *affForm) bool {
	for _, v := range a.loop {
		if v != 0 {
			return false
		}
	}
	for _, v := range a.inv {
		if v != 0 {
			return false
		}
	}
	return true
}

// address lowers an array reference to (address register, displacement,
// annotation).  Affine references inside loops share strength-reduced
// pointers: one per (array, stride pattern, load/store), initialized in
// the loop preheader and stepped by the innermost coefficient each
// iteration; the reference's constant part becomes the instruction's
// displacement (Warp-style addressing).
func (lo *lowerer) address(v *VarRef, sym *symbol, isStore bool) (ir.VReg, int64, *ir.Affine, error) {
	dims := sym.decl.Type.Dims
	if len(v.Index) != len(dims) {
		return ir.NoReg, 0, nil, lo.errf(v.Line, "%q needs %d subscripts, got %d", v.Name, len(dims), len(v.Index))
	}
	// Flattened index expression: idx0*dim1 + idx1 (row major).
	flat := v.Index[0]
	if len(dims) == 2 {
		flat = &BinExpr{
			Op: "+",
			L:  &BinExpr{Op: "*", L: v.Index[0], R: &IntLit{Val: int64(dims[1])}},
			R:  v.Index[1],
		}
	}
	for _, ix := range v.Index {
		ty, err := lo.typeOf(ix)
		if err != nil {
			return ir.NoReg, 0, nil, err
		}
		if ty.Real {
			return ir.NoReg, 0, nil, lo.errf(v.Line, "subscripts must be int")
		}
	}

	form, affineOK := lo.affineOf(flat)
	inLoop := len(lo.loops) > 0
	if !affineOK || !inLoop {
		// Opaque: compute the address directly.
		addr, _, err := lo.expr(flat)
		if err != nil {
			return ir.NoReg, 0, nil, err
		}
		var aff *ir.Affine
		if affineOK && !inLoop {
			aff = lo.annotate(form)
		}
		return addr, 0, aff, nil
	}

	inner := lo.loops[len(lo.loops)-1]
	step := form.loop[inner] * inner.dir

	// One pointer per (array, stride pattern, direction); the constant
	// part of the reference becomes the displacement.
	key := v.Name + "|" + formKey(form, isStore)
	if inner.ptrCache == nil {
		inner.ptrCache = map[string]pointer{}
	}
	if ptr, ok := inner.ptrCache[key]; ok {
		return ptr.reg, form.c + ptr.shift, lo.annotate(form), nil
	}
	initReg, shift, err := lo.pointerStart(form, inner)
	if err != nil {
		return ir.NoReg, 0, nil, err
	}
	ptr := pointer{inner.ctx.PointerFrom(initReg, step), shift}
	inner.ptrCache[key] = ptr
	return ptr.reg, form.c + ptr.shift, lo.annotate(form), nil
}

// pointer is a strength-reduced address register and what every
// reference through it adds to its displacement.
type pointer struct {
	reg   ir.VReg
	shift int64
}

// pointerStart returns the register a loop's pointer starts from and the
// shift its references' displacements take.  When the loop starts at a
// compile-time constant, the loop variable's term is that constant times
// its coefficient: it moves into the displacements, and the pointer's
// start no longer reads the variable, whose `v := lo` the enclosing code
// must otherwise finish first (an outer body may never rotate it: v is a
// program variable).  That is done only where other terms remain; with
// none, the start would be a constant of its own, a hoisted operation on
// the serial integer unit.
func (lo *lowerer) pointerStart(form *affForm, frame *loopFrame) (ir.VReg, int64, error) {
	rest := &affForm{loop: map[*loopFrame]int64{}, inv: form.inv}
	for f, c := range form.loop {
		if f != frame {
			rest.loop[f] = c
		}
	}
	coef := form.loop[frame]
	if coef == 0 || !frame.loKnown || len(formTerms(rest)) == 0 {
		r, err := lo.evalTerms(form, frame)
		return r, 0, err
	}
	r, err := lo.evalTerms(rest, frame)
	return r, coef * frame.loConst, err
}

// formKey canonicalizes the non-constant part of an affine form, with
// the access direction (loads never share a pointer register with
// stores: a late store reading a load's pointer would chain the whole
// iteration behind the address update).
func formKey(form *affForm, isStore bool) string {
	terms := formTerms(form)
	key := "L"
	if isStore {
		key = "S"
	}
	for _, t := range terms {
		key += fmt.Sprintf("|r%d*%d", t.reg, t.coef)
	}
	return key
}

type termRef struct {
	reg  ir.VReg
	coef int64
}

// formTerms flattens an affine form's variable terms (loop variables and
// invariants) into a canonical sorted list.
func formTerms(form *affForm) []termRef {
	var terms []termRef
	for f, c := range form.loop {
		if c != 0 {
			terms = append(terms, termRef{reg: f.varReg, coef: c})
		}
	}
	for r, c := range form.inv {
		if c != 0 {
			terms = append(terms, termRef{reg: r, coef: c})
		}
	}
	for i := 1; i < len(terms); i++ {
		for j := i; j > 0 && terms[j].reg < terms[j-1].reg; j-- {
			terms[j], terms[j-1] = terms[j-1], terms[j]
		}
	}
	return terms
}

// evalTerms emits (in the loop preheader) the sum of the form's variable
// terms, reusing previously computed sums for identical term lists.
func (lo *lowerer) evalTerms(form *affForm, frame *loopFrame) (ir.VReg, error) {
	terms := formTerms(form)
	key := ""
	for _, t := range terms {
		key += fmt.Sprintf("r%d*%d|", t.reg, t.coef)
	}
	if frame.sumCache == nil {
		frame.sumCache = map[string]ir.VReg{}
	}
	if r, ok := frame.sumCache[key]; ok {
		return r, nil
	}
	var out ir.VReg = ir.NoReg
	lo.b.InPreheader(frame.ctx, func() {
		acc := ir.NoReg
		for _, t := range terms {
			v := t.reg
			if t.coef != 1 {
				v = lo.b.IMul(t.reg, lo.constI(t.coef))
			}
			if acc == ir.NoReg {
				acc = v
			} else {
				acc = lo.b.IAdd(acc, v)
			}
		}
		if acc == ir.NoReg {
			acc = lo.constI(0)
		}
		out = acc
	})
	frame.sumCache[key] = out
	return out, nil
}

// annotate converts an affine form to the IR annotation over normalized
// loop counters: coefficient · direction per loop, with the loop-start
// contribution folded into Const (compile-time bound) or Inv (runtime).
func (lo *lowerer) annotate(form *affForm) *ir.Affine {
	aff := &ir.Affine{Const: form.c, Coef: map[int]int64{}, Inv: map[ir.VReg]int64{}}
	for r, v := range form.inv {
		if v != 0 {
			aff.Inv[r] = v
		}
	}
	for f, coef := range form.loop {
		if coef == 0 {
			continue
		}
		aff.Coef[f.ctx.ID] = coef * f.dir
		if f.loKnown {
			aff.Const += coef * f.loConst
		} else {
			aff.Inv[f.loReg] += coef
		}
	}
	return aff
}

// --- expression lowering ----------------------------------------------

func (lo *lowerer) typeOf(e ExprAST) (Type, error) {
	switch e := e.(type) {
	case *IntLit:
		return Type{}, nil
	case *RealLit:
		return Type{Real: true}, nil
	case *VarRef:
		s := lo.syms[e.Name]
		if s == nil {
			return Type{}, lo.errf(e.Line, "undeclared variable %q", e.Name)
		}
		if s.isC {
			return Type{Real: s.c.Real}, nil
		}
		if len(e.Index) > 0 {
			return Type{Real: s.decl.Type.Real}, nil
		}
		return Type{Real: s.decl.Type.Real && s.decl.Type.IsScalar()}, nil
	case *UnExpr:
		return lo.typeOf(e.X)
	case *BinExpr:
		switch e.Op {
		case "=", "<>", "<", "<=", ">", ">=", "and", "or":
			return Type{}, nil
		}
		l, err := lo.typeOf(e.L)
		if err != nil {
			return Type{}, err
		}
		r, err := lo.typeOf(e.R)
		if err != nil {
			return Type{}, err
		}
		if e.Op == "/" {
			return Type{Real: true}, nil
		}
		return Type{Real: l.Real || r.Real}, nil
	case *CallExpr:
		switch e.Name {
		case "trunc":
			return Type{}, nil
		case "float", "sqrt", "inverse", "exp", "receive":
			return Type{Real: true}, nil
		case "abs", "min", "max":
			return lo.typeOf(e.Args[0])
		}
	}
	return Type{}, fmt.Errorf("lang: cannot type %T", e)
}

// expr lowers an expression, returning the value register and its type.
func (lo *lowerer) expr(e ExprAST) (ir.VReg, Type, error) {
	switch e := e.(type) {
	case *IntLit:
		return lo.constI(e.Val), Type{}, nil
	case *RealLit:
		return lo.constF(e.Val), Type{Real: true}, nil
	case *VarRef:
		return lo.varValue(e)
	case *UnExpr:
		x, ty, err := lo.expr(e.X)
		if err != nil {
			return ir.NoReg, Type{}, err
		}
		switch e.Op {
		case "-":
			if ty.Real {
				return lo.b.FNeg(x), ty, nil
			}
			return lo.b.ISub(lo.constI(0), x), ty, nil
		case "not":
			if ty.Real {
				return ir.NoReg, Type{}, lo.errf(e.Line, "'not' needs an int operand")
			}
			return lo.b.ICmp(ir.PredEQ, x, lo.constI(0)), Type{}, nil
		}
		return ir.NoReg, Type{}, lo.errf(e.Line, "unknown unary %q", e.Op)
	case *BinExpr:
		return lo.binary(e)
	case *CallExpr:
		return lo.call(e)
	}
	return ir.NoReg, Type{}, fmt.Errorf("lang: cannot lower %T", e)
}

func (lo *lowerer) varValue(e *VarRef) (ir.VReg, Type, error) {
	s := lo.syms[e.Name]
	if s == nil {
		return ir.NoReg, Type{}, lo.errf(e.Line, "undeclared variable %q", e.Name)
	}
	if s.isC {
		if len(e.Index) != 0 {
			return ir.NoReg, Type{}, lo.errf(e.Line, "constant %q is not an array", e.Name)
		}
		if s.c.Real {
			return lo.constF(s.c.FVal), Type{Real: true}, nil
		}
		return lo.constI(s.c.IVal), Type{}, nil
	}
	if s.decl.Type.IsScalar() {
		if len(e.Index) != 0 {
			return ir.NoReg, Type{}, lo.errf(e.Line, "%q is not an array", e.Name)
		}
		return s.reg, Type{Real: s.decl.Type.Real}, nil
	}
	if len(e.Index) == 0 {
		return ir.NoReg, Type{}, lo.errf(e.Line, "array %q used without subscripts", e.Name)
	}
	// Loop-invariant load hoisting: an address that does not vary with
	// the innermost loop, from an array the body never stores, loads
	// once in the preheader (the Warp compiler relied on this to keep
	// invariant operands in registers; kernel 21's hand-hoisted
	// `c := cx[i][k]` becomes automatic).
	if len(lo.loops) > 0 && lo.ifDepth == 0 {
		inner := lo.loops[len(lo.loops)-1]
		if hoisted, ok, err := lo.tryHoistLoad(e, s, inner); err != nil {
			return ir.NoReg, Type{}, err
		} else if ok {
			return hoisted, Type{Real: s.decl.Type.Real}, nil
		}
	}
	addr, disp, aff, err := lo.address(e, s, false)
	if err != nil {
		return ir.NoReg, Type{}, err
	}
	key := loadKey{arr: e.Name, addr: addr, disp: disp}
	if v, ok := lo.loadCache[key]; ok {
		return v, Type{Real: s.decl.Type.Real}, nil
	}
	v := lo.b.LoadAt(e.Name, addr, disp, aff)
	lo.loadCache[key] = v
	return v, Type{Real: s.decl.Type.Real}, nil
}

// tryHoistLoad loads an inner-loop-invariant array reference in the
// innermost loop's preheader; ok=false means the reference is not
// hoistable.
func (lo *lowerer) tryHoistLoad(e *VarRef, s *symbol, inner *loopFrame) (ir.VReg, bool, error) {
	if inner.stored[e.Name] {
		return ir.NoReg, false, nil
	}
	dims := s.decl.Type.Dims
	if len(e.Index) != len(dims) {
		return ir.NoReg, false, nil // let address() report the error
	}
	flat := e.Index[0]
	if len(dims) == 2 {
		flat = &BinExpr{
			Op: "+",
			L:  &BinExpr{Op: "*", L: e.Index[0], R: &IntLit{Val: int64(dims[1])}},
			R:  e.Index[1],
		}
	}
	form, affineOK := lo.affineOf(flat)
	if !affineOK || form.loop[inner] != 0 {
		return ir.NoReg, false, nil
	}
	addr, err := lo.evalTerms(form, inner)
	if err != nil {
		return ir.NoReg, false, err
	}
	key := loadKey{arr: e.Name, addr: addr, disp: form.c}
	if inner.hoistCache == nil {
		inner.hoistCache = map[loadKey]ir.VReg{}
	}
	if v, ok := inner.hoistCache[key]; ok {
		return v, true, nil
	}
	var v ir.VReg
	lo.b.InPreheader(inner.ctx, func() {
		v = lo.b.LoadAt(e.Name, addr, form.c, lo.annotate(form))
	})
	inner.hoistCache[key] = v
	return v, true, nil
}

func (lo *lowerer) binary(e *BinExpr) (ir.VReg, Type, error) {
	l, lt, err := lo.expr(e.L)
	if err != nil {
		return ir.NoReg, Type{}, err
	}
	r, rt, err := lo.expr(e.R)
	if err != nil {
		return ir.NoReg, Type{}, err
	}
	switch e.Op {
	case "and":
		return lo.b.IMul(l, r), Type{}, nil
	case "or":
		sum := lo.b.IAdd(l, r)
		return lo.b.ICmp(ir.PredNE, sum, lo.constI(0)), Type{}, nil
	}
	if e.Op == "/" && !lt.Real && !rt.Real {
		return ir.NoReg, Type{}, lo.errf(e.Line, "integer division is not supported")
	}
	// Promote for mixed arithmetic/relations; '/' is always real.
	real := lt.Real || rt.Real || e.Op == "/"
	if real {
		if !lt.Real {
			l = lo.i2f(l)
		}
		if !rt.Real {
			r = lo.i2f(r)
		}
	}
	pred, isRel := map[string]ir.Pred{
		"=": ir.PredEQ, "<>": ir.PredNE, "<": ir.PredLT,
		"<=": ir.PredLE, ">": ir.PredGT, ">=": ir.PredGE,
	}[e.Op]
	if isRel {
		if real {
			return lo.b.FCmp(pred, l, r), Type{}, nil
		}
		return lo.b.ICmp(pred, l, r), Type{}, nil
	}
	switch e.Op {
	case "+":
		if real {
			return lo.b.FAdd(l, r), Type{Real: true}, nil
		}
		return lo.b.IAdd(l, r), Type{}, nil
	case "-":
		if real {
			return lo.b.FSub(l, r), Type{Real: true}, nil
		}
		return lo.b.ISub(l, r), Type{}, nil
	case "*":
		if real {
			return lo.b.FMul(l, r), Type{Real: true}, nil
		}
		return lo.b.IMul(l, r), Type{}, nil
	case "/":
		inv := lo.inverse(r)
		return lo.b.FMul(l, inv), Type{Real: true}, nil
	}
	return ir.NoReg, Type{}, lo.errf(e.Line, "unknown operator %q", e.Op)
}

func (lo *lowerer) call(e *CallExpr) (ir.VReg, Type, error) {
	args := make([]ir.VReg, len(e.Args))
	types := make([]Type, len(e.Args))
	for i, a := range e.Args {
		r, ty, err := lo.expr(a)
		if err != nil {
			return ir.NoReg, Type{}, err
		}
		args[i], types[i] = r, ty
	}
	needReal := func(i int) ir.VReg {
		if types[i].Real {
			return args[i]
		}
		return lo.i2f(args[i])
	}
	switch e.Name {
	case "receive":
		return lo.b.Recv(), Type{Real: true}, nil
	case "float":
		if types[0].Real {
			return args[0], Type{Real: true}, nil
		}
		return lo.i2f(args[0]), Type{Real: true}, nil
	case "trunc":
		if !types[0].Real {
			return args[0], Type{}, nil
		}
		return lo.b.Op(machine.ClassF2I, args[0]), Type{}, nil
	case "inverse":
		return lo.inverse(needReal(0)), Type{Real: true}, nil
	case "sqrt":
		return lo.sqrt(needReal(0)), Type{Real: true}, nil
	case "exp":
		return lo.exp(needReal(0)), Type{Real: true}, nil
	case "abs":
		if types[0].Real {
			neg := lo.b.FNeg(args[0])
			cond := lo.b.FCmp(ir.PredLT, args[0], lo.constF(0))
			return lo.b.Select(cond, neg, args[0]), Type{Real: true}, nil
		}
		neg := lo.b.ISub(lo.constI(0), args[0])
		cond := lo.b.ICmp(ir.PredLT, args[0], lo.constI(0))
		return lo.b.Select(cond, neg, args[0]), Type{}, nil
	case "min", "max":
		pred := ir.PredLT
		if e.Name == "max" {
			pred = ir.PredGT
		}
		if types[0].Real || types[1].Real {
			a, b := needReal(0), needReal(1)
			cond := lo.b.FCmp(pred, a, b)
			return lo.b.Select(cond, a, b), Type{Real: true}, nil
		}
		cond := lo.b.ICmp(pred, args[0], args[1])
		return lo.b.Select(cond, args[0], args[1]), Type{}, nil
	}
	return ir.NoReg, Type{}, lo.errf(e.Line, "unknown intrinsic %q", e.Name)
}

// inverse expands 1/x as a reciprocal seed plus two Newton steps
// (x·(2−y·x)), the 7-operation INVERSE expansion of Lam §4.2.
func (lo *lowerer) inverse(y ir.VReg) ir.VReg {
	two := lo.constF(2)
	x := lo.b.Op(machine.ClassFRecipSeed, y)
	for i := 0; i < 2; i++ {
		t := lo.b.FMul(y, x)
		d := lo.b.FSub(two, t)
		x = lo.b.FMul(x, d)
	}
	return x
}

// sqrt expands as a reciprocal-square-root seed, four Newton steps
// (r·(1.5−0.5·y·r²)), a final multiply, and a zero guard — 19 operations,
// matching the SQRT expansion of Lam §4.2.
func (lo *lowerer) sqrt(y ir.VReg) ir.VReg {
	half := lo.constF(0.5)
	threeHalf := lo.constF(1.5)
	r := lo.b.Op(machine.ClassFRsqrtSeed, y)
	for i := 0; i < 4; i++ {
		t := lo.b.FMul(y, r)
		t2 := lo.b.FMul(t, r)
		h := lo.b.FMul(half, t2)
		d := lo.b.FSub(threeHalf, h)
		r = lo.b.FMul(r, d)
	}
	s := lo.b.FMul(y, r)
	pos := lo.b.FCmp(ir.PredGT, y, lo.constF(0))
	return lo.b.Select(pos, s, lo.constF(0))
}

// exp expands e^x by argument reduction (x = k·ln2 + r), a degree-6
// polynomial for e^r, and conditional binary scaling by 2^±512 ... 2^±1:
// twenty data-dependent conditional statements, reproducing the EXP
// library expansion that made Livermore kernel 22 unpipelinable ("the EXP
// function expanded into a calculation containing 19 conditional
// statements", Lam §4.2).
func (lo *lowerer) exp(x ir.VReg) ir.VReg {
	invLn2 := lo.constF(1 / math.Ln2)
	ln2 := lo.constF(math.Ln2)

	t := lo.b.FMul(x, invLn2)
	k := lo.b.Op(machine.ClassF2I, t)
	// k is mutated by the scaling conditionals below; copy it.
	kvar := lo.b.P.NewReg(ir.KindInt)
	lo.b.IAssign(kvar, k)

	kf := lo.i2f(k)
	kl := lo.b.FMul(kf, ln2)
	r := lo.b.FSub(x, kl)

	// Horner polynomial: 1 + r + r²/2! + ... + r⁶/6!.
	coef := []float64{1.0 / 720, 1.0 / 120, 1.0 / 24, 1.0 / 6, 0.5, 1, 1}
	y := lo.constF(coef[0])
	for _, c := range coef[1:] {
		y = lo.b.FMul(y, r)
		y = lo.b.FAdd(y, lo.constF(c))
	}
	// Mutable accumulator for the scaling steps.
	yvar := lo.b.P.NewReg(ir.KindFloat)
	lo.b.FAssign(yvar, y)

	for p := 512; p >= 1; p /= 2 {
		up := lo.constF(math.Ldexp(1, p))
		down := lo.constF(math.Ldexp(1, -p))
		pc := lo.constI(int64(p))
		npc := lo.constI(int64(-p))
		ge := lo.b.ICmp(ir.PredGE, kvar, pc)
		lo.b.If(ge, func() {
			lo.b.FMulTo(yvar, yvar, up)
			lo.b.IAddTo(kvar, kvar, npc)
		}, nil)
		le := lo.b.ICmp(ir.PredLE, kvar, npc)
		lo.b.If(le, func() {
			lo.b.FMulTo(yvar, yvar, down)
			lo.b.IAddTo(kvar, kvar, pc)
		}, nil)
	}
	return yvar
}
