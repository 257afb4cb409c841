// Package ir defines the loop-structured intermediate representation the
// software pipeliner operates on, together with a reference interpreter
// that serves as the correctness oracle for all code generators.
//
// The IR is deliberately close to the model in Lam (PLDI 1988) §2.1:
// a loop body is a straight-line sequence of operations over virtual
// registers (plus nested structured constructs handled by hierarchical
// reduction), and data dependencies — not an SSA graph — drive scheduling.
// Virtual registers are mutable; the dependence analyzer in
// internal/depgraph derives flow/anti/output edges with (delay, omega)
// attributes from the imperative order.
//
// One contract follows from mutability: a register read must be
// preceded by a write on the executed path.  The interpreter
// zero-initializes registers, but compiled code shares physical
// registers between disjoint lifetimes, so a read that no write
// dominates observes an undefined value.
package ir

import (
	"fmt"
	"strings"

	"softpipe/internal/machine"
)

// VReg names a virtual register.  NoReg marks an absent operand.
type VReg int

// NoReg is the absent-register sentinel.
const NoReg VReg = -1

// Kind is the value kind held by a register or array.
type Kind int

// Register/array kinds.
const (
	KindInt Kind = iota
	KindFloat
)

// String returns "int" or "float".
func (k Kind) String() string {
	if k == KindFloat {
		return "float"
	}
	return "int"
}

// Pred is a comparison predicate, stored in Op.IImm for FCmp/ICmp.
type Pred int64

// Comparison predicates.
const (
	PredEQ Pred = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
)

var predNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

// String returns the predicate mnemonic.
func (p Pred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return fmt.Sprintf("pred(%d)", int64(p))
}

// Eval applies the predicate to an ordering sign (-1, 0, +1).
func (p Pred) Eval(sign int) bool {
	switch p {
	case PredEQ:
		return sign == 0
	case PredNE:
		return sign != 0
	case PredLT:
		return sign < 0
	case PredLE:
		return sign <= 0
	case PredGT:
		return sign > 0
	case PredGE:
		return sign >= 0
	}
	return false
}

// Affine describes a memory address as
//
//	Const + Σ Coef[loopID]·n(loopID) + Σ Inv[reg]·value(reg)
//
// in array-element units, where n(loopID) is the loop's 0-based
// normalized iteration counter and Inv holds loop-invariant symbolic
// terms (runtime loop bounds, invariant scalars).  Two references are
// comparable by the dependence test only when their Inv parts match
// exactly.  Execution uses the explicit address register instead.
type Affine struct {
	Const int64
	Coef  map[int]int64  // loop ID -> coefficient
	Inv   map[VReg]int64 // invariant register -> coefficient
}

// Clone returns a deep copy.
func (a *Affine) Clone() *Affine {
	if a == nil {
		return nil
	}
	c := &Affine{Const: a.Const, Coef: make(map[int]int64, len(a.Coef))}
	for k, v := range a.Coef {
		c.Coef[k] = v
	}
	if a.Inv != nil {
		c.Inv = make(map[VReg]int64, len(a.Inv))
		for k, v := range a.Inv {
			c.Inv[k] = v
		}
	}
	return c
}

// SameInvariants reports whether two annotations have identical symbolic
// invariant parts (required for the constant-difference distance test).
func (a *Affine) SameInvariants(b *Affine) bool {
	for k, v := range a.Inv {
		if v != 0 && b.Inv[k] != v {
			return false
		}
	}
	for k, v := range b.Inv {
		if v != 0 && a.Inv[k] != v {
			return false
		}
	}
	return true
}

// MemRef annotates a Load/Store with the array it touches, a constant
// word displacement added to the address register at execution (so many
// references can share one strength-reduced pointer), and, when the
// frontend could prove it, the affine form of the full address.
type MemRef struct {
	Array  string
	Disp   int64
	Affine *Affine // nil means the address is opaque (worst-case deps)
}

// Op is one machine-independent operation.
//
// Operand conventions:
//
//	Load:   Dst = value, Src[0] = address (int), Mem != nil
//	Store:  Src[0] = address (int), Src[1] = value, Mem != nil
//	FCmp/ICmp: Dst (int) = Pred(Src[0], Src[1]), predicate in IImm
//	ISelect:   Dst = Src[0] != 0 ? Src[1] : Src[2]
//	FConst/IConst: Dst = FImm / IImm
type Op struct {
	ID    int
	Class machine.Class
	Dst   VReg
	Src   []VReg
	FImm  float64
	IImm  int64
	Mem   *MemRef
}

// Clone returns a deep copy of the op (fresh Src slice and MemRef).
func (o *Op) Clone() *Op {
	c := *o
	c.Src = append([]VReg(nil), o.Src...)
	if o.Mem != nil {
		m := *o.Mem
		m.Affine = o.Mem.Affine.Clone()
		c.Mem = &m
	}
	return &c
}

// String renders the op for diagnostics.
func (o *Op) String() string {
	var b strings.Builder
	if o.Dst != NoReg {
		fmt.Fprintf(&b, "r%d = ", o.Dst)
	}
	b.WriteString(o.Class.String())
	switch o.Class {
	case machine.ClassFConst:
		fmt.Fprintf(&b, " %g", o.FImm)
	case machine.ClassIConst:
		fmt.Fprintf(&b, " %d", o.IImm)
	case machine.ClassFCmp, machine.ClassICmp:
		fmt.Fprintf(&b, ".%v", Pred(o.IImm))
	}
	for _, s := range o.Src {
		fmt.Fprintf(&b, " r%d", s)
	}
	if o.Mem != nil {
		fmt.Fprintf(&b, " [%s]", o.Mem.Array)
	}
	return b.String()
}

// Stmt is a statement in a structured block: an operation, a conditional,
// or a counted loop.
type Stmt interface{ isStmt() }

// OpStmt wraps a single operation.
type OpStmt struct{ Op *Op }

// IfStmt is a structured conditional on an int register (0 = false).
type IfStmt struct {
	Cond VReg
	Then *Block
	Else *Block // may be empty, never nil after Build
}

// LoopStmt is a counted loop.  The trip count is CountReg when it is not
// NoReg (a runtime value, evaluated once on entry), otherwise CountImm.
// A zero or negative count executes the body zero times.
type LoopStmt struct {
	ID       int
	CountReg VReg
	CountImm int64
	Body     *Block
	// NoPipeline forces the backend to skip software pipelining for this
	// loop (used by tests and by the frontend's `nopipeline` pragma).
	NoPipeline bool
	// Independent asserts that iterations carry no memory dependences
	// (the paper's "compiler directives to disambiguate array
	// references", Table 4-2); the dependence builder then drops
	// loop-carried memory edges.
	Independent bool
	// ForceUnroll marks the loop for full expansion before scheduling
	// (the `unroll` source directive), within the back end's cap on the
	// copies one nest makes.  Only constant-trip, loop-free bodies qualify.
	ForceUnroll bool
}

// Block is a sequence of statements.
type Block struct{ Stmts []Stmt }

func (*OpStmt) isStmt()   {}
func (*IfStmt) isStmt()   {}
func (*LoopStmt) isStmt() {}

// ArrayDecl declares a memory-resident array.
type ArrayDecl struct {
	Name string
	Kind Kind
	Size int
	// InitF/InitI optionally preset the contents (length <= Size).
	InitF []float64
	InitI []int64
}

// ScalarResult names a register whose final value is an observable output
// of the program (used by differential tests and result printing).
type ScalarResult struct {
	Name string
	Reg  VReg
}

// Program is a complete compilation unit: declarations plus one body.
type Program struct {
	Name    string
	Arrays  []*ArrayDecl
	Results []ScalarResult
	Body    *Block

	// RegKind[r] is the kind of virtual register r; len(RegKind) is the
	// number of registers allocated so far.
	RegKind []Kind

	nextOpID   int
	nextLoopID int
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, Body: &Block{}}
}

// NewReg allocates a fresh virtual register of kind k.
func (p *Program) NewReg(k Kind) VReg {
	p.RegKind = append(p.RegKind, k)
	return VReg(len(p.RegKind) - 1)
}

// NumRegs reports how many virtual registers exist.
func (p *Program) NumRegs() int { return len(p.RegKind) }

// Kind returns the kind of register r, which must exist (Validate checks
// untrusted programs before anything asks).
func (p *Program) Kind(r VReg) Kind { return p.RegKind[r] }

// NewOp allocates an op with a fresh ID.
func (p *Program) NewOp(class machine.Class) *Op {
	o := &Op{ID: p.nextOpID, Class: class, Dst: NoReg}
	p.nextOpID++
	return o
}

// CloneOp returns a deep copy of o carrying a fresh operation ID, for
// passes that duplicate code (e.g. inner-loop unrolling).
func (p *Program) CloneOp(o *Op) *Op {
	c := o.Clone()
	c.ID = p.nextOpID
	p.nextOpID++
	return c
}

// NewLoopID allocates a fresh loop identifier.
func (p *Program) NewLoopID() int {
	id := p.nextLoopID
	p.nextLoopID++
	return id
}

// Clone returns a deep copy of the program: mutating passes (e.g. the
// unroll pass in codegen) clone first so that compilation never writes
// through a caller-owned program, which keeps one *Program safe to
// compile from many goroutines concurrently.
func (p *Program) Clone() *Program {
	c := &Program{
		Name:       p.Name,
		RegKind:    append([]Kind(nil), p.RegKind...),
		nextOpID:   p.nextOpID,
		nextLoopID: p.nextLoopID,
		Results:    append([]ScalarResult(nil), p.Results...),
		Body:       cloneBlock(p.Body),
	}
	if p.Arrays != nil {
		c.Arrays = make([]*ArrayDecl, len(p.Arrays))
		for i, a := range p.Arrays {
			d := *a
			d.InitF = append([]float64(nil), a.InitF...)
			d.InitI = append([]int64(nil), a.InitI...)
			c.Arrays[i] = &d
		}
	}
	return c
}

func cloneBlock(b *Block) *Block {
	if b == nil {
		return nil
	}
	c := &Block{}
	if b.Stmts != nil {
		c.Stmts = make([]Stmt, len(b.Stmts))
		for i, s := range b.Stmts {
			switch s := s.(type) {
			case *OpStmt:
				c.Stmts[i] = &OpStmt{Op: s.Op.Clone()}
			case *IfStmt:
				c.Stmts[i] = &IfStmt{Cond: s.Cond, Then: cloneBlock(s.Then), Else: cloneBlock(s.Else)}
			case *LoopStmt:
				l := *s
				l.Body = cloneBlock(s.Body)
				c.Stmts[i] = &l
			}
		}
	}
	return c
}

// Array returns the declaration of the named array, or nil.
func (p *Program) Array(name string) *ArrayDecl {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// AddArray declares an array and returns it.
func (p *Program) AddArray(name string, kind Kind, size int) *ArrayDecl {
	a := &ArrayDecl{Name: name, Kind: kind, Size: size}
	p.Arrays = append(p.Arrays, a)
	return a
}

// Ops returns the operations of a straight-line block; it returns ok=false
// if the block contains control flow.
func (b *Block) Ops() (ops []*Op, ok bool) {
	for _, s := range b.Stmts {
		o, isOp := s.(*OpStmt)
		if !isOp {
			return nil, false
		}
		ops = append(ops, o.Op)
	}
	return ops, true
}

// Walk calls fn on every statement of the block tree in pre-order (a
// conditional or loop before the statements of its arms or body); when fn
// returns false the statement's children are skipped.
func (b *Block) Walk(fn func(Stmt) bool) {
	for _, s := range b.Stmts {
		if !fn(s) {
			continue
		}
		switch s := s.(type) {
		case *IfStmt:
			s.Then.Walk(fn)
			s.Else.Walk(fn)
		case *LoopStmt:
			s.Body.Walk(fn)
		}
	}
}

// Validate checks structural invariants: every register named by an op, a
// condition, a loop count or a result exists and has the kind its use
// demands, operand counts and memory annotations match the op's class
// (machine.ClassInfo), and structured statements are well formed.  It is
// total: no program, however malformed, makes it panic.
func (p *Program) Validate(m *machine.Machine) error {
	if err := p.validateBlock(p.Body, m); err != nil {
		return err
	}
	for _, r := range p.Results {
		if err := p.regOK(r.Reg, anyKind); err != nil {
			return fmt.Errorf("result %s: bad %w", r.Name, err)
		}
	}
	return nil
}

// anyKind is regOK's wildcard: the register must exist, in either file.
const anyKind Kind = -1

func (p *Program) hasReg(r VReg) bool { return 0 <= r && int(r) < len(p.RegKind) }

// regOK is the one register check: r must name a register of the program,
// of kind want.
func (p *Program) regOK(r VReg, want Kind) error {
	if !p.hasReg(r) {
		return fmt.Errorf("register r%d out of range (program has %d)", r, len(p.RegKind))
	}
	if want != anyKind && p.RegKind[r] != want {
		return fmt.Errorf("register r%d is %v, want %v", r, p.RegKind[r], want)
	}
	return nil
}

func (p *Program) validateBlock(b *Block, m *machine.Machine) error {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *OpStmt:
			if err := p.validateOp(s.Op, m); err != nil {
				return err
			}
		case *IfStmt:
			if err := p.regOK(s.Cond, KindInt); err != nil {
				return fmt.Errorf("if: bad condition %w", err)
			}
			if s.Then == nil || s.Else == nil {
				return fmt.Errorf("if: nil branch block")
			}
			if err := p.validateBlock(s.Then, m); err != nil {
				return err
			}
			if err := p.validateBlock(s.Else, m); err != nil {
				return err
			}
		case *LoopStmt:
			if s.CountReg != NoReg {
				if err := p.regOK(s.CountReg, KindInt); err != nil {
					return fmt.Errorf("loop %d: bad count %w", s.ID, err)
				}
			}
			if s.Body == nil {
				return fmt.Errorf("loop %d: nil body", s.ID)
			}
			if err := p.validateBlock(s.Body, m); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown statement type %T", s)
		}
	}
	return nil
}

// validateOp holds one op to its class's row: IR-legal, the row's source
// count, a memory annotation exactly when some operand lives in the
// array's file, and every operand a register of the row's kind.
func (p *Program) validateOp(o *Op, m *machine.Machine) error {
	if m.Desc(o.Class) == nil {
		return fmt.Errorf("op %d: class %v unsupported on %s", o.ID, o.Class, m.Name)
	}
	row := o.Class.Info()
	if !row.IR {
		return fmt.Errorf("op %d: class %v not valid in IR bodies", o.ID, o.Class)
	}
	if n := row.NSrc(); len(o.Src) != n {
		return fmt.Errorf("op %d (%v): have %d operands, want %d", o.ID, o.Class, len(o.Src), n)
	}
	var arr *ArrayDecl
	if o.Mem != nil {
		arr = p.Array(o.Mem.Array)
	}
	switch usesArray := row.UsesArray(); {
	case usesArray && arr == nil:
		return fmt.Errorf("op %d: %v without valid memory annotation", o.ID, o.Class)
	case !usesArray && o.Mem != nil:
		return fmt.Errorf("op %d: %v with a memory annotation", o.ID, o.Class)
	}
	// A select moves whatever kind its destination holds; an unusable
	// destination is reported by its own check below.
	selFloat := p.hasReg(o.Dst) && p.RegKind[o.Dst] == KindFloat
	kind := func(f machine.File) Kind {
		if f.Resolve(arr != nil && arr.Kind == KindFloat, selFloat) == machine.FileFloat {
			return KindFloat
		}
		return KindInt
	}
	if row.Dst == machine.FileNone {
		if o.Dst != NoReg {
			return fmt.Errorf("op %d: %v with destination", o.ID, o.Class)
		}
	} else if err := p.regOK(o.Dst, kind(row.Dst)); err != nil {
		return fmt.Errorf("op %d (%v): bad dest %w", o.ID, o.Class, err)
	}
	for k, r := range o.Src {
		if err := p.regOK(r, kind(row.Src[k])); err != nil {
			return fmt.Errorf("op %d (%v): bad source %d %w", o.ID, o.Class, k, err)
		}
	}
	return nil
}

// String pretty-prints the whole program.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for _, a := range p.Arrays {
		fmt.Fprintf(&b, "  array %s: %v[%d]\n", a.Name, a.Kind, a.Size)
	}
	p.printBlock(&b, p.Body, 1)
	return b.String()
}

func (p *Program) printBlock(b *strings.Builder, blk *Block, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range blk.Stmts {
		switch s := s.(type) {
		case *OpStmt:
			fmt.Fprintf(b, "%s%s\n", ind, s.Op)
		case *IfStmt:
			fmt.Fprintf(b, "%sif r%d {\n", ind, s.Cond)
			p.printBlock(b, s.Then, depth+1)
			if len(s.Else.Stmts) > 0 {
				fmt.Fprintf(b, "%s} else {\n", ind)
				p.printBlock(b, s.Else, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", ind)
		case *LoopStmt:
			if s.CountReg != NoReg {
				fmt.Fprintf(b, "%sloop %d times r%d {\n", ind, s.ID, s.CountReg)
			} else {
				fmt.Fprintf(b, "%sloop %d times %d {\n", ind, s.ID, s.CountImm)
			}
			p.printBlock(b, s.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		}
	}
}
