package verify

import (
	"fmt"
	"math"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// refResult is the observable outcome of the concolic reference run:
// every memory word, scalar result and output word paired with the term
// recording its provenance.  The by-name maps are the view compare and
// Array read; execution itself goes through refExec.arrays.
type refResult struct {
	memT map[string][]termID
	memF map[string][]float64
	memI map[string][]int64

	resT map[string]termID
	resF map[string]float64
	resI map[string]int64

	outT []termID
	outV []float64
}

// refExec executes the IR program sequentially — the semantics the
// emitted code must reproduce — carrying a provenance term beside every
// register and memory value.  It re-implements the operation semantics
// of the reference interpreter rather than calling it: the point of the
// package is a second, independent derivation.
type refExec struct {
	p   *ir.Program
	itn *interner

	fv []float64
	iv []int64
	ft []termID
	it []termID

	// arrays is parallel to p.Arrays.
	arrays []refArray

	input []float64
	// inT, when non-nil, carries a caller-supplied provenance term per
	// input word (an upstream cell's output terms when verifying a
	// partitioned array); nil means fresh input leaves.
	inT   []termID
	inPos int
	outV  []float64
	outT  []termID

	steps    int64
	maxSteps int64
}

// refArray is the reference's copy of one declared array: the words of
// its kind and a provenance term beside each.
type refArray struct {
	decl *ir.ArrayDecl
	f    []float64
	i    []int64
	t    []termID
}

// refStmt is one source statement with what execution would otherwise
// look up on every visit resolved once: exactly one of op, ifs and loop
// is set.
type refStmt struct {
	op *ir.Op
	// arr is the array a load or store touches; nil on other operations
	// and for a name the program does not declare.
	arr  *refArray
	ifs  *ir.IfStmt
	loop *ir.LoopStmt
	// body is the loop body or the THEN arm; els the ELSE arm.
	body, els []refStmt
}

func runRef(p *ir.Program, itn *interner, input []float64, maxSteps int64) (*refResult, error) {
	return runRefTape(p, itn, input, nil, maxSteps)
}

// runRefTape is runRef with an explicit provenance term per input word;
// a nil inT mints fresh input leaves.
func runRefTape(p *ir.Program, itn *interner, input []float64, inT []termID, maxSteps int64) (*refResult, error) {
	n := p.NumRegs()
	r := &refExec{
		p:        p,
		itn:      itn,
		fv:       make([]float64, n),
		iv:       make([]int64, n),
		ft:       make([]termID, n),
		it:       make([]termID, n),
		arrays:   make([]refArray, len(p.Arrays)),
		input:    input,
		inT:      inT,
		maxSteps: maxSteps,
	}
	zf, zi := itn.zero(true), itn.zero(false)
	for i := range r.ft {
		r.ft[i] = zf
		r.it[i] = zi
	}
	for ai, a := range p.Arrays {
		num, err := itn.arrayNum(a.Name)
		if err != nil {
			return nil, err
		}
		ra := &r.arrays[ai]
		ra.decl = a
		ra.t = make([]termID, a.Size)
		for i := range ra.t {
			ra.t[i] = itn.memInit(num, int64(i))
		}
		if a.Kind == ir.KindFloat {
			ra.f = make([]float64, a.Size)
			copy(ra.f, a.InitF)
		} else {
			ra.i = make([]int64, a.Size)
			copy(ra.i, a.InitI)
		}
	}
	if err := r.block(r.resolve(p.Body)); err != nil {
		return nil, err
	}
	res := &refResult{
		memT: map[string][]termID{}, memF: map[string][]float64{}, memI: map[string][]int64{},
		resT: map[string]termID{}, resF: map[string]float64{}, resI: map[string]int64{},
		outT: r.outT, outV: r.outV,
	}
	for i := range r.arrays {
		ra := &r.arrays[i]
		if _, dup := res.memT[ra.decl.Name]; dup {
			continue // operations resolve a name to its first declaration
		}
		res.memT[ra.decl.Name] = ra.t
		if ra.decl.Kind == ir.KindFloat {
			res.memF[ra.decl.Name] = ra.f
		} else {
			res.memI[ra.decl.Name] = ra.i
		}
	}
	for _, sr := range p.Results {
		if p.Kind(sr.Reg) == ir.KindFloat {
			res.resT[sr.Name] = r.ft[sr.Reg]
			res.resF[sr.Name] = r.fv[sr.Reg]
		} else {
			res.resT[sr.Name] = r.it[sr.Reg]
			res.resI[sr.Name] = r.iv[sr.Reg]
		}
	}
	return res, nil
}

// resolve pairs every statement of b with the array it touches.
func (r *refExec) resolve(b *ir.Block) []refStmt {
	if b == nil {
		return nil
	}
	out := make([]refStmt, 0, len(b.Stmts))
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ir.OpStmt:
			rs := refStmt{op: s.Op}
			if s.Op.Mem != nil {
				for i := range r.arrays {
					if r.arrays[i].decl.Name == s.Op.Mem.Array {
						rs.arr = &r.arrays[i]
						break
					}
				}
			}
			out = append(out, rs)
		case *ir.IfStmt:
			out = append(out, refStmt{ifs: s, body: r.resolve(s.Then), els: r.resolve(s.Else)})
		case *ir.LoopStmt:
			out = append(out, refStmt{loop: s, body: r.resolve(s.Body)})
		}
	}
	return out
}

func (r *refExec) block(stmts []refStmt) error {
	for si := range stmts {
		s := &stmts[si]
		switch {
		case s.op != nil:
			if err := r.op(s.op, s.arr); err != nil {
				return err
			}
		case s.ifs != nil:
			br := s.els
			if r.iv[s.ifs.Cond] != 0 {
				br = s.body
			}
			if err := r.block(br); err != nil {
				return err
			}
		default:
			n := s.loop.CountImm
			if s.loop.CountReg != ir.NoReg {
				n = r.iv[s.loop.CountReg]
			}
			for i := int64(0); i < n; i++ {
				if err := r.block(s.body); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func sign3f(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func sign3i(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func bool2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// setF and setI write a register's concrete value and its term together.
func (r *refExec) setF(d ir.VReg, v float64, t termID) { r.fv[d], r.ft[d] = v, t }
func (r *refExec) setI(d ir.VReg, v int64, t termID)   { r.iv[d], r.it[d] = v, t }

// op executes one operation; arr is the array it touches when it is a
// load or store.  Moves and selects are term-transparent: the code
// generator inserts fix-up moves (MVE copy splicing) the source program
// does not have, so a move must carry its operand's provenance
// unchanged.
func (r *refExec) op(o *ir.Op, arr *refArray) error {
	r.steps++
	if r.maxSteps > 0 && r.steps > r.maxSteps {
		return fmt.Errorf("reference step limit %d exceeded", r.maxSteps)
	}
	itn := r.itn
	switch o.Class {
	case machine.ClassNop:
	case machine.ClassFAdd:
		r.setF(o.Dst, r.fv[o.Src[0]]+r.fv[o.Src[1]], itn.op2(o.Class, 0, r.ft[o.Src[0]], r.ft[o.Src[1]]))
	case machine.ClassFSub:
		r.setF(o.Dst, r.fv[o.Src[0]]-r.fv[o.Src[1]], itn.op2(o.Class, 0, r.ft[o.Src[0]], r.ft[o.Src[1]]))
	case machine.ClassFMul:
		r.setF(o.Dst, r.fv[o.Src[0]]*r.fv[o.Src[1]], itn.op2(o.Class, 0, r.ft[o.Src[0]], r.ft[o.Src[1]]))
	case machine.ClassFNeg:
		r.setF(o.Dst, -r.fv[o.Src[0]], itn.op1(o.Class, 0, r.ft[o.Src[0]]))
	case machine.ClassFMov:
		r.setF(o.Dst, r.fv[o.Src[0]], r.ft[o.Src[0]])
	case machine.ClassFConst:
		r.setF(o.Dst, o.FImm, itn.op0(o.Class, math.Float64bits(o.FImm)))
	case machine.ClassRecv:
		if r.inPos >= len(r.input) {
			return fmt.Errorf("reference: receive beyond end of input (op %d)", o.ID)
		}
		var t termID
		if r.inT != nil {
			t = r.inT[r.inPos]
		} else {
			t = itn.input(r.inPos)
		}
		r.setF(o.Dst, r.input[r.inPos], t)
		r.inPos++
	case machine.ClassSend:
		r.outV = append(r.outV, r.fv[o.Src[0]])
		r.outT = append(r.outT, r.ft[o.Src[0]])
	case machine.ClassFRecipSeed:
		r.setF(o.Dst, ir.RecipSeed(r.fv[o.Src[0]]), itn.op1(o.Class, 0, r.ft[o.Src[0]]))
	case machine.ClassFRsqrtSeed:
		r.setF(o.Dst, ir.RsqrtSeed(r.fv[o.Src[0]]), itn.op1(o.Class, 0, r.ft[o.Src[0]]))
	case machine.ClassF2I:
		r.setI(o.Dst, int64(r.fv[o.Src[0]]), itn.op1(o.Class, 0, r.ft[o.Src[0]]))
	case machine.ClassI2F:
		r.setF(o.Dst, float64(r.iv[o.Src[0]]), itn.op1(o.Class, 0, r.it[o.Src[0]]))
	case machine.ClassFCmp:
		v := bool2i(ir.Pred(o.IImm).Eval(sign3f(r.fv[o.Src[0]], r.fv[o.Src[1]])))
		r.setI(o.Dst, v, itn.op2(o.Class, uint64(o.IImm), r.ft[o.Src[0]], r.ft[o.Src[1]]))
	case machine.ClassIAdd, machine.ClassAdrAdd:
		r.setI(o.Dst, r.iv[o.Src[0]]+r.iv[o.Src[1]], itn.op2(o.Class, 0, r.it[o.Src[0]], r.it[o.Src[1]]))
	case machine.ClassISub:
		r.setI(o.Dst, r.iv[o.Src[0]]-r.iv[o.Src[1]], itn.op2(o.Class, 0, r.it[o.Src[0]], r.it[o.Src[1]]))
	case machine.ClassIMul:
		r.setI(o.Dst, r.iv[o.Src[0]]*r.iv[o.Src[1]], itn.op2(o.Class, 0, r.it[o.Src[0]], r.it[o.Src[1]]))
	case machine.ClassIMov:
		r.setI(o.Dst, r.iv[o.Src[0]], r.it[o.Src[0]])
	case machine.ClassIConst:
		r.setI(o.Dst, o.IImm, itn.op0(o.Class, uint64(o.IImm)))
	case machine.ClassICmp:
		v := bool2i(ir.Pred(o.IImm).Eval(sign3i(r.iv[o.Src[0]], r.iv[o.Src[1]])))
		r.setI(o.Dst, v, itn.op2(o.Class, uint64(o.IImm), r.it[o.Src[0]], r.it[o.Src[1]]))
	case machine.ClassISelect:
		which := o.Src[2]
		if r.iv[o.Src[0]] != 0 {
			which = o.Src[1]
		}
		if r.p.Kind(o.Dst) == ir.KindFloat {
			r.setF(o.Dst, r.fv[which], r.ft[which])
		} else {
			r.setI(o.Dst, r.iv[which], r.it[which])
		}
	case machine.ClassLoad:
		if arr == nil {
			return fmt.Errorf("reference: load of undeclared array %s, op %d", o.Mem.Array, o.ID)
		}
		addr := r.iv[o.Src[0]] + o.Mem.Disp
		if addr < 0 || addr >= int64(arr.decl.Size) {
			return fmt.Errorf("reference: load %s[%d] out of bounds (size %d), op %d", o.Mem.Array, addr, arr.decl.Size, o.ID)
		}
		if arr.decl.Kind == ir.KindFloat {
			r.setF(o.Dst, arr.f[addr], arr.t[addr])
		} else {
			r.setI(o.Dst, arr.i[addr], arr.t[addr])
		}
	case machine.ClassStore:
		if arr == nil {
			return fmt.Errorf("reference: store to undeclared array %s, op %d", o.Mem.Array, o.ID)
		}
		addr := r.iv[o.Src[0]] + o.Mem.Disp
		if addr < 0 || addr >= int64(arr.decl.Size) {
			return fmt.Errorf("reference: store %s[%d] out of bounds (size %d), op %d", o.Mem.Array, addr, arr.decl.Size, o.ID)
		}
		if arr.decl.Kind == ir.KindFloat {
			arr.f[addr], arr.t[addr] = r.fv[o.Src[1]], r.ft[o.Src[1]]
		} else {
			arr.i[addr], arr.t[addr] = r.iv[o.Src[1]], r.it[o.Src[1]]
		}
	default:
		return fmt.Errorf("reference: cannot execute class %v (op %d)", o.Class, o.ID)
	}
	return nil
}
