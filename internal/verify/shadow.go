package verify

import (
	"fmt"
	"math"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// shadowResult is the observable outcome of the concolic object-code
// run, in the same shape as refResult for term-by-term comparison.
type shadowResult struct {
	memT []termID
	memF []float64
	memI []int64

	outT []termID
	outV []float64

	ft []termID
	fv []float64
	it []termID
	iv []int64
}

// pendWB is one in-flight register write-back, packed into three words:
// val holds the float's bits or the int, reg and pc fit 32 bits because
// both were range-checked against the program.
type pendWB struct {
	val     uint64
	reg     int32
	t       termID
	pc      int32
	isFloat bool
}

type pendStore struct {
	isFloat bool
	addr    int64
	f       float64
	i       int64
	t       termID
}

// shadowExec executes the object program under the cell's published
// timing contract (see internal/sim's package comment), independently
// re-implemented: operands read at issue after the cycle's write-backs,
// a result issued at t with latency L lands at t+L, loads read memory at
// issue, stores write at issue after the instruction's loads, control
// takes effect the next cycle.  Every register and memory word carries a
// provenance term beside its concrete value.
type shadowExec struct {
	p   *vliw.Program
	m   *machine.Machine
	itn *interner

	fv []float64
	iv []int64
	ft []termID
	it []termID

	memF []float64
	memI []int64
	memT []termID

	// ring[t & ringMask] holds write-backs landing at cycle t; its
	// length is a power of two above the longest latency, so no two
	// cycles in flight share an entry.
	ring     [][]pendWB
	ringMask int64
	nPending int
	// wbStampF/I[r] = cycle+1 of the register's last write-back, for
	// same-cycle collision detection (an overwrite-while-live bug that
	// no value comparison can express).
	wbStampF []int64
	wbStampI []int64

	input []float64
	// inT, when non-nil, carries a caller-supplied provenance term per
	// input word (chained array verification); nil mints input leaves.
	inT   []termID
	inPos int
	outV  []float64
	outT  []termID

	rrb int64 // rotating register base

	stores []pendStore

	// arrs[opBase[pc]+oi] is the array op oi of instruction pc loads or
	// stores, resolved once per object; nil for other ops and for a name
	// the program does not declare.
	arrs   []*vliw.ArrayInfo
	opBase []int32
}

func runShadow(p *vliw.Program, m *machine.Machine, itn *interner, input []float64, maxCycles int64) (*shadowResult, error) {
	return runShadowTape(p, m, itn, input, nil, maxCycles)
}

// runShadowTape is runShadow with an explicit provenance term per input
// word; a nil inT mints fresh input leaves.
func runShadowTape(p *vliw.Program, m *machine.Machine, itn *interner, input []float64, inT []termID, maxCycles int64) (*shadowResult, error) {
	maxLat := m.MaxLatency()
	ringLen := 1
	for ringLen <= maxLat {
		ringLen *= 2
	}
	s := &shadowExec{
		p: p, m: m, itn: itn,
		fv:       make([]float64, p.NumFRegs),
		iv:       make([]int64, p.NumIRegs),
		ft:       make([]termID, p.NumFRegs),
		it:       make([]termID, p.NumIRegs),
		memF:     make([]float64, p.MemWords),
		memI:     make([]int64, p.MemWords),
		memT:     make([]termID, p.MemWords),
		ring:     make([][]pendWB, ringLen),
		ringMask: int64(ringLen - 1),
		wbStampF: make([]int64, p.NumFRegs),
		wbStampI: make([]int64, p.NumIRegs),
		input:    input,
		inT:      inT,
	}
	zf, zi := itn.zero(true), itn.zero(false)
	for i := range s.ft {
		s.ft[i] = zf
	}
	for i := range s.it {
		s.it[i] = zi
	}
	for i := range s.memT {
		s.memT[i] = noTerm
	}
	for _, a := range p.Arrays {
		num, err := itn.arrayNum(a.Name)
		if err != nil {
			return nil, err
		}
		for i := 0; i < a.Size; i++ {
			s.memT[a.Base+i] = itn.memInit(num, int64(i))
		}
		if a.Kind == ir.KindFloat {
			copy(s.memF[a.Base:a.Base+a.Size], p.InitF[a.Name])
		} else {
			copy(s.memI[a.Base:a.Base+a.Size], p.InitI[a.Name])
		}
	}

	s.resolveArrays()

	pc, t := 0, int64(0)
	halted := false
	for !halted {
		if t >= maxCycles {
			return nil, fmt.Errorf("shadow: exceeded %d cycles (pc=%d)", maxCycles, pc)
		}
		if pc < 0 || pc >= len(p.Instrs) {
			return nil, fmt.Errorf("shadow: pc %d out of range at cycle %d", pc, t)
		}
		if err := s.applyWritebacks(t); err != nil {
			return nil, err
		}
		next, halt, err := s.issue(pc, t)
		if err != nil {
			return nil, err
		}
		halted = halt
		pc = next
		t++
	}
	for s.nPending > 0 {
		if err := s.applyWritebacks(t); err != nil {
			return nil, err
		}
		t++
		if t >= maxCycles+int64(maxLat)+1 {
			return nil, fmt.Errorf("shadow: drain exceeded %d cycles", maxCycles)
		}
	}
	return &shadowResult{
		memT: s.memT, memF: s.memF, memI: s.memI,
		outT: s.outT, outV: s.outV,
		ft: s.ft, fv: s.fv, it: s.it, iv: s.iv,
	}, nil
}

// resolveArrays fills s.arrs and s.opBase.
func (s *shadowExec) resolveArrays() {
	s.opBase = make([]int32, len(s.p.Instrs))
	n := 0
	for pc := range s.p.Instrs {
		s.opBase[pc] = int32(n)
		n += len(s.p.Instrs[pc].Ops)
	}
	s.arrs = make([]*vliw.ArrayInfo, n)
	for pc := range s.p.Instrs {
		for oi := range s.p.Instrs[pc].Ops {
			if o := &s.p.Instrs[pc].Ops[oi]; o.Class == machine.ClassLoad || o.Class == machine.ClassStore {
				s.arrs[int(s.opBase[pc])+oi] = s.p.Array(o.Array)
			}
		}
	}
}

func (s *shadowExec) wb(due int64, pc int, isFloat bool, reg int, val uint64, t termID) {
	slot := due & s.ringMask
	s.ring[slot] = append(s.ring[slot], pendWB{val: val, reg: int32(reg), t: t, pc: int32(pc), isFloat: isFloat})
	s.nPending++
}

func (s *shadowExec) applyWritebacks(t int64) error {
	slot := t & s.ringMask
	wbs := s.ring[slot]
	if len(wbs) == 0 {
		return nil
	}
	stamp := t + 1
	for k := range wbs {
		w := &wbs[k]
		if w.isFloat {
			if s.wbStampF[w.reg] == stamp {
				return fmt.Errorf("shadow: write-back collision on f%d at cycle %d (pc %d): two results land on one register in the same cycle", w.reg, t, w.pc)
			}
			s.wbStampF[w.reg] = stamp
			s.fv[w.reg] = math.Float64frombits(w.val)
			s.ft[w.reg] = w.t
		} else {
			if s.wbStampI[w.reg] == stamp {
				return fmt.Errorf("shadow: write-back collision on i%d at cycle %d (pc %d): two results land on one register in the same cycle", w.reg, t, w.pc)
			}
			s.wbStampI[w.reg] = stamp
			s.iv[w.reg] = int64(w.val)
			s.it[w.reg] = w.t
		}
	}
	s.nPending -= len(wbs)
	s.ring[slot] = wbs[:0]
	return nil
}

// srcReg resolves source operand i against the rotating base at issue
// time; static programs carry no rings and EffReg is the identity.
func (s *shadowExec) srcReg(o *vliw.SlotOp, i int) int {
	return int(vliw.EffReg(o.Src[i], o.SrcRing(i), s.rrb))
}

// readF and readI read source operand i of the op at pc, bounds-checked
// so mutated programs fail loudly.
func (s *shadowExec) readF(pc int, o *vliw.SlotOp, i int) (float64, termID, error) {
	r := s.srcReg(o, i)
	if r < 0 || r >= len(s.fv) {
		return 0, noTerm, fmt.Errorf("shadow: @%d: float register f%d out of range", pc, r)
	}
	return s.fv[r], s.ft[r], nil
}

func (s *shadowExec) readI(pc int, o *vliw.SlotOp, i int) (int64, termID, error) {
	r := s.srcReg(o, i)
	if r < 0 || r >= len(s.iv) {
		return 0, noTerm, fmt.Errorf("shadow: @%d: int register i%d out of range", pc, r)
	}
	return s.iv[r], s.it[r], nil
}

// writeF and writeI queue the result of the op at pc for write-back at
// cycle due into its (possibly rotating) destination.
func (s *shadowExec) writeF(pc int, due int64, o *vliw.SlotOp, v float64, tm termID) error {
	dst := int(vliw.EffReg(o.Dst, o.DstRing(), s.rrb))
	if dst < 0 || dst >= len(s.fv) {
		return fmt.Errorf("shadow: @%d: float register f%d out of range", pc, dst)
	}
	s.wb(due, pc, true, dst, math.Float64bits(v), tm)
	return nil
}

func (s *shadowExec) writeI(pc int, due int64, o *vliw.SlotOp, v int64, tm termID) error {
	dst := int(vliw.EffReg(o.Dst, o.DstRing(), s.rrb))
	if dst < 0 || dst >= len(s.iv) {
		return fmt.Errorf("shadow: @%d: int register i%d out of range", pc, dst)
	}
	s.wb(due, pc, false, dst, uint64(v), tm)
	return nil
}

// slot executes one operation of instruction pc at cycle t: operands
// are read now, the result lands after the class's latency, a store
// joins s.stores.  arr is the array a load or store names.
func (s *shadowExec) slot(pc int, t int64, o *vliw.SlotOp, arr *vliw.ArrayInfo) error {
	d := s.m.Desc(o.Class)
	if d == nil {
		return fmt.Errorf("shadow: @%d: class %v unsupported on %s", pc, o.Class, s.m.Name)
	}
	due := t + int64(d.Latency)
	itn := s.itn
	switch o.Class {
	case machine.ClassNop:
	case machine.ClassFAdd, machine.ClassFSub, machine.ClassFMul:
		a, ta, err := s.readF(pc, o, 0)
		if err != nil {
			return err
		}
		b, tb, err := s.readF(pc, o, 1)
		if err != nil {
			return err
		}
		var v float64
		switch o.Class {
		case machine.ClassFAdd:
			v = a + b
		case machine.ClassFSub:
			v = a - b
		default:
			v = a * b
		}
		return s.writeF(pc, due, o, v, itn.op2(o.Class, 0, ta, tb))
	case machine.ClassFNeg, machine.ClassFMov, machine.ClassFRecipSeed, machine.ClassFRsqrtSeed, machine.ClassF2I, machine.ClassSend:
		a, ta, err := s.readF(pc, o, 0)
		if err != nil {
			return err
		}
		switch o.Class {
		case machine.ClassFNeg:
			return s.writeF(pc, due, o, -a, itn.op1(o.Class, 0, ta))
		case machine.ClassFMov:
			return s.writeF(pc, due, o, a, ta) // term-transparent, like the reference
		case machine.ClassFRecipSeed:
			return s.writeF(pc, due, o, ir.RecipSeed(a), itn.op1(o.Class, 0, ta))
		case machine.ClassFRsqrtSeed:
			return s.writeF(pc, due, o, ir.RsqrtSeed(a), itn.op1(o.Class, 0, ta))
		case machine.ClassF2I:
			return s.writeI(pc, due, o, int64(a), itn.op1(o.Class, 0, ta))
		default: // Send
			s.outV = append(s.outV, a)
			s.outT = append(s.outT, ta)
		}
	case machine.ClassFConst:
		return s.writeF(pc, due, o, o.FImm, itn.op0(o.Class, math.Float64bits(o.FImm)))
	case machine.ClassRecv:
		if s.inPos >= len(s.input) {
			return fmt.Errorf("shadow: @%d: receive beyond end of input tape", pc)
		}
		var tm termID
		if s.inT != nil {
			tm = s.inT[s.inPos]
		} else {
			tm = itn.input(s.inPos)
		}
		err := s.writeF(pc, due, o, s.input[s.inPos], tm)
		s.inPos++
		return err
	case machine.ClassFCmp:
		a, ta, err := s.readF(pc, o, 0)
		if err != nil {
			return err
		}
		b, tb, err := s.readF(pc, o, 1)
		if err != nil {
			return err
		}
		return s.writeI(pc, due, o, bool2i(ir.Pred(o.IImm).Eval(sign3f(a, b))), itn.op2(o.Class, uint64(o.IImm), ta, tb))
	case machine.ClassIAdd, machine.ClassAdrAdd, machine.ClassISub, machine.ClassIMul, machine.ClassICmp:
		a, ta, err := s.readI(pc, o, 0)
		if err != nil {
			return err
		}
		b, tb, err := s.readI(pc, o, 1)
		if err != nil {
			return err
		}
		var v int64
		imm := uint64(0)
		switch o.Class {
		case machine.ClassISub:
			v = a - b
		case machine.ClassIMul:
			v = a * b
		case machine.ClassICmp:
			v, imm = bool2i(ir.Pred(o.IImm).Eval(sign3i(a, b))), uint64(o.IImm)
		default: // IAdd, AdrAdd
			v = a + b
		}
		return s.writeI(pc, due, o, v, itn.op2(o.Class, imm, ta, tb))
	case machine.ClassI2F, machine.ClassIMov, machine.ClassIShr, machine.ClassIAnd:
		a, ta, err := s.readI(pc, o, 0)
		if err != nil {
			return err
		}
		switch o.Class {
		case machine.ClassI2F:
			return s.writeF(pc, due, o, float64(a), itn.op1(o.Class, 0, ta))
		case machine.ClassIMov:
			return s.writeI(pc, due, o, a, ta) // term-transparent
		case machine.ClassIShr:
			return s.writeI(pc, due, o, int64(uint64(a)>>uint(o.IImm)), itn.op1(o.Class, uint64(o.IImm), ta))
		default: // IAnd
			return s.writeI(pc, due, o, a&o.IImm, itn.op1(o.Class, uint64(o.IImm), ta))
		}
	case machine.ClassIConst:
		return s.writeI(pc, due, o, o.IImm, itn.op0(o.Class, uint64(o.IImm)))
	case machine.ClassISelect:
		c, _, err := s.readI(pc, o, 0)
		if err != nil {
			return err
		}
		which := 2
		if c != 0 {
			which = 1
		}
		// Select is term-transparent to the chosen operand.
		if o.FImm != 0 {
			v, tv, err := s.readF(pc, o, which)
			if err != nil {
				return err
			}
			return s.writeF(pc, due, o, v, tv)
		}
		v, tv, err := s.readI(pc, o, which)
		if err != nil {
			return err
		}
		return s.writeI(pc, due, o, v, tv)
	case machine.ClassLoad:
		if arr == nil {
			return fmt.Errorf("shadow: @%d: unknown array %q", pc, o.Array)
		}
		a, _, err := s.readI(pc, o, 0)
		if err != nil {
			return err
		}
		addr := a + int64(o.Disp)
		if addr < int64(arr.Base) || addr >= int64(arr.Base+arr.Size) {
			return fmt.Errorf("shadow: @%d cycle %d: load %s[%d] out of bounds (size %d)", pc, t, arr.Name, addr-int64(arr.Base), arr.Size)
		}
		if arr.Kind == ir.KindFloat {
			return s.writeF(pc, due, o, s.memF[addr], s.memT[addr])
		}
		return s.writeI(pc, due, o, s.memI[addr], s.memT[addr])
	case machine.ClassStore:
		if arr == nil {
			return fmt.Errorf("shadow: @%d: unknown array %q", pc, o.Array)
		}
		a, _, err := s.readI(pc, o, 0)
		if err != nil {
			return err
		}
		addr := a + int64(o.Disp)
		if addr < int64(arr.Base) || addr >= int64(arr.Base+arr.Size) {
			return fmt.Errorf("shadow: @%d cycle %d: store %s[%d] out of bounds (size %d)", pc, t, arr.Name, addr-int64(arr.Base), arr.Size)
		}
		if arr.Kind == ir.KindFloat {
			v, tv, err := s.readF(pc, o, 1)
			if err != nil {
				return err
			}
			s.stores = append(s.stores, pendStore{isFloat: true, addr: addr, f: v, t: tv})
		} else {
			v, tv, err := s.readI(pc, o, 1)
			if err != nil {
				return err
			}
			s.stores = append(s.stores, pendStore{addr: addr, i: v, t: tv})
		}
	default:
		return fmt.Errorf("shadow: @%d: cannot execute class %v", pc, o.Class)
	}
	return nil
}

// issue executes all slots of instruction pc at cycle t and returns the
// next pc.
func (s *shadowExec) issue(pc int, t int64) (next int, halted bool, err error) {
	in := &s.p.Instrs[pc]
	next = pc + 1
	s.stores = s.stores[:0]
	arrs := s.arrs[s.opBase[pc]:]
	for oi := range in.Ops {
		if err := s.slot(pc, t, &in.Ops[oi], arrs[oi]); err != nil {
			return 0, false, err
		}
	}
	// Stores land after every load of the same instruction, as on the
	// real cell.
	for i := range s.stores {
		st := &s.stores[i]
		if st.isFloat {
			s.memF[st.addr] = st.f
		} else {
			s.memI[st.addr] = st.i
		}
		s.memT[st.addr] = st.t
	}
	switch in.Ctl.Kind {
	case vliw.CtlNone:
	case vliw.CtlHalt:
		halted = true
	case vliw.CtlJump:
		next = int(in.Ctl.Target)
	case vliw.CtlDBNZ:
		r := int(in.Ctl.Reg)
		if r < 0 || r >= len(s.iv) {
			return 0, false, fmt.Errorf("shadow: @%d: dbnz register i%d out of range", pc, r)
		}
		s.iv[r]--
		// The counter's new value has sequencer provenance, not data
		// provenance; ClassCJump never appears in data terms, so this
		// can never alias a term the reference produces.
		s.it[r] = s.itn.op0(machine.ClassCJump, uint64(s.iv[r]))
		if s.iv[r] != 0 {
			next = int(in.Ctl.Target)
		}
		if in.Ctl.Rotate {
			s.rrb++
		}
	case vliw.CtlJZ:
		r := int(vliw.EffReg(in.Ctl.Reg, in.Ctl.Ring(), s.rrb))
		if r < 0 || r >= len(s.iv) {
			return 0, false, fmt.Errorf("shadow: @%d: jz register i%d out of range", pc, r)
		}
		if s.iv[r] == 0 {
			next = int(in.Ctl.Target)
		}
	case vliw.CtlJNZ:
		r := int(vliw.EffReg(in.Ctl.Reg, in.Ctl.Ring(), s.rrb))
		if r < 0 || r >= len(s.iv) {
			return 0, false, fmt.Errorf("shadow: @%d: jnz register i%d out of range", pc, r)
		}
		if s.iv[r] != 0 {
			next = int(in.Ctl.Target)
		}
	case vliw.CtlRotClear:
		s.rrb = 0
	}
	return next, halted, nil
}
