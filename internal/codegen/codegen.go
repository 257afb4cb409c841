// Package codegen lowers IR programs to VLIW object code.  Loops with
// straight-line bodies (after hierarchical reduction) and compile-time
// trip counts are software pipelined via internal/pipeline; everything
// else is emitted as locally compacted code.  The package also provides
// the unpipelined compilation mode used as the comparison baseline of
// Lam's Figure 4-2.
package codegen

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"softpipe/internal/depgraph"
	"softpipe/internal/hier"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/pipeline"
	"softpipe/internal/schedule"
	"softpipe/internal/slab"
	"softpipe/internal/trace"
	"softpipe/internal/verify"
	"softpipe/internal/vliw"
)

// Mode selects the compilation strategy.
type Mode int

// Compilation modes.
const (
	// ModePipelined software pipelines every eligible loop (the paper's
	// compiler).
	ModePipelined Mode = iota
	// ModeUnpipelined compacts each loop body locally but never overlaps
	// iterations: the baseline of Lam Figure 4-2.
	ModeUnpipelined
)

// Options tunes compilation.
type Options struct {
	// Ctx, when non-nil, bounds the compile: it is checked before each
	// loop is planned and threaded into the II search, so a canceled or
	// deadlined request aborts between candidate initiation intervals
	// instead of running to MaxII.
	Ctx  context.Context
	Mode Mode
	// VerifyEmitted runs the independent checker of internal/verify over
	// the emitted object code against the *original* input program (so
	// the internal unroll rewrite is verified too) and fails compilation
	// on any violation.  Tests turn this on by default.  A program that
	// receives has no input tape at compile time to drive the concolic
	// run, so it gets the static checks only.
	VerifyEmitted bool
	// Tracer receives per-phase spans and counters for the whole compile;
	// nil disables tracing at zero cost.
	Tracer *trace.Tracer

	// The comparison points: the nine fields below.  A comparison only a
	// benchmark or a test reads is a field here, reached through
	// softpipe.CompileWith, never a product option; a comparison the
	// product reports (softpipe.Options.Baseline, the denominator of every
	// speedup) is an option.

	// UnrollInnerTrip, when positive, fully unrolls constant-trip loops of
	// at most that many iterations nested in another loop, as the `unroll`
	// directive does per loop (unroll.go).  BenchmarkAblationUnrollInner_*,
	// the corpus digest's unroll4 point and TestUnrollSpellingsAgree.
	UnrollInnerTrip int
	// DisableHier turns off hierarchical reduction (§3.1): loops containing
	// conditionals are then never pipelined.  BenchmarkAblationHier_*.
	DisableHier bool
	// HeuristicOnly plans with Lam's heuristic alone, no search below its
	// II.  warpbench -gap and TestExactNeverLosesToHeuristic.
	HeuristicOnly bool
	// DisableLoopReduction turns off §3.2 loop reduction: outer bodies
	// then emit inner loops between scheduling barriers.
	// BenchmarkAblationLoopReduction_* and
	// TestLoopReductionNeverLosesToItsAblation.
	DisableLoopReduction bool
	// WholeArms reduces every conditional with its arms whole, as Lam §3.1
	// describes it, never lifting arm-private operations out.
	// TestLiftNeverLosesToWholeArms and warpbench -fig42.
	WholeArms bool
	// NoRotation keeps every outer body in program order: no pure setup
	// rotates across the loop-back into the previous iteration.
	// TestRotationNeverLoses.
	NoRotation bool
	// DisableMVE plans every loop without modulo variable expansion (Lam
	// §2.3): no expandable-register edge is removed.
	// BenchmarkAblationMVE_* and the corpus digest's nomve point.
	DisableMVE bool
	// Policy is the modulo variable expansion unroll policy; PolicyLCM
	// is §2.3's minimum-register, lcm-unroll alternative.
	// BenchmarkAblationPolicy_* and the corpus digest's lcm point.
	Policy pipeline.Policy
}

// LoopReport records how one loop was compiled, feeding the evaluation
// harness (Table 4-2's efficiency column, the §4.1 population statistics).
type LoopReport struct {
	LoopID    int
	TripCount int64
	// BodyOps counts the operations of the loop body, those inside its
	// conditionals and inner loops included (each once).
	BodyOps int
	// Flops counts the floating-point operations of one body iteration
	// (machine flop weights); a pipelined loop's steady-state rate is
	// Flops·ClockMHz/II MFLOPS, which the serving layer reports per loop.
	Flops     int
	Pipelined bool
	Reason    string // why the loop was not pipelined
	MII       int
	ResMII    int
	RecMII    int
	// II is the initiation interval of a pipelined loop.  A loop emitted
	// unpipelined reports its period instead: the rows of its compacted
	// body, or, when its body holds a conditional or an inner loop and is
	// emitted as control flow, its code length in words — not a cycle
	// count, since each pass takes the branch it takes.
	II       int
	MetLower bool
	// Proved means the search refuted every interval below the kept
	// plan's II (it is optimal, not just heuristically good), FellBack
	// that the branch-and-bound ran out of schedule.NodeBudget and kept
	// the heuristic schedule.
	Proved   bool
	FellBack bool
	Unroll   int
	Stages   int
	// Passes and Tail say how a pipelined loop's compile-time trip count
	// was split (Plan.Split): the prolog starts Stages-1 iterations, the
	// kernel makes Passes passes of Unroll more, and the remaining Tail
	// iterations start in the epilog.  Flat marks a loop too short for a
	// kernel pass, emitted as its flat schedule with no kernel at all.
	// All zero for run-time counts (the split is computed at run time).
	Passes   int64
	Tail     int64
	Flat     bool
	HasCond  bool
	HasRecur bool
	// Hoisted counts the arm-private pure operations lifted out of the
	// body's reduced conditionals and scheduled as ordinary nodes; 0 when
	// there were none or the whole-arm form was kept (Explain's notes say
	// which of the three reasons kept it).
	Hoisted int
	// Rotated counts the setup operations of an outer body with reduced
	// inner loops that run one iteration early, at the end of the previous
	// iteration (once before the loop for the first); 0 when none could or
	// the body in program order was shorter (Explain's notes say which).
	Rotated int
	// Rotating marks a loop pipelined against a rotating register file
	// (MVE without unrolling); CopyRegsF/I count the extra float/int
	// registers modulo variable expansion claimed beyond one per
	// variable — the paper's software-renaming cost, which the sweep
	// harness compares against the rotating configurations.
	Rotating  bool
	CopyRegsF int
	CopyRegsI int
	// kernel is the steady-state modulo schedule Kernel renders; zero
	// when the loop was not pipelined.
	kernel pipeline.Kernel
	// Explain is the explain report of this loop, never nil: the II
	// search's per-candidate record, or for a loop that never reached the
	// search (a pragma, analysis or profitability failure, a nest) only
	// Explain.PreFailure.  It never contradicts the outcome: a loop that
	// is not pipelined carries its Reason there, as PreFailure or, when
	// the search succeeded and the plan was refused afterwards, as a note.
	Explain *schedule.Explain
}

// Kernel renders the steady-state modulo schedule (one row per II
// offset, as in the paper's Figure 2-2); "" when the loop was not
// pipelined.  The text is built on each call: a compile does not render
// what nobody reads.
func (r *LoopReport) Kernel() string { return r.kernel.String() }

// Report aggregates compilation statistics.
type Report struct {
	Loops     []LoopReport
	FRegsUsed int
	IRegsUsed int
}

// Compile lowers p for machine m.  It treats p as read-only (the unroll
// pass, the one rewriting transformation, works on a private clone), so
// the same program may be compiled from many goroutines concurrently.
func Compile(p *ir.Program, m *machine.Machine, opts Options) (*vliw.Program, *Report, error) {
	sp := opts.Tracer.Begin("codegen.validate")
	err := p.Validate(m)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	orig := p
	unroll := planUnroll(p, int64(opts.UnrollInnerTrip))
	if len(unroll.expand) > 0 {
		sp := opts.Tracer.Begin("codegen.unroll")
		p = p.Clone()
		err := unroll.apply(p, p.Body)
		sp.End()
		if err != nil {
			return nil, nil, err
		}
	}
	emitSp := opts.Tracer.Begin("codegen.emit")
	e := newEmitter(p, m, opts)
	e.layoutMemory()
	e.prepass()
	e.emitBlock(p.Body)
	e.emitResults()
	e.append(vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlHalt}})
	e.flushPends()
	emitSp.Arg("instrs", int64(len(e.out))).End()
	if e.err != nil {
		return nil, nil, e.err
	}
	e.prog.Instrs = e.pack()
	e.prog.NumFRegs = e.fNext
	e.prog.NumIRegs = e.iNext
	e.report.FRegsUsed = e.fNext
	e.report.IRegsUsed = e.iNext
	for _, lr := range e.report.Loops {
		if why, ok := unroll.notHonoured[lr.LoopID]; ok {
			lr.Explain.Notes = append(lr.Explain.Notes, "unroll directive not honoured: "+why)
		}
	}
	if e.fNext > m.FloatRegs {
		return nil, nil, fmt.Errorf("codegen: %d float registers needed, machine has %d", e.fNext, m.FloatRegs)
	}
	if e.iNext > m.IntRegs {
		return nil, nil, fmt.Errorf("codegen: %d int registers needed, machine has %d", e.iNext, m.IntRegs)
	}
	sp = opts.Tracer.Begin("vliw.validate")
	err = e.prog.Validate(m)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	if opts.VerifyEmitted {
		sp := opts.Tracer.Begin("verify")
		var err error
		if usesRecv(orig.Body) {
			// No tape to drive a concolic run: prove what can be proven
			// statically (encoding, resources, modulo wraparound).
			err = verify.Static(e.prog, m)
		} else {
			err = verify.ProgramOpts(orig, e.prog, m, verify.Options{Tracer: opts.Tracer})
		}
		sp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("codegen: emitted code failed verification: %w", err)
		}
	}
	return e.prog, e.report, nil
}

// outPool holds the emitters' instruction buffers: emission appends to
// one, and pack copies the finished code out of it.
var outPool = sync.Pool{New: func() any { return new([]vliw.Instr) }}

// pack returns the emitted code, copied out of the emitter's buffer into a
// slice of its own length, its op lists moved out of the slabs they were
// carved from into one block, sized exactly: the object then holds what it
// uses, not a buffer's slack or the unused ends of the compile's chunks.
// (A slot op holds its sources; the few rings are allocated each to its
// length.)  The buffer goes back to outPool.
func (e *emitter) pack() []vliw.Instr {
	instrs := slices.Clone(e.out)
	clear(e.out) // the words point into this compile's slabs: let go of them
	*e.outBuf = e.out[:0]
	outPool.Put(e.outBuf)
	nops := 0
	for _, in := range instrs {
		nops += len(in.Ops)
	}
	ops := make([]vliw.SlotOp, nops)
	for i := range instrs {
		in := &instrs[i]
		if len(in.Ops) == 0 {
			continue
		}
		n := copy(ops, in.Ops)
		in.Ops, ops = ops[:n:n], ops[n:]
	}
	return instrs
}

// usesRecv reports whether any operation in the block tree receives
// from the input channel.
func usesRecv(b *ir.Block) (recv bool) {
	b.Walk(func(s ir.Stmt) bool {
		if o, ok := s.(*ir.OpStmt); ok && o.Op.Class == machine.ClassRecv {
			recv = true
		}
		return !recv
	})
	return recv
}

type regKey struct {
	r    ir.VReg
	copy int
}

type emitter struct {
	irp  *ir.Program
	m    *machine.Machine
	opts Options
	red  *hier.Reducer // one per compile: its reference counts are taken once

	prog   *vliw.Program
	out    []vliw.Instr // the code so far, in outBuf's storage (pack)
	outBuf *[]vliw.Instr
	report *Report
	err    error

	regs         regMap
	fFree, iFree []int32
	fNext, iNext int

	// pos assigns each op ID a sequence position; firstPos/lastPos[r]
	// bound the positions referencing virtual register r (firstPos is -1
	// for a register nothing references, lastPos is MaxInt for results).
	// uncondWrite[r] reports that r's first reference is a write outside
	// any conditional, so each execution of its defining region recreates
	// it before any use.
	pos         []int
	firstPos    []int
	lastPos     []int
	uncondWrite []bool
	nextPos     int

	// loopBodyStart[d] is the first op position of the loop body at
	// nesting depth d+1 (parallel to loopDepth).
	loopBodyStart []int

	// loopDepth > 0 while emitting inside a loop body whose code
	// re-executes: register release is deferred to the loop boundary so
	// loop-invariant and loop-carried registers are never reused early.
	loopDepth int

	// pends holds out-of-line ELSE blocks of reduced conditionals,
	// emitted after the main stream (see rows.go).
	pends []pendElse

	// bodies holds the body planNodes built for each loop it planned, so
	// the loop's unpipelined form (compactRows) reads its schedule instead
	// of building it again.
	bodies map[*ir.LoopStmt]*pipeline.Body
	// deadKeys is release's scratch.
	deadKeys []regKey
	// arena holds the nodes of the bodies compactRows and tryOverlapped
	// build themselves (the reducer holds its own).
	arena depgraph.Arena
	// slots backs the row contents of the emitted code (scheduleRow,
	// compactRows, mergeRows); rowOps and rowCount are scheduleRow's and
	// compactRows' scratch.
	slots    slab.Of[vliw.SlotOp]
	rowOps   []vliw.SlotOp
	rowCount []int
}

func newEmitter(p *ir.Program, m *machine.Machine, opts Options) *emitter {
	buf := outPool.Get().(*[]vliw.Instr)
	return &emitter{
		out:    (*buf)[:0],
		outBuf: buf,
		irp:    p,
		m:      m,
		opts:   opts,
		red:    hier.NewReducer(p, m),
		prog:   &vliw.Program{Name: p.Name, InitF: map[string][]float64{}, InitI: map[string][]int64{}},
		report: &Report{},
		bodies: map[*ir.LoopStmt]*pipeline.Body{},
	}
}

func (e *emitter) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *emitter) append(in vliw.Instr) { e.out = append(e.out, in) }

// next is the index of the word append adds next, as a branch target.
func (e *emitter) next() int32 { return int32(len(e.out)) }

func (e *emitter) layoutMemory() {
	base := 0
	for _, a := range e.irp.Arrays {
		e.prog.Arrays = append(e.prog.Arrays, vliw.ArrayInfo{
			Name: a.Name, Kind: a.Kind, Base: base, Size: a.Size,
		})
		if a.Kind == ir.KindFloat {
			e.prog.InitF[a.Name] = a.InitF
		} else {
			e.prog.InitI[a.Name] = a.InitI
		}
		base += a.Size
	}
	e.prog.MemWords = base
	if base > math.MaxInt32 {
		// A slot op's displacement is an int32.
		e.fail(fmt.Errorf("codegen: %d words of data memory, more than 2^31-1", base))
	}
}

// prepass numbers every op and computes last-reference positions for
// region-based register reuse.
func (e *emitter) prepass() {
	n := e.irp.NumRegs()
	regs := make([]int, 3*n)
	e.firstPos, e.lastPos, e.regs.base = regs[:n:n], regs[n:2*n:2*n], regs[2*n:]
	for r := range e.firstPos {
		e.firstPos[r] = -1
	}
	e.uncondWrite = make([]bool, n)
	var walk func(b *ir.Block, ifDepth int)
	touch := func(r ir.VReg, p int, write, uncond bool) {
		if r == ir.NoReg {
			return
		}
		if e.firstPos[r] < 0 {
			e.firstPos[r] = p
			e.uncondWrite[r] = write && uncond
		}
		if p > e.lastPos[r] {
			e.lastPos[r] = p
		}
	}
	walk = func(b *ir.Block, ifDepth int) {
		for _, s := range b.Stmts {
			switch s := s.(type) {
			case *ir.OpStmt:
				p := e.nextPos
				e.nextPos++
				if id := s.Op.ID; id >= len(e.pos) {
					e.pos = append(e.pos, make([]int, id+1-len(e.pos))...)
				}
				e.pos[s.Op.ID] = p
				for _, r := range s.Op.Src {
					touch(r, p, false, false)
				}
				touch(s.Op.Dst, p, true, ifDepth == 0)
			case *ir.IfStmt:
				touch(s.Cond, e.nextPos, false, false)
				walk(s.Then, ifDepth+1)
				walk(s.Else, ifDepth+1)
			case *ir.LoopStmt:
				touch(s.CountReg, e.nextPos, false, false)
				walk(s.Body, ifDepth)
			}
		}
	}
	walk(e.irp.Body, 0)
	for _, r := range e.irp.Results {
		e.lastPos[r.Reg] = math.MaxInt64
	}
}

// regMap maps (virtual register, copy) to a physical register, in the
// file the register's kind selects.  Copy 0 — every mapped register has
// one, and most have no other — is a slice indexed by register; the
// copies modulo variable expansion adds are a map.
type regMap struct {
	base   []int // base[r]: r's copy-0 physical register + 1, 0 when unmapped
	copies map[regKey]int32
	dead   []regKey // keys' scratch
}

func (m *regMap) get(k regKey) (int32, bool) {
	if k.copy == 0 {
		p := int32(m.base[k.r] - 1)
		return p, p >= 0
	}
	p, ok := m.copies[k]
	return p, ok
}

func (m *regMap) set(k regKey, p int32) {
	if k.copy == 0 {
		m.base[k.r] = int(p) + 1
		return
	}
	if m.copies == nil {
		m.copies = map[regKey]int32{}
	}
	m.copies[k] = p
}

func (m *regMap) del(k regKey) {
	if k.copy == 0 {
		m.base[k.r] = 0
		return
	}
	delete(m.copies, k)
}

// keys appends to out the mapped keys dead selects, in (register, copy)
// order.
func (m *regMap) keys(out []regKey, dead func(regKey) bool) []regKey {
	copies := m.dead[:0]
	for k := range m.copies {
		if dead(k) {
			copies = append(copies, k)
		}
	}
	slices.SortFunc(copies, func(a, b regKey) int {
		return cmp.Or(cmp.Compare(a.r, b.r), cmp.Compare(a.copy, b.copy))
	})
	m.dead = copies
	for r, p := range m.base {
		if k := (regKey{r: ir.VReg(r)}); p > 0 && dead(k) {
			out = append(out, k)
		}
		for len(copies) > 0 && copies[0].r == ir.VReg(r) {
			out, copies = append(out, copies[0]), copies[1:]
		}
	}
	return out
}

// physReg maps (vreg, copy) to a physical register, allocating on demand.
func (e *emitter) physReg(r ir.VReg, copy int) int32 {
	k := regKey{r: r, copy: copy}
	if p, ok := e.regs.get(k); ok {
		return p
	}
	var p int32
	if e.irp.Kind(r) == ir.KindFloat {
		p = e.allocF()
	} else {
		p = e.allocI()
	}
	e.regs.set(k, p)
	return p
}

func (e *emitter) allocF() int32 {
	if n := len(e.fFree); n > 0 {
		p := e.fFree[n-1]
		e.fFree = e.fFree[:n-1]
		return p
	}
	p := e.fNext
	e.fNext++
	return int32(p)
}

func (e *emitter) allocI() int32 {
	if n := len(e.iFree); n > 0 {
		p := e.iFree[n-1]
		e.iFree = e.iFree[:n-1]
		return p
	}
	p := e.iNext
	e.iNext++
	return int32(p)
}

func (e *emitter) freeI(p int32) { e.iFree = append(e.iFree, p) }

// releaseDead returns registers of vregs whose last reference position is
// ≤ upto to the free lists.  Callers invoke it after draining a region.
// Inside loop bodies only iteration-local registers are released: their
// first reference must be an unconditional write within the innermost
// open loop body, so re-execution recreates them before any use.
func (e *emitter) releaseDead(upto int) {
	releasable := func(r ir.VReg) bool {
		if e.lastPos[r] > upto {
			return false
		}
		if e.loopDepth == 0 {
			return true
		}
		start := e.loopBodyStart[len(e.loopBodyStart)-1]
		return e.uncondWrite[r] && e.firstPos[r] >= start
	}
	e.release(func(k regKey) bool { return releasable(k.r) })
}

// releaseCopies frees the MVE copy registers (copy > 0) after a pipelined
// loop region completes.  Safe at any loop depth: expanded registers are
// written before every read on each execution of the region.
func (e *emitter) releaseCopies() {
	e.release(func(k regKey) bool { return k.copy > 0 })
}

// release returns the physical register of every mapping `dead` selects
// to its file's free list, in (vreg, copy) order: map iteration order
// must not decide which register the next allocation gets.
func (e *emitter) release(dead func(regKey) bool) {
	e.deadKeys = e.regs.keys(e.deadKeys[:0], dead)
	for _, k := range e.deadKeys {
		p, _ := e.regs.get(k)
		e.regs.del(k)
		if e.irp.Kind(k.r) == ir.KindFloat {
			e.fFree = append(e.fFree, p)
		} else {
			e.iFree = append(e.iFree, p)
		}
	}
}

// slotFor renders one op instance with the register copies of relative
// iteration `iter` under plan (nil plan means copy 0 everywhere; any
// representative of iter's class mod Unroll works, since copy counts
// divide the unroll degree).  On rotating plans each expanded operand
// additionally carries its rotation ring, so the same static op reads
// the right copy at every runtime rotation.
func (e *emitter) slotFor(op *ir.Op, iter int, plan *pipeline.Plan) vliw.SlotOp {
	cp := func(r ir.VReg) int {
		if plan == nil {
			return 0
		}
		return plan.CopyIndex(r, iter)
	}
	s := vliw.SlotOp{Class: op.Class, IImm: op.IImm, FImm: op.FImm}
	if op.Dst != ir.NoReg {
		s.Dst = e.physReg(op.Dst, cp(op.Dst))
	}
	for i, r := range op.Src {
		s.Src[i] = e.physReg(r, cp(r))
	}
	if plan != nil && plan.Rotating {
		var rings vliw.Rings
		rotates := false
		if op.Dst != ir.NoReg {
			rings.Dst = e.ringFor(op.Dst, iter, plan)
			rotates = rings.Dst != nil
		}
		for i, r := range op.Src {
			rings.Src[i] = e.ringFor(r, iter, plan)
			rotates = rotates || rings.Src[i] != nil
		}
		if rotates {
			r := rings
			s.Rings = &r
		}
	}
	if op.Class == machine.ClassISelect {
		if e.irp.Kind(op.Dst) == ir.KindFloat {
			s.FImm = 1
		} else {
			s.FImm = 0
		}
	}
	if op.Mem != nil {
		s.Array = op.Mem.Array
		disp := int64(e.prog.Array(op.Mem.Array).Base) + op.Mem.Disp
		if disp != int64(int32(disp)) {
			e.fail(fmt.Errorf("codegen: %s displacement %d does not fit a 32-bit field", op.Mem.Array, disp))
		}
		s.Disp = int32(disp)
	}
	return s
}

// ringFor builds the rotation ring of an expanded register for the op
// instance at relative iteration iter: ring[j] is the physical copy the
// operand needs at rotating register base j, i.e. copy (iter+j) mod n.
// At RRB = p (kernel pass p, epilog after p passes) the hardware then
// resolves the operand to the copy of absolute iteration iter+p — which
// is exactly the iteration the instance executes.  Nil for static
// operands and non-rotating plans.
func (e *emitter) ringFor(r ir.VReg, iter int, plan *pipeline.Plan) []int32 {
	if plan == nil || !plan.Rotating {
		return nil
	}
	n := plan.Copies[r]
	if n <= 1 {
		return nil
	}
	ring := make([]int32, n)
	for j := 0; j < n; j++ {
		ring[j] = e.physReg(r, ((iter+j)%n+n)%n)
	}
	return ring
}

// posRange returns the smallest and largest op position inside a block
// tree (MaxInt64 and -1 when it holds no ops).
func (e *emitter) posRange(b *ir.Block) (lo, hi int) {
	lo, hi = math.MaxInt64, -1
	b.Walk(func(s ir.Stmt) bool {
		if o, ok := s.(*ir.OpStmt); ok {
			lo, hi = min(lo, e.pos[o.Op.ID]), max(hi, e.pos[o.Op.ID])
		}
		return true
	})
	return lo, hi
}

// emitBlock lowers a block region by region.
func (e *emitter) emitBlock(b *ir.Block) {
	var run []*ir.Op
	flushRun := func() {
		if len(run) > 0 {
			e.emitBasicBlock(run)
			run = nil
		}
	}
	for _, s := range b.Stmts {
		if e.err != nil {
			return
		}
		switch s := s.(type) {
		case *ir.OpStmt:
			run = append(run, s.Op)
		case *ir.IfStmt:
			flushRun()
			e.emitIf(s)
		case *ir.LoopStmt:
			flushRun()
			e.emitLoop(s)
			// releaseDead applies the iteration-local safety rule when
			// this loop is itself nested.
			_, last := e.posRange(s.Body)
			e.releaseDead(last)
		}
	}
	flushRun()
}

// emitBasicBlock list-schedules a straight-line run and emits it as a
// region of its own.
func (e *emitter) emitBasicBlock(ops []*ir.Op) {
	rows, err := e.compactRows(ops, nil)
	if err != nil {
		e.fail(err)
		return
	}
	e.closeRegion(&loopPayload{rows: rows})
	maxP := -1
	for _, op := range ops {
		maxP = max(maxP, e.pos[op.ID])
	}
	e.releaseDead(maxP)
}

// emitIf lowers a conditional as control flow (used outside pipelined
// loops; conditionals inside pipelined loops go through hierarchical
// reduction instead).
func (e *emitter) emitIf(s *ir.IfStmt) {
	cond := e.physReg(s.Cond, 0)
	jzAt := len(e.out)
	e.append(vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlJZ, Reg: cond}})
	e.emitBlock(s.Then)
	jmpAt := len(e.out)
	e.append(vliw.Instr{Ctl: vliw.Ctl{Kind: vliw.CtlJump}})
	e.out[jzAt].Ctl.Target = e.next()
	e.emitBlock(s.Else)
	e.out[jmpAt].Ctl.Target = e.next()
}

// emitResults records the physical registers holding named results.
func (e *emitter) emitResults() {
	for _, r := range e.irp.Results {
		e.prog.Results = append(e.prog.Results, vliw.Result{
			Name: r.Name,
			Kind: e.irp.Kind(r.Reg),
			Reg:  int(e.physReg(r.Reg, 0)),
		})
	}
}
