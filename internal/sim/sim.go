// Package sim executes VLIW object programs cycle-accurately: every slot
// of an instruction issues in the same cycle, results are written back a
// fixed latency later, and loads/stores access a flat data memory.  It is
// the stand-in for the Warp cell hardware of Lam (PLDI 1988); MFLOPS
// figures come from counted floating-point issues over counted cycles at
// the machine's clock rate (5 MHz for the Warp-like cell).
//
// Timing contract (the dependence delays in internal/depgraph mirror it):
//   - operands are read at issue, after the cycle's register write-backs;
//   - a result issued at t with latency L is readable from t+L on;
//   - loads read memory at issue; stores write memory at issue but after
//     all loads of the same instruction;
//   - control takes effect at the next cycle (no branch delay slots).
//
// The per-cycle loop is allocation-free in steady state: instructions are
// pre-decoded into a dense form with array bases/bounds resolved, pending
// write-backs live in a latency-bounded circular buffer indexed by
// cycle mod (maxLatency+1), and write-back conflict detection uses flat
// per-register stamp slices instead of maps.
package sim

import (
	"context"
	"fmt"
	"io"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// Stats reports what a run cost.
type Stats struct {
	Cycles int64
	Flops  int64
	Instrs int64 // instruction words executed
	Ops    int64 // slot operations executed
}

// MFLOPS converts the counters to a rate on machine m, scaled by `cells`
// identical cells (pass m.Cells for homogeneous array programs, 1 for a
// single cell).
func (s Stats) MFLOPS(m *machine.Machine, cells int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Flops) * m.ClockMHz / float64(s.Cycles) * float64(cells)
}

type writeback struct {
	isFloat bool
	reg     int
	f       float64
	i       int64
	pc      int // issuing instruction, for diagnostics
}

type memStore struct {
	isFloat bool
	addr    int64
	f       float64
	i       int64
}

// Sim is a single-cell simulator instance: the one cell state and the one
// cycle Step.  A cell of a Decoded program carries steady-state blocks Run
// may engage (fast.go); a cell from New is the step-only reference the
// differential tests hold the fast path to.  Step, and therefore every
// array, is the same code either way.
type Sim struct {
	// MaxCycles guards against runaway programs; 0 means a generous
	// default.
	MaxCycles int64
	// Trace, when non-nil, receives one line per executed instruction
	// word (cycle, pc, disassembly) for the first TraceCycles cycles
	// (0 means unlimited).  A traced Run never engages the fast path.
	Trace       io.Writer
	TraceCycles int64
	// InputTape feeds Recv operations when the cell runs standalone;
	// OutputTape collects Send values.  Inside an Array the inter-cell
	// queues are used instead.
	InputTape  []float64
	OutputTape []float64
	// Ctx, when non-nil, is polled every few thousand cycles (at
	// iteration boundaries inside the fast path): a canceled or
	// deadlined context aborts Run with an error wrapping ctx.Err().
	// The serving layer bounds simulation requests with it.
	Ctx context.Context

	prog *Program

	fregs []float64
	iregs []int64
	memF  []float64 // parallel typed views of the flat memory
	memI  []int64

	// ring[t mod len(ring)] holds the write-backs landing at cycle t;
	// len(ring) is a power of two > maxLatency, so a result issued at t
	// (due ≤ t+maxLat) never wraps onto a slot that has not been drained
	// yet.  Slots are truncated, not freed, after application: in steady
	// state they keep their capacity and the loop allocates nothing.
	ring     [][]writeback
	nPending int

	// lastWF/lastWI[r] = cycle+1 of the last write-back applied to the
	// register, for same-cycle conflict detection without per-cycle maps.
	lastWF []int64
	lastWI []int64

	// storeBuf is the reusable same-instruction store staging area
	// (loads of an instruction read memory before its stores land).
	storeBuf []memStore

	stats Stats

	// Execution cursor (local cell time; stalls freeze it so the
	// scheduled timing is preserved exactly).
	pc     int
	t      int64
	rrb    int64 // rotating register base (iteration counter mod ring sizes)
	halted bool
	inPos  int
	inQ    *Queue
	outQ   *Queue

	// blocked describes the queue operation the last (stalled) Step
	// could not complete; valid only while the cell is stalled.
	blocked      machine.Class
	blockedValid bool

	// Fast-path state (fast.go): bstates[i] is the lazily allocated
	// delay-buffer state of program block i, fpool/ipool alias the
	// engaged block's buffers, fastErr is the first memory fault of the
	// current fast-path iteration.
	bstates []*blockState
	fpool   []float64
	ipool   []int64
	fastErr error
}

// BlockedOn reports the queue operation class (ClassRecv or ClassSend)
// the cell's last Step stalled on, along with the frozen program counter
// and local cycle; ok is false when the cell is not currently stalled.
// Array deadlock diagnostics use it to name each blocked cell.
func (s *Sim) BlockedOn() (class machine.Class, pc int, cycle int64, ok bool) {
	if !s.blockedValid {
		return 0, 0, 0, false
	}
	return s.blocked, s.pc, s.t, true
}

// Queue is a bounded FIFO channel between adjacent cells (each Warp cell
// has a 512-word queue per communication channel, Lam §1).  Values are
// popped via a head cursor so steady-state traffic does not reallocate.
type Queue struct {
	buf  []float64
	head int
	cap  int
}

// NewQueue returns an empty queue with the given capacity (0 means
// unbounded, used for the host-side tapes).
func NewQueue(capacity int) *Queue { return &Queue{cap: capacity} }

// Len reports the queued word count.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Cap reports the queue capacity (0 means unbounded).
func (q *Queue) Cap() int { return q.cap }

// Full reports whether a push would exceed the capacity (never true for
// unbounded queues).
func (q *Queue) Full() bool { return q.cap > 0 && q.Len() >= q.cap }

// Empty reports whether the queue holds no values.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// Push appends a value.  Callers are responsible for checking Full first;
// the simulator's stall logic guarantees it.
func (q *Queue) Push(v float64) { q.buf = append(q.buf, v) }

// Pop removes and returns the head value.  Callers must check Empty
// first.
func (q *Queue) Pop() float64 {
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		// Drained: recycle the backing array.
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 1024 && q.head*2 >= len(q.buf) {
		// Mostly-consumed long queue: compact so the backing array
		// stays proportional to the live contents.
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}

// contents returns the live queued values (host-side collection).
func (q *Queue) contents() []float64 { return q.buf[q.head:] }

// New prepares a step-only cell for p with initialized memory.  A
// program that does not decode (unsupported class, unknown array,
// out-of-range register) reports the error on the first Step or Run.
func New(p *vliw.Program, m *machine.Machine) *Sim { return NewCell(decode(p, m)) }

// NewCell prepares an execution instance of a decoded program with
// initialized memory.  Cells share the Program and nothing else.
func NewCell(p *Program) *Sim {
	src := p.Src
	if p.err != nil {
		// Sized by a program that did not decode: allocate nothing, and
		// let the first Step report why.
		return newCell(p, nil, nil, nil, nil)
	}
	return newCell(p, make([]float64, src.NumFRegs), make([]int64, src.NumIRegs),
		make([]float64, src.MemWords), make([]int64, src.MemWords))
}

// newCell builds a cell over caller-provided (zeroed) register files and
// memories; a Batch lays its lanes out in shared arenas through it.
func newCell(p *Program, fregs []float64, iregs []int64, memF []float64, memI []int64) *Sim {
	s := &Sim{
		prog:    p,
		fregs:   fregs,
		iregs:   iregs,
		memF:    memF,
		memI:    memI,
		ring:    make([][]writeback, p.ringLen),
		lastWF:  make([]int64, len(fregs)),
		lastWI:  make([]int64, len(iregs)),
		bstates: make([]*blockState, p.Blocks()),
	}
	if p.err != nil {
		return s
	}
	for _, a := range p.Src.Arrays {
		if a.Kind == ir.KindFloat {
			copy(s.memF[a.Base:a.Base+a.Size], p.Src.InitF[a.Name])
		} else {
			copy(s.memI[a.Base:a.Base+a.Size], p.Src.InitI[a.Name])
		}
	}
	return s
}

// Run executes the program until halt and returns the observable state.
// Standalone cells never stall: Recv reads the input tape (erroring past
// its end) and Send appends to the output tape.  When the program carries
// steady-state blocks, Run retires whole kernel iterations through the
// fast path wherever one engages and Steps everything else; a traced run
// Steps every cycle.
func (s *Sim) Run() (*ir.State, error) {
	max := s.MaxCycles
	if max == 0 {
		max = 200_000_000
	}
	blocks := s.prog.blocks
	if s.Trace != nil {
		blocks = nil
	}
	for !s.halted {
		if s.t >= max {
			return nil, fmt.Errorf("sim: exceeded %d cycles (pc=%d)", max, s.pc)
		}
		if s.Ctx != nil && s.t&0x1fff == 0 {
			if err := s.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: run aborted at cycle %d: %w", s.t, err)
			}
		}
		if uint(s.pc) < uint(len(blocks)) {
			if b := blocks[s.pc]; b != nil && s.t+int64(b.ii) <= max && s.tryEngage(b) {
				if err := s.runFast(b, max); err != nil {
					return nil, err
				}
				continue
			}
		}
		stalled, err := s.Step()
		if err != nil {
			return nil, err
		}
		if stalled {
			return nil, fmt.Errorf("sim: cell stalled outside an array (pc=%d)", s.pc)
		}
	}
	if err := s.Drain(max); err != nil {
		return nil, err
	}
	s.stats.Cycles = s.t
	return s.State(), nil
}

// Drain advances local time until every in-flight write-back has landed.
// Like Run it honors s.Ctx, so a deadlined request cannot hang in the
// post-halt drain phase (polled every iteration — drain is a cold path
// bounded by the ring length, so the check is free in practice).
func (s *Sim) Drain(max int64) error {
	for s.nPending > 0 {
		if s.Ctx != nil {
			if err := s.Ctx.Err(); err != nil {
				return fmt.Errorf("sim: drain aborted at cycle %d: %w", s.t, err)
			}
		}
		if err := s.applyWritebacks(s.t); err != nil {
			return err
		}
		s.t++
		if max > 0 && s.t >= max {
			return fmt.Errorf("sim: drain exceeded %d cycles", max)
		}
	}
	return nil
}

// SetQueues attaches inter-cell channels; nil restores the host-side
// tape behavior on that side.
func (s *Sim) SetQueues(in, out *Queue) { s.inQ, s.outQ = in, out }

// Halted reports whether the cell has executed its halt instruction.
func (s *Sim) Halted() bool { return s.halted }

// Step executes one local cycle.  When the instruction needs a queue
// operation that cannot proceed (empty input, full output) the cell
// stalls: local time freezes (in-flight write-backs hold with it), so
// the compiler's cycle-exact schedule is preserved and only dilated.
func (s *Sim) Step() (stalled bool, err error) {
	if s.halted {
		return false, nil
	}
	p := s.prog
	if p.err != nil {
		return false, p.err
	}
	pc := s.pc
	t := s.t
	if pc < 0 || pc >= len(p.words) {
		return false, fmt.Errorf("sim: pc %d out of range at cycle %d", pc, t)
	}
	w := &p.words[pc]
	ops := p.ops[w.lo:w.hi]
	if w.queue {
		for oi := range ops {
			switch ops[oi].class {
			case machine.ClassRecv:
				if s.inQ != nil && s.inQ.Empty() {
					s.blocked, s.blockedValid = machine.ClassRecv, true
					return true, nil
				}
				if s.inQ == nil && s.inPos >= len(s.InputTape) {
					return false, fmt.Errorf("sim: receive beyond end of input tape (pc=%d)", pc)
				}
			case machine.ClassSend:
				if s.outQ != nil && s.outQ.Full() {
					s.blocked, s.blockedValid = machine.ClassSend, true
					return true, nil
				}
			}
		}
	}
	s.blockedValid = false
	if err := s.applyWritebacks(t); err != nil {
		return false, err
	}
	if s.Trace != nil && (s.TraceCycles == 0 || t < s.TraceCycles) {
		fmt.Fprintf(s.Trace, "%8d  @%-5d %s\n", t, pc, p.Src.Instrs[pc].String())
	}
	next := pc + 1
	s.stats.Ops += int64(len(ops))
	s.stats.Flops += w.flops
	// Issue all slots: reads first, then memory stores, then queued
	// register write-backs.
	stores := s.storeBuf[:0]
	for oi := range ops {
		o := &ops[oi]
		if o.rotates {
			// Resolve ring operands against the current rotating base on
			// a scratch copy; the pre-decoded form stays position-independent.
			ro := *o
			ro.dst = vliw.EffReg(ro.dst, ro.dstRing, s.rrb)
			for k := range ro.src {
				ro.src[k] = vliw.EffReg(ro.src[k], ro.srcRing[k], s.rrb)
			}
			o = &ro
		}
		lat := o.lat
		switch o.class {
		case machine.ClassNop:
		case machine.ClassFAdd:
			s.wb(t+lat, pc, true, o.dst, s.fregs[o.src[0]]+s.fregs[o.src[1]], 0)
		case machine.ClassFSub:
			s.wb(t+lat, pc, true, o.dst, s.fregs[o.src[0]]-s.fregs[o.src[1]], 0)
		case machine.ClassFMul:
			s.wb(t+lat, pc, true, o.dst, s.fregs[o.src[0]]*s.fregs[o.src[1]], 0)
		case machine.ClassFNeg:
			s.wb(t+lat, pc, true, o.dst, -s.fregs[o.src[0]], 0)
		case machine.ClassFMov:
			s.wb(t+lat, pc, true, o.dst, s.fregs[o.src[0]], 0)
		case machine.ClassFConst:
			s.wb(t+lat, pc, true, o.dst, o.fimm, 0)
		case machine.ClassRecv:
			var v float64
			if s.inQ != nil {
				v = s.inQ.Pop()
			} else {
				v = s.InputTape[s.inPos]
				s.inPos++
			}
			s.wb(t+lat, pc, true, o.dst, v, 0)
		case machine.ClassSend:
			if s.outQ != nil {
				s.outQ.Push(s.fregs[o.src[0]])
			} else {
				s.OutputTape = append(s.OutputTape, s.fregs[o.src[0]])
			}
		case machine.ClassFRecipSeed:
			s.wb(t+lat, pc, true, o.dst, ir.RecipSeed(s.fregs[o.src[0]]), 0)
		case machine.ClassFRsqrtSeed:
			s.wb(t+lat, pc, true, o.dst, ir.RsqrtSeed(s.fregs[o.src[0]]), 0)
		case machine.ClassF2I:
			s.wb(t+lat, pc, false, o.dst, 0, int64(s.fregs[o.src[0]]))
		case machine.ClassI2F:
			s.wb(t+lat, pc, true, o.dst, float64(s.iregs[o.src[0]]), 0)
		case machine.ClassFCmp:
			v := b2i(ir.Pred(o.iimm).Eval(signF(s.fregs[o.src[0]], s.fregs[o.src[1]])))
			s.wb(t+lat, pc, false, o.dst, 0, v)
		case machine.ClassIAdd, machine.ClassAdrAdd:
			s.wb(t+lat, pc, false, o.dst, 0, s.iregs[o.src[0]]+s.iregs[o.src[1]])
		case machine.ClassISub:
			s.wb(t+lat, pc, false, o.dst, 0, s.iregs[o.src[0]]-s.iregs[o.src[1]])
		case machine.ClassIMul:
			s.wb(t+lat, pc, false, o.dst, 0, s.iregs[o.src[0]]*s.iregs[o.src[1]])
		case machine.ClassIMov:
			s.wb(t+lat, pc, false, o.dst, 0, s.iregs[o.src[0]])
		case machine.ClassIConst:
			s.wb(t+lat, pc, false, o.dst, 0, o.iimm)
		case machine.ClassIShr:
			s.wb(t+lat, pc, false, o.dst, 0, int64(uint64(s.iregs[o.src[0]])>>uint(o.iimm)))
		case machine.ClassIAnd:
			s.wb(t+lat, pc, false, o.dst, 0, s.iregs[o.src[0]]&o.iimm)
		case machine.ClassICmp:
			v := b2i(ir.Pred(o.iimm).Eval(signI(s.iregs[o.src[0]], s.iregs[o.src[1]])))
			s.wb(t+lat, pc, false, o.dst, 0, v)
		case machine.ClassISelect:
			which := o.src[2]
			if s.iregs[o.src[0]] != 0 {
				which = o.src[1]
			}
			if o.selFloat {
				s.wb(t+lat, pc, true, o.dst, s.fregs[which], 0)
			} else {
				s.wb(t+lat, pc, false, o.dst, 0, s.iregs[which])
			}
		case machine.ClassLoad:
			addr := s.iregs[o.src[0]] + o.disp
			if addr < o.arrBase || addr >= o.arrEnd {
				return false, boundsErr(o, pc, t, addr)
			}
			if o.arrFloat {
				s.wb(t+lat, pc, true, o.dst, s.memF[addr], 0)
			} else {
				s.wb(t+lat, pc, false, o.dst, 0, s.memI[addr])
			}
		case machine.ClassStore:
			addr := s.iregs[o.src[0]] + o.disp
			if addr < o.arrBase || addr >= o.arrEnd {
				return false, boundsErr(o, pc, t, addr)
			}
			if o.arrFloat {
				stores = append(stores, memStore{isFloat: true, addr: addr, f: s.fregs[o.src[1]]})
			} else {
				stores = append(stores, memStore{addr: addr, i: s.iregs[o.src[1]]})
			}
		default:
			return false, fmt.Errorf("sim: @%d: cannot execute class %v", pc, o.class)
		}
	}
	for i := range stores {
		st := &stores[i]
		if st.isFloat {
			s.memF[st.addr] = st.f
		} else {
			s.memI[st.addr] = st.i
		}
	}
	s.storeBuf = stores[:0]
	ctl := &w.ctl
	switch ctl.Kind {
	case vliw.CtlNone:
	case vliw.CtlHalt:
		s.halted = true
	case vliw.CtlJump:
		next = ctl.Target
	case vliw.CtlDBNZ:
		s.iregs[ctl.Reg]--
		if s.iregs[ctl.Reg] != 0 {
			next = ctl.Target
		}
		if ctl.Rotate {
			// The base advances once per kernel pass, taken or not, so the
			// epilog sees the base of the pass after the last.
			s.rrb++
		}
	case vliw.CtlJZ:
		if s.iregs[vliw.EffReg(ctl.Reg, ctl.RegRing, s.rrb)] == 0 {
			next = ctl.Target
		}
	case vliw.CtlJNZ:
		if s.iregs[vliw.EffReg(ctl.Reg, ctl.RegRing, s.rrb)] != 0 {
			next = ctl.Target
		}
	case vliw.CtlRotClear:
		s.rrb = 0
	}
	s.stats.Instrs++
	s.t++
	s.pc = next
	return false, nil
}

// Stats reports the counters of the completed run.
func (s *Sim) Stats() Stats { return s.stats }

func boundsErr(o *decOp, pc int, t int64, addr int64) error {
	return fmt.Errorf("sim: @%d cycle %d: %s[%d] out of bounds (size %d)",
		pc, t, o.arrName, addr-o.arrBase, o.arrEnd-o.arrBase)
}

func (s *Sim) wb(due int64, pc int, isFloat bool, reg int, f float64, i int64) {
	slot := int(due) & (len(s.ring) - 1)
	r := s.ring[slot]
	n := len(r)
	if n < cap(r) {
		r = r[:n+1]
	} else {
		r = append(r, writeback{})
	}
	// Field stores straight into the slot: appending a composite literal
	// builds it on the stack and copies it with wide moves the narrow
	// stores cannot forward to (the hottest stall in Step's profile).
	w := &r[n]
	w.isFloat, w.reg, w.f, w.i, w.pc = isFloat, reg, f, i, pc
	s.ring[slot] = r
	s.nPending++
}

func (s *Sim) applyWritebacks(t int64) error {
	slot := int(t) & (len(s.ring) - 1)
	wbs := s.ring[slot]
	if len(wbs) == 0 {
		return nil
	}
	stamp := t + 1 // 0 marks "never written"
	for k := range wbs {
		w := &wbs[k]
		if w.isFloat {
			if s.lastWF[w.reg] == stamp {
				return fmt.Errorf("sim: write-back conflict on f%d at cycle %d (pc %d and %d)",
					w.reg, t, prevWriter(wbs[:k], true, w.reg), w.pc)
			}
			s.lastWF[w.reg] = stamp
			s.fregs[w.reg] = w.f
		} else {
			if s.lastWI[w.reg] == stamp {
				return fmt.Errorf("sim: write-back conflict on i%d at cycle %d (pc %d and %d)",
					w.reg, t, prevWriter(wbs[:k], false, w.reg), w.pc)
			}
			s.lastWI[w.reg] = stamp
			s.iregs[w.reg] = w.i
		}
	}
	s.nPending -= len(wbs)
	s.ring[slot] = wbs[:0]
	return nil
}

// prevWriter finds the pc of the earlier write-back to reg in the slot
// (diagnostics only; conflicts abort the run).
func prevWriter(wbs []writeback, isFloat bool, reg int) int {
	for k := range wbs {
		if wbs[k].isFloat == isFloat && wbs[k].reg == reg {
			return wbs[k].pc
		}
	}
	return -1
}

// State snapshots the observable program state: declared arrays and
// result scalars.
func (s *Sim) State() *ir.State {
	var nf, ni int
	for _, a := range s.prog.Src.Arrays {
		if a.Kind == ir.KindFloat {
			nf++
		} else {
			ni++
		}
	}
	st := &ir.State{
		FloatArrays: make(map[string][]float64, nf),
		IntArrays:   make(map[string][]int64, ni),
		Scalars:     make(map[string]float64, len(s.prog.Src.Results)),
	}
	for _, a := range s.prog.Src.Arrays {
		if a.Kind == ir.KindFloat {
			st.FloatArrays[a.Name] = append([]float64(nil), s.memF[a.Base:a.Base+a.Size]...)
		} else {
			st.IntArrays[a.Name] = append([]int64(nil), s.memI[a.Base:a.Base+a.Size]...)
		}
	}
	for _, r := range s.prog.Src.Results {
		if r.Kind == ir.KindFloat {
			st.Scalars[r.Name] = s.fregs[r.Reg]
		} else {
			st.Scalars[r.Name] = float64(s.iregs[r.Reg])
		}
	}
	return st
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func signF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func signI(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Run executes p on machine m step by step, never engaging the fast path,
// and returns state and stats: the reference the product's runs (Decode,
// NewCell, Sim.Run) are held bit-identical to.
func Run(p *vliw.Program, m *machine.Machine) (*ir.State, Stats, error) {
	s := New(p, m)
	st, err := s.Run()
	return st, s.stats, err
}
