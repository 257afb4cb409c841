// Steady-state fast path: an innermost DBNZ self-loop whose body has no
// other control flow and no queue traffic is a "block".  Once the
// write-back ring holds exactly the loop's own in-flight results, the
// block's timing is periodic with period II (the block length), so the
// generic per-cycle machinery — ring appends, conflict stamps, control
// dispatch, per-op stat increments — can be replaced by per-op modulo
// delay buffers (Lam's observation that the kernel dominates, applied to
// the simulator itself).
//
// In steady state the register file is pure plumbing: the only writes to
// it are the loop's own landings, and every landed value has a unique
// producer op whose issue history lives in that op's delay buffer.  So
// the fast path does not touch registers at all: each consumer reads its
// producer's buffer directly at a build-time-computed lag (the value a
// register would hold at cycle j of iteration m is the producer's issue
// from iteration m-lag, where lag is the producer's iteration distance
// q, plus one if its landing cycle comes after j).  Buffers are
// power-of-two sized and indexed by the iteration counter, so a read is
// one masked index — no landing loop, no cursor state.  Operands no
// block op lands stay plain register reads (the file is frozen while the
// fast path runs, so they are loop-invariant).  Registers are
// materialized once at exit from each landed register's latest producer.
//
// Correctness is structural, not probabilistic:
//
//   - Engagement transfers the ring's pending write-backs into the delay
//     buffers and only succeeds when the ring matches the block's steady
//     pattern exactly (same count, and one entry per expected (due slot,
//     pc, file, reg) — within a slot that 4-tuple is unique for a
//     conflict-free block, because all dues in the ring fit one ring
//     window).  Preamble results still in flight make the match fail and
//     the block simply runs another warm-up iteration generically.  The
//     register file's current value of each landed register seeds the
//     slot that lag-q+1 readers see at iteration zero.
//   - Blocks where two ops would ever land on the same register in the
//     same cycle ((file, reg, (j+lat) mod II) collision) are rejected at
//     build time; the interpreter would abort such a loop with a
//     write-back conflict, so those keep the generic path and its exact
//     diagnostics.  Blocks that read or write the DBNZ counter register
//     inside the body are rejected too: the fast path retires whole
//     iteration batches and only materializes the counter at the end.
//   - On every exit (counter reached zero, cycle budget, ctx poll) the
//     registers are materialized and the buffers' still-in-flight values
//     re-injected into the ring at their exact due cycles, so the epilog
//     and drain see precisely the state the interpreter would have.
//   - The fast path never starts an iteration that could cross MaxCycles:
//     it hands back to the generic loop, which reports the overrun at the
//     identical cycle and pc.

package sim

import (
	"fmt"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// fastExec issues one slot op at iteration m of the engaged block (the
// cell's local time is frozen at the engagement cycle while the fast
// path runs).  Memory faults go to c.fastErr, checked once per
// iteration.
type fastExec func(c *Sim, m int64)

// fastOp is one slot operation of a block with its periodic timing
// resolved: issued at block cycle j, its result lands q iterations later
// at block cycle r (j+lat = q*II + r).  Its delay buffer is the window
// [off, off+mask+1) of the block's pooled float or int arena, written at
// slot m&mask on iteration m.
type fastOp struct {
	j       int
	q       int
	r       int
	dst     int
	isFloat bool
	hasDst  bool
	pc      int
	lat     int64
	off     int32
	mask    int64
}

// opnd is a resolved operand: either a delay-buffer read at a fixed lag
// behind the iteration counter, or a loop-invariant register read.
type opnd struct {
	pool bool
	off  int32
	reg  int32
	lag  int64
	mask int64
}

func (x opnd) getF(c *Sim, m int64) float64 {
	if x.pool {
		return c.fpool[int64(x.off)+((m-x.lag)&x.mask)]
	}
	return c.fregs[x.reg]
}

func (x opnd) getI(c *Sim, m int64) int64 {
	if x.pool {
		return c.ipool[int64(x.off)+((m-x.lag)&x.mask)]
	}
	return c.iregs[x.reg]
}

func putF(c *Sim, off int32, mask, m int64, v float64) {
	c.fpool[int64(off)+(m&mask)] = v
}

func putI(c *Sim, off int32, mask, m int64, v int64) {
	c.ipool[int64(off)+(m&mask)] = v
}

// matEntry materializes one landed register at exit: the producer with
// the latest landing cycle of that (file, reg), whose last landed issue
// is from iteration n-1-q.
type matEntry struct {
	isFloat bool
	reg     int
	off     int32
	mask    int64
	q       int64
}

// block is a fast-path-eligible kernel loop [head, head+ii).
type block struct {
	idx      int
	head     int
	ii       int
	ctlReg   int
	ops      []fastOp
	execs    []fastExec // slot order, staged-store applies interleaved
	mats     []matEntry
	pending  int // expected in-flight write-backs in steady state
	nOps     int64
	flops    int64
	fpoolLen int
	ipoolLen int
}

// blockState is the per-cell runtime state of one block: just the two
// pooled buffer arenas — all cursors are functions of the iteration
// counter.
type blockState struct {
	fpool []float64
	ipool []int64
}

// buildBlocks scans the decoded program for eligible kernel loops.
func (p *Program) buildBlocks() {
	p.blocks = make([]*block, len(p.words))
	idx := 0
	for e := range p.words {
		ct := &p.words[e].ctl
		// Rotating kernels stay on the generic path: the fast path's
		// delay-buffer cursors assume register identity is static, and a
		// Rotate-marked loop-back changes it every pass.
		if ct.Kind != vliw.CtlDBNZ || ct.Target < 0 || ct.Target > e || ct.Rotate {
			continue
		}
		h := ct.Target
		if b := p.makeBlock(idx, h, e); b != nil {
			p.blocks[h] = b
			idx++
		}
	}
}

// makeBlock validates [h,e] and resolves its periodic timing; nil means
// the loop keeps the generic path.
func (p *Program) makeBlock(idx, h, e int) *block {
	ii := e - h + 1
	for pc := h; pc < e; pc++ {
		if p.words[pc].ctl.Kind != vliw.CtlNone {
			return nil
		}
	}
	ctlReg := p.words[e].ctl.Reg
	b := &block{idx: idx, head: h, ii: ii, ctlReg: ctlReg}
	staged := make([]bool, ii)
	type lkey struct {
		isFloat bool
		reg     int
	}
	landers := make(map[lkey][]int) // op indices landing each register
	seen := make(map[landKey]bool)
	for pc := h; pc <= e; pc++ {
		j := pc - h
		sawStore := false
		w := &p.words[pc]
		b.nOps += int64(w.hi - w.lo)
		b.flops += w.flops
		for oi := w.lo; oi < w.hi; oi++ {
			o := &p.ops[oi]
			if o.rotates {
				return nil // rotating operands: generic path only
			}
			switch o.class {
			case machine.ClassNop:
				continue
			case machine.ClassRecv, machine.ClassSend:
				return nil // queue traffic: generic path only
			case machine.ClassLoad:
				if sawStore {
					staged[j] = true // a load after a store: keep staging
				}
			case machine.ClassStore:
				sawStore = true
			}
			if o.touchesIntReg(ctlReg) {
				return nil // body uses the loop counter as data
			}
			fo := fastOp{j: j, pc: pc, lat: o.lat}
			if o.class != machine.ClassStore {
				fo.hasDst = true
				fo.dst = o.dst
				fo.isFloat = o.dstFile == machine.FileFloat
				tot := j + int(o.lat)
				fo.q, fo.r = tot/ii, tot%ii
				k := landKey{fo.isFloat, fo.dst, fo.r}
				if seen[k] {
					// Steady state would hit a write-back conflict; let
					// the interpreter-equivalent generic path report it.
					return nil
				}
				seen[k] = true
				b.pending += fo.q
				landers[lkey{fo.isFloat, fo.dst}] = append(landers[lkey{fo.isFloat, fo.dst}], len(b.ops))
			}
			b.ops = append(b.ops, fo)
		}
	}
	// Pool layout: each result op gets a power-of-two window big enough
	// for its in-flight history plus the engagement seed (q+2 slots).
	for k := range b.ops {
		fo := &b.ops[k]
		if !fo.hasDst {
			continue
		}
		cap := 2
		for cap < fo.q+2 {
			cap <<= 1
		}
		fo.mask = int64(cap - 1)
		if fo.isFloat {
			fo.off = int32(b.fpoolLen)
			b.fpoolLen += cap
		} else {
			fo.off = int32(b.ipoolLen)
			b.ipoolLen += cap
		}
	}
	// res maps "register read at block cycle jX" to its steady-state
	// source: the producer with the latest landing at or before jX (lag
	// q), else the latest overall (lag q+1: last iteration's landing),
	// else the frozen register file (loop-invariant).
	res := func(isFloat bool, reg, jX int) opnd {
		cands := landers[lkey{isFloat, reg}]
		best, bestR := -1, -1
		for _, k := range cands {
			if b.ops[k].r <= jX && b.ops[k].r > bestR {
				best, bestR = k, b.ops[k].r
			}
		}
		extra := int64(0)
		if best < 0 {
			for _, k := range cands {
				if b.ops[k].r > bestR {
					best, bestR = k, b.ops[k].r
				}
			}
			extra = 1
		}
		if best < 0 {
			return opnd{reg: int32(reg)}
		}
		prod := &b.ops[best]
		return opnd{pool: true, off: prod.off, mask: prod.mask, lag: int64(prod.q) + extra}
	}
	oi := 0
	for pc := h; pc <= e; pc++ {
		j := pc - h
		for k := p.words[pc].lo; k < p.words[pc].hi; k++ {
			o := &p.ops[k]
			if o.class == machine.ClassNop {
				continue
			}
			fo := &b.ops[oi]
			fn := buildFastExec(o, fo, pc, ii, !staged[j], res)
			if fn == nil {
				return nil
			}
			b.execs = append(b.execs, fn)
			oi++
		}
		if staged[j] {
			b.execs = append(b.execs, applyStagedStores)
		}
	}
	for key, cands := range landers {
		best, bestR := -1, -1
		for _, k := range cands {
			if b.ops[k].r > bestR {
				best, bestR = k, b.ops[k].r
			}
		}
		prod := &b.ops[best]
		b.mats = append(b.mats, matEntry{
			isFloat: key.isFloat, reg: key.reg,
			off: prod.off, mask: prod.mask, q: int64(prod.q),
		})
	}
	return b
}

// landKey detects two ops landing the same register in the same steady-
// state cycle (a write-back conflict in interpreter terms).
type landKey struct {
	isFloat bool
	reg     int
	r       int
}

// applyStagedStores is the pseudo-op closing a cycle whose stores must
// stay invisible to that cycle's own loads.
func applyStagedStores(c *Sim, m int64) {
	for i := range c.storeBuf {
		s := &c.storeBuf[i]
		if s.isFloat {
			c.memF[s.addr] = s.f
		} else {
			c.memI[s.addr] = s.i
		}
	}
	c.storeBuf = c.storeBuf[:0]
}

// tryEngage checks that the ring holds exactly the block's steady-state
// in-flight pattern and, if so, moves those values into the delay
// buffers and seeds the previous-landing slots from the register file.
// A false return means "not warm yet" (or a transient shape the fast
// path does not model); the caller falls back to a generic step.
func (c *Sim) tryEngage(b *block) bool {
	if c.nPending != b.pending {
		return false
	}
	bs := c.bstates[b.idx]
	if bs == nil {
		bs = &blockState{
			fpool: make([]float64, b.fpoolLen),
			ipool: make([]int64, b.ipoolLen),
		}
		c.bstates[b.idx] = bs
	}
	c.fpool, c.ipool = bs.fpool, bs.ipool
	t0 := c.t
	ringMask := int64(len(c.ring) - 1)
	for k := range b.ops {
		op := &b.ops[k]
		if !op.hasDst {
			continue
		}
		for i := 1; i <= op.q; i++ {
			due := t0 + int64(op.j) + op.lat - int64(i*b.ii)
			slot := c.ring[due&ringMask]
			found := false
			for e := range slot {
				w := &slot[e]
				if w.pc == op.pc && w.isFloat == op.isFloat && w.reg == op.dst {
					idx := int64(op.off) + (int64(-i) & op.mask)
					if op.isFloat {
						bs.fpool[idx] = w.f
					} else {
						bs.ipool[idx] = w.i
					}
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	// Each landed register's current value is its latest producer's
	// previous landing: seed that producer's iteration -1-q slot so
	// lag-q+1 readers see it at iteration zero.
	for i := range b.mats {
		mt := &b.mats[i]
		idx := int64(mt.off) + ((-1 - mt.q) & mt.mask)
		if mt.isFloat {
			bs.fpool[idx] = c.fregs[mt.reg]
		} else {
			bs.ipool[idx] = c.iregs[mt.reg]
		}
	}
	// Count equality + per-slot uniqueness of (pc, file, reg) makes the
	// match a bijection: every pending entry is now owned by a buffer.
	for s := range c.ring {
		c.ring[s] = c.ring[s][:0]
	}
	c.nPending = 0
	return true
}

// runFast executes whole iterations of an engaged block.  The caller
// guarantees at least one iteration fits the cycle budget.  The
// iteration count is precomputed from the counter register and the
// budget, so the loop body carries no stat/counter/budget bookkeeping;
// ctx is polled between chunks on roughly the interpreter's stride.
// c.t stays frozen at the engagement cycle until the batch retires
// (fault cycles are reconstructed from the iteration counter).  On
// return the registers have been materialized and the buffers flushed
// back into the ring, so generic stepping (or the drain) resumes
// bit-identically.
func (c *Sim) runFast(b *block, max int64) error {
	ii := int64(b.ii)
	counter := c.iregs[b.ctlReg]
	iters := (max - c.t) / ii // ≥ 1, caller-checked
	counterExit := counter >= 1 && counter <= iters
	if counterExit {
		iters = counter
	}
	pollEvery := iters
	if c.Ctx != nil {
		pollEvery = 0x2000 / ii
		if pollEvery < 1 {
			pollEvery = 1
		}
	}
	var m int64
	for m < iters {
		stop := m + pollEvery
		if stop > iters {
			stop = iters
		}
		done, err := c.fastChunk(b, m, stop)
		if err != nil {
			c.finishFast(b, done, counter)
			return err
		}
		m = done
		if c.Ctx != nil && m < iters {
			if err := c.Ctx.Err(); err != nil {
				c.finishFast(b, m, counter)
				c.pc = b.head
				c.materialize(b, m)
				c.flush(b, m)
				return fmt.Errorf("sim: run aborted at cycle %d: %w", c.t, err)
			}
		}
	}
	c.finishFast(b, m, counter)
	if counterExit {
		c.pc = b.head + b.ii
	} else {
		c.pc = b.head
	}
	c.materialize(b, m)
	c.flush(b, m)
	return nil
}

// fastChunk runs whole iterations [m0, m1); it returns the number of
// fully completed iterations alongside the fault that stopped it, if
// any.
func (c *Sim) fastChunk(b *block, m0, m1 int64) (int64, error) {
	execs := b.execs
	for m := m0; m < m1; m++ {
		for _, fn := range execs {
			fn(c, m)
		}
		if c.fastErr != nil {
			err := c.fastErr
			c.fastErr = nil
			c.storeBuf = c.storeBuf[:0]
			return m, err
		}
	}
	return m1, nil
}

// finishFast retires the batched bookkeeping for `executed` iterations:
// local time, stats and the counter register.
func (c *Sim) finishFast(b *block, executed, counter int64) {
	c.t += executed * int64(b.ii)
	c.stats.Ops += executed * b.nOps
	c.stats.Flops += executed * b.flops
	c.stats.Instrs += executed * int64(b.ii)
	c.iregs[b.ctlReg] = counter - executed
}

// materialize writes each landed register's architectural value (its
// latest producer's last landed issue, from iteration n-1-q) back to the
// register file.
func (c *Sim) materialize(b *block, n int64) {
	for i := range b.mats {
		mt := &b.mats[i]
		idx := int64(mt.off) + ((n - 1 - mt.q) & mt.mask)
		if mt.isFloat {
			c.fregs[mt.reg] = c.fpool[idx]
		} else {
			c.iregs[mt.reg] = c.ipool[idx]
		}
	}
}

// flush re-injects the buffers' still-in-flight values (issues from
// iterations n-1 down to n-q) into the ring at their exact due cycles,
// restoring the invariant the generic path and the drain rely on.
func (c *Sim) flush(b *block, n int64) {
	for k := range b.ops {
		op := &b.ops[k]
		if !op.hasDst || op.q == 0 {
			continue
		}
		for i := 1; i <= op.q; i++ {
			due := c.t + int64(op.j) + op.lat - int64(i*b.ii)
			idx := int64(op.off) + ((n - int64(i)) & op.mask)
			if op.isFloat {
				c.wb(due, op.pc, true, op.dst, c.fpool[idx], 0)
			} else {
				c.wb(due, op.pc, false, op.dst, 0, c.ipool[idx])
			}
		}
	}
}

// buildFastExec specializes one block op for the steady state: operand
// sources resolve to delay-buffer lags or frozen registers via res,
// results go to the op's pool window, and memory faults set c.fastErr
// with the true absolute cycle (c.t is the engagement cycle, so the
// fault cycle is c.t + m*II + j).  directStore applies stores straight
// to memory (legal when no load follows a store in the cycle's slot
// order).  Nil marks an op the fast path cannot run.
func buildFastExec(o *decOp, fo *fastOp, pc, ii int, directStore bool, res func(isFloat bool, reg, jX int) opnd) fastExec {
	j := fo.j
	dOff, dMask := fo.off, fo.mask
	ii64, jOff := int64(ii), int64(j)
	switch o.class {
	case machine.ClassFAdd:
		a, b := res(true, o.src[0], j), res(true, o.src[1], j)
		return func(c *Sim, m int64) { putF(c, dOff, dMask, m, a.getF(c, m)+b.getF(c, m)) }
	case machine.ClassFSub:
		a, b := res(true, o.src[0], j), res(true, o.src[1], j)
		return func(c *Sim, m int64) { putF(c, dOff, dMask, m, a.getF(c, m)-b.getF(c, m)) }
	case machine.ClassFMul:
		a, b := res(true, o.src[0], j), res(true, o.src[1], j)
		return func(c *Sim, m int64) { putF(c, dOff, dMask, m, a.getF(c, m)*b.getF(c, m)) }
	case machine.ClassFNeg:
		a := res(true, o.src[0], j)
		return func(c *Sim, m int64) { putF(c, dOff, dMask, m, -a.getF(c, m)) }
	case machine.ClassFMov:
		a := res(true, o.src[0], j)
		return func(c *Sim, m int64) { putF(c, dOff, dMask, m, a.getF(c, m)) }
	case machine.ClassFConst:
		fimm := o.fimm
		return func(c *Sim, m int64) { putF(c, dOff, dMask, m, fimm) }
	case machine.ClassFRecipSeed:
		a := res(true, o.src[0], j)
		return func(c *Sim, m int64) { putF(c, dOff, dMask, m, ir.RecipSeed(a.getF(c, m))) }
	case machine.ClassFRsqrtSeed:
		a := res(true, o.src[0], j)
		return func(c *Sim, m int64) { putF(c, dOff, dMask, m, ir.RsqrtSeed(a.getF(c, m))) }
	case machine.ClassF2I:
		a := res(true, o.src[0], j)
		return func(c *Sim, m int64) { putI(c, dOff, dMask, m, int64(a.getF(c, m))) }
	case machine.ClassI2F:
		a := res(false, o.src[0], j)
		return func(c *Sim, m int64) { putF(c, dOff, dMask, m, float64(a.getI(c, m))) }
	case machine.ClassFCmp:
		a, b := res(true, o.src[0], j), res(true, o.src[1], j)
		pred := ir.Pred(o.iimm)
		return func(c *Sim, m int64) {
			putI(c, dOff, dMask, m, b2i(pred.Eval(signF(a.getF(c, m), b.getF(c, m)))))
		}
	case machine.ClassIAdd, machine.ClassAdrAdd:
		a, b := res(false, o.src[0], j), res(false, o.src[1], j)
		return func(c *Sim, m int64) { putI(c, dOff, dMask, m, a.getI(c, m)+b.getI(c, m)) }
	case machine.ClassISub:
		a, b := res(false, o.src[0], j), res(false, o.src[1], j)
		return func(c *Sim, m int64) { putI(c, dOff, dMask, m, a.getI(c, m)-b.getI(c, m)) }
	case machine.ClassIMul:
		a, b := res(false, o.src[0], j), res(false, o.src[1], j)
		return func(c *Sim, m int64) { putI(c, dOff, dMask, m, a.getI(c, m)*b.getI(c, m)) }
	case machine.ClassIMov:
		a := res(false, o.src[0], j)
		return func(c *Sim, m int64) { putI(c, dOff, dMask, m, a.getI(c, m)) }
	case machine.ClassIConst:
		iimm := o.iimm
		return func(c *Sim, m int64) { putI(c, dOff, dMask, m, iimm) }
	case machine.ClassIShr:
		a := res(false, o.src[0], j)
		sh := uint(o.iimm)
		return func(c *Sim, m int64) { putI(c, dOff, dMask, m, int64(uint64(a.getI(c, m))>>sh)) }
	case machine.ClassIAnd:
		a := res(false, o.src[0], j)
		iimm := o.iimm
		return func(c *Sim, m int64) { putI(c, dOff, dMask, m, a.getI(c, m)&iimm) }
	case machine.ClassICmp:
		a, b := res(false, o.src[0], j), res(false, o.src[1], j)
		pred := ir.Pred(o.iimm)
		return func(c *Sim, m int64) {
			putI(c, dOff, dMask, m, b2i(pred.Eval(signI(a.getI(c, m), b.getI(c, m)))))
		}
	case machine.ClassISelect:
		cnd := res(false, o.src[0], j)
		if o.selFloat {
			x, y := res(true, o.src[1], j), res(true, o.src[2], j)
			return func(c *Sim, m int64) {
				v := y.getF(c, m)
				if cnd.getI(c, m) != 0 {
					v = x.getF(c, m)
				}
				putF(c, dOff, dMask, m, v)
			}
		}
		x, y := res(false, o.src[1], j), res(false, o.src[2], j)
		return func(c *Sim, m int64) {
			v := y.getI(c, m)
			if cnd.getI(c, m) != 0 {
				v = x.getI(c, m)
			}
			putI(c, dOff, dMask, m, v)
		}
	case machine.ClassLoad:
		adr := res(false, o.src[0], j)
		base, end, isF, disp := o.arrBase, o.arrEnd, o.arrFloat, o.disp
		if isF {
			return func(c *Sim, m int64) {
				addr := adr.getI(c, m) + disp
				if addr < base || addr >= end {
					c.fastFault(o, pc, c.t+m*ii64+jOff, addr)
					return
				}
				putF(c, dOff, dMask, m, c.memF[addr])
			}
		}
		return func(c *Sim, m int64) {
			addr := adr.getI(c, m) + disp
			if addr < base || addr >= end {
				c.fastFault(o, pc, c.t+m*ii64+jOff, addr)
				return
			}
			putI(c, dOff, dMask, m, c.memI[addr])
		}
	case machine.ClassStore:
		adr := res(false, o.src[0], j)
		base, end, isF, disp := o.arrBase, o.arrEnd, o.arrFloat, o.disp
		switch {
		case isF && directStore:
			v := res(true, o.src[1], j)
			return func(c *Sim, m int64) {
				addr := adr.getI(c, m) + disp
				if addr < base || addr >= end {
					c.fastFault(o, pc, c.t+m*ii64+jOff, addr)
					return
				}
				c.memF[addr] = v.getF(c, m)
			}
		case isF:
			v := res(true, o.src[1], j)
			return func(c *Sim, m int64) {
				addr := adr.getI(c, m) + disp
				if addr < base || addr >= end {
					c.fastFault(o, pc, c.t+m*ii64+jOff, addr)
					return
				}
				c.storeBuf = append(c.storeBuf, memStore{isFloat: true, addr: addr, f: v.getF(c, m)})
			}
		case directStore:
			v := res(false, o.src[1], j)
			return func(c *Sim, m int64) {
				addr := adr.getI(c, m) + disp
				if addr < base || addr >= end {
					c.fastFault(o, pc, c.t+m*ii64+jOff, addr)
					return
				}
				c.memI[addr] = v.getI(c, m)
			}
		default:
			v := res(false, o.src[1], j)
			return func(c *Sim, m int64) {
				addr := adr.getI(c, m) + disp
				if addr < base || addr >= end {
					c.fastFault(o, pc, c.t+m*ii64+jOff, addr)
					return
				}
				c.storeBuf = append(c.storeBuf, memStore{addr: addr, i: v.getI(c, m)})
			}
		}
	}
	return nil
}

// fastFault records the first memory fault of the iteration (the run is
// over either way; `cycle` is the true absolute cycle of the faulting
// slot).
func (c *Sim) fastFault(o *decOp, pc int, cycle, addr int64) {
	if c.fastErr == nil {
		c.fastErr = boundsErr(o, pc, cycle, addr)
	}
}
