package codegen

import (
	"sort"

	"softpipe/internal/ir"
)

// localAssign maps block-local virtual registers (first reference is an
// unconditional write inside this op run, last reference inside it too)
// to recycled physical registers by linear scan over their scheduled
// intervals.  An interval runs from the def's issue cycle to the later of
// the def's write-back (def+latency) and the last read; two locals may
// share a physical register when one's interval strictly precedes the
// other's def.
//
// The sharing is also safe when the run is a loop body executed
// repeatedly: the next iteration's writes land at or after cycle
// period ≥ length, which is past every read of the current iteration.
//
// The returned cleanup function removes the temporary mappings and
// returns the physical registers to the free lists; call it after the
// run has been emitted.
// period > 0 marks a cyclic body (an unpipelined loop of that period):
// locals whose write-back would land past the period wrap are kept out of
// the sharing pool, since their in-flight writes could collide with the
// next iteration's.
func (e *emitter) localAssign(ops []*ir.Op, times []int, period int) func() {
	if len(ops) == 0 {
		return func() {}
	}
	minPos, maxPos := e.pos[ops[0].ID], e.pos[ops[0].ID]
	for _, op := range ops {
		p := e.pos[op.ID]
		if p < minPos {
			minPos = p
		}
		if p > maxPos {
			maxPos = p
		}
	}
	isLocal := func(r ir.VReg) bool {
		if r == ir.NoReg || !e.uncondWrite[r] {
			return false
		}
		if e.firstPos[r] < minPos || e.lastPos[r] > maxPos {
			return false
		}
		// Already globally mapped (e.g. loop-carried from elsewhere)?
		_, mapped := e.regs.get(regKey{r: r})
		return !mapped
	}

	type span struct {
		reg      ir.VReg
		def, end int
	}
	spans := map[ir.VReg]*span{}
	for i, op := range ops {
		t := times[i]
		if op.Dst != ir.NoReg && isLocal(op.Dst) {
			s := spans[op.Dst]
			if s == nil {
				s = &span{reg: op.Dst, def: t, end: t + e.m.Latency(op.Class)}
				spans[op.Dst] = s
			} else {
				if t < s.def {
					s.def = t
				}
				if t+e.m.Latency(op.Class) > s.end {
					s.end = t + e.m.Latency(op.Class)
				}
			}
		}
	}
	for i, op := range ops {
		t := times[i]
		for _, r := range op.Src {
			if s := spans[r]; s != nil && t > s.end {
				s.end = t
			}
		}
	}
	ordered := make([]*span, 0, len(spans))
	for _, s := range spans {
		if period > 0 {
			landsLate := false
			for i, op := range ops {
				if op.Dst == s.reg && times[i]+e.m.Latency(op.Class) > period {
					landsLate = true
					break
				}
			}
			if landsLate {
				continue
			}
		}
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].def != ordered[j].def {
			return ordered[i].def < ordered[j].def
		}
		return ordered[i].reg < ordered[j].reg
	})

	type poolEntry struct {
		phys  int
		until int // last cycle occupied
	}
	var fpool, ipool []poolEntry
	var assigned []regKey
	for _, s := range ordered {
		kind := e.irp.Kind(s.reg)
		pool := &fpool
		if kind == ir.KindInt {
			pool = &ipool
		}
		phys := -1
		for i := range *pool {
			if (*pool)[i].until < s.def {
				phys = (*pool)[i].phys
				(*pool)[i].until = s.end
				break
			}
		}
		if phys == -1 {
			if kind == ir.KindFloat {
				phys = e.allocF()
			} else {
				phys = e.allocI()
			}
			*pool = append(*pool, poolEntry{phys: phys, until: s.end})
		}
		k := regKey{r: s.reg}
		e.regs.set(k, phys)
		assigned = append(assigned, k)
	}
	return func() {
		for _, k := range assigned {
			e.regs.del(k)
		}
		// Free each pooled register exactly once (several locals may
		// share one).
		for _, pe := range fpool {
			e.fFree = append(e.fFree, pe.phys)
		}
		for _, pe := range ipool {
			e.iFree = append(e.iFree, pe.phys)
		}
	}
}

// regsNeeded estimates how many fresh float/int physical registers the
// given virtual registers would consume if allocated now (ignoring ones
// already mapped), accounting for the free lists.
func (e *emitter) regsNeeded(regs map[ir.VReg]bool, extraF, extraI int) (peakF, peakI int) {
	needF, needI := extraF, extraI
	for r := range regs {
		if _, ok := e.regs.get(regKey{r: r}); ok {
			continue
		}
		if e.irp.Kind(r) == ir.KindFloat {
			needF++
		} else {
			needI++
		}
	}
	peakF = e.fNext
	if d := needF - len(e.fFree); d > 0 {
		peakF += d
	}
	peakI = e.iNext
	if d := needI - len(e.iFree); d > 0 {
		peakI += d
	}
	return
}
