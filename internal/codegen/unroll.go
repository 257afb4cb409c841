package codegen

import (
	"errors"
	"fmt"

	"softpipe/internal/ir"
)

// Inner-loop full unrolling: §3.2 taken to its limit.  Loop reduction
// schedules an inner loop as an opaque node inside its parent, which
// overlaps the inner prolog and epilog with surrounding code but can
// never overlap successive *outer* iterations — the reduced node's
// steady-state rows consume every resource.  When the inner trip count
// is a small compile-time constant there is a stronger move available:
// replace the loop with that many copies of its body, so the outer loop
// becomes innermost and the modulo scheduler pipelines it directly,
// initiating outer iterations at a software-pipelined II instead of
// once per inner-loop drain.  The product asks for it per loop with the
// `unroll` directive; Options.UnrollInnerTrip is the comparison point.
//
// Unrolling is semantics-preserving without renaming because a loop
// body already updates its own induction registers: executing the
// statement list n times is the loop's definition.  The only thing that
// must change is the dependence metadata — a memory reference annotated
// a + c·j for inner counter j becomes, in copy k, the *constant* address
// a + c·k, so copies disambiguate against each other exactly.

// forceUnrollCap bounds the copies one nest makes of any statement: the
// product of the trip counts expanded around it, whichever spelling
// selected them.  Expansions multiply (three nested 64-trip loops would
// make 262,144 copies), so a loop whose expansion would pass the cap
// stays a loop, and so does every loop around it.
const forceUnrollCap = 64

// unrollPlan is the pass's decision, made on the unexpanded program
// before anything is cloned: the loops it expands and, for each loop
// that carries the `unroll` directive and is kept, why — both by loop ID.
type unrollPlan struct {
	expand      map[int]bool
	notHonoured map[int]string
}

// planUnroll decides, inner loops first, to expand each constant-trip
// loop whose body keeps no loop, that carries the `unroll` directive or
// is nested in another loop and runs at most maxTrip iterations, and
// whose expansion stays within forceUnrollCap; never a NoPipeline loop.
// A negative trip count runs the body no times, as zero copies do.
func planUnroll(p *ir.Program, maxTrip int64) *unrollPlan {
	u := &unrollPlan{expand: map[int]bool{}, notHonoured: map[int]string{}}
	u.block(p.Body, maxTrip, false)
	return u
}

// block decides the loops of b and returns the most copies their
// expansions make of any one statement of b (1 when none) and whether a
// loop is kept anywhere in b.
func (u *unrollPlan) block(b *ir.Block, maxTrip int64, inLoop bool) (copies int64, kept bool) {
	copies = 1
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ir.IfStmt:
			ct, kt := u.block(s.Then, maxTrip, inLoop)
			ce, ke := u.block(s.Else, maxTrip, inLoop)
			copies, kept = max(copies, ct, ce), kept || kt || ke
		case *ir.LoopStmt:
			c, k := u.loop(s, maxTrip, inLoop)
			copies, kept = max(copies, c), kept || k
		}
	}
	return copies, kept
}

// loop decides one loop, after the loops of its body; see block.
func (u *unrollPlan) loop(s *ir.LoopStmt, maxTrip int64, inLoop bool) (int64, bool) {
	inner, innerKept := u.block(s.Body, maxTrip, true)
	var why string
	switch {
	case s.NoPipeline:
		why = "nopipeline pragma"
	case s.CountReg != ir.NoReg:
		why = "run-time trip count"
	case innerKept:
		why = "the body keeps an inner loop"
	case !s.ForceUnroll && !(inLoop && maxTrip > 0 && s.CountImm <= maxTrip):
		return inner, true
	case s.CountImm > forceUnrollCap/inner: // CountImm·inner > cap, without overflow
		why = fmt.Sprintf("trip count %d above the cap of %d", s.CountImm, forceUnrollCap)
		if inner > 1 {
			why = fmt.Sprintf("the nest would make %d × %d copies, above the cap of %d", s.CountImm, inner, forceUnrollCap)
		}
	default:
		u.expand[s.ID] = true
		return s.CountImm * inner, false
	}
	if s.ForceUnroll {
		u.notHonoured[s.ID] = why
	}
	return inner, true
}

// apply rewrites b in place, inner loops first, replacing each loop the
// plan expands by copies of its body; Compile calls it on its own clone.
func (u *unrollPlan) apply(p *ir.Program, b *ir.Block) error {
	var out []ir.Stmt
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ir.IfStmt:
			if err := errors.Join(u.apply(p, s.Then), u.apply(p, s.Else)); err != nil {
				return err
			}
		case *ir.LoopStmt:
			if err := u.apply(p, s.Body); err != nil {
				return err
			}
			if u.expand[s.ID] {
				for k := int64(0); k < s.CountImm; k++ {
					c, err := cloneStmtsAt(p, s.Body.Stmts, s.ID, k)
					if err != nil {
						return err
					}
					out = append(out, c...)
				}
				continue
			}
		}
		out = append(out, s)
	}
	b.Stmts = out
	return nil
}

// cloneStmtAt deep-copies one statement for unrolled copy k of loop
// loopID, giving every op a fresh ID and folding the loop's affine
// coefficient into the address constant: Coef[loopID]·j at j = k.
func cloneStmtAt(p *ir.Program, s ir.Stmt, loopID int, k int64) (ir.Stmt, error) {
	switch s := s.(type) {
	case *ir.OpStmt:
		return &ir.OpStmt{Op: cloneOpAt(p, s.Op, loopID, k)}, nil
	case *ir.IfStmt:
		then, terr := cloneStmtsAt(p, s.Then.Stmts, loopID, k)
		els, eerr := cloneStmtsAt(p, s.Else.Stmts, loopID, k)
		if err := errors.Join(terr, eerr); err != nil {
			return nil, err
		}
		return &ir.IfStmt{Cond: s.Cond, Then: &ir.Block{Stmts: then}, Else: &ir.Block{Stmts: els}}, nil
	default:
		// The plan expands no loop whose body keeps a loop, so only a new,
		// unhandled statement kind lands here; fail the compile rather
		// than panicking mid-rewrite.
		return nil, fmt.Errorf("codegen: cannot unroll statement of kind %T in loop %d", s, loopID)
	}
}

// cloneStmtsAt clones a statement list with cloneStmtAt.
func cloneStmtsAt(p *ir.Program, stmts []ir.Stmt, loopID int, k int64) ([]ir.Stmt, error) {
	var out []ir.Stmt
	for _, s := range stmts {
		c, err := cloneStmtAt(p, s, loopID, k)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func cloneOpAt(p *ir.Program, o *ir.Op, loopID int, k int64) *ir.Op {
	c := p.CloneOp(o)
	if c.Mem != nil && c.Mem.Affine != nil {
		if coef, ok := c.Mem.Affine.Coef[loopID]; ok {
			c.Mem.Affine.Const += coef * k
			delete(c.Mem.Affine.Coef, loopID)
		}
	}
	return c
}
