package codegen

import (
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
// once per inner-loop drain.
//
// Unrolling is semantics-preserving without renaming because a loop
// body already updates its own induction registers: executing the
// statement list n times is the loop's definition.  The only thing that
// must change is the dependence metadata — a memory reference annotated
// a + c·j for inner counter j becomes, in copy k, the *constant* address
// a + c·k, so copies disambiguate against each other exactly.

// forceUnrollCap bounds the `unroll` directive and Options.UnrollInnerTrip:
// expanding more iterations than this would dwarf any schedule it could
// improve.
const forceUnrollCap = 64

// unrollSmallLoops rewrites p's block tree in place, replacing every
// constant-trip inner loop of at most maxTrip iterations (and with a
// loop-free body) nested inside another loop by that many copies of its
// body.  Loops carrying the `unroll` directive expand regardless of
// maxTrip or nesting; loops marked NoPipeline are left alone.
// Compile only calls this on a program it owns (see needsUnroll).
func unrollSmallLoops(p *ir.Program, maxTrip int64) error {
	return unrollInBlock(p, p.Body, maxTrip, false)
}

// needsUnroll reports whether unrollSmallLoops would change the block
// tree: true iff some loop in b is unrollable under the same traversal.
// Compile uses it to decide whether the program must be cloned before
// the (mutating) unroll pass runs — programs without expandable loops
// go straight to emission with zero copying.  An inner loop that blocks
// its parent (hasLoop) is either unrollable itself, in which case this
// scan already answers true, or survives in the real pass too, so the
// answer matches the pass exactly.
func needsUnroll(b *ir.Block, maxTrip int64, inLoop bool) bool {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ir.IfStmt:
			if needsUnroll(s.Then, maxTrip, inLoop) || needsUnroll(s.Else, maxTrip, inLoop) {
				return true
			}
		case *ir.LoopStmt:
			if needsUnroll(s.Body, maxTrip, true) || unrollable(s, maxTrip, inLoop) {
				return true
			}
		}
	}
	return false
}

func unrollInBlock(p *ir.Program, b *ir.Block, maxTrip int64, inLoop bool) error {
	var out []ir.Stmt
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ir.IfStmt:
			if err := unrollInBlock(p, s.Then, maxTrip, inLoop); err != nil {
				return err
			}
			if err := unrollInBlock(p, s.Else, maxTrip, inLoop); err != nil {
				return err
			}
			out = append(out, s)
		case *ir.LoopStmt:
			if err := unrollInBlock(p, s.Body, maxTrip, true); err != nil {
				return err
			}
			if unrollable(s, maxTrip, inLoop) {
				for k := int64(0); k < s.CountImm; k++ {
					for _, bs := range s.Body.Stmts {
						c, err := cloneStmtAt(p, bs, s.ID, k)
						if err != nil {
							return err
						}
						out = append(out, c)
					}
				}
			} else {
				out = append(out, s)
			}
		default:
			out = append(out, s)
		}
	}
	b.Stmts = out
	return nil
}

// unrollable reports whether the loop is a compile-time-counted loop
// small enough to expand.  A nested loop inside the body blocks
// unrolling (the inner pass runs first, so a surviving nested loop is
// one that was itself not unrollable).
func unrollable(s *ir.LoopStmt, maxTrip int64, inLoop bool) bool {
	if s.NoPipeline || s.CountReg != ir.NoReg || s.CountImm < 0 || hasLoop(s.Body) {
		return false
	}
	if s.ForceUnroll {
		return s.CountImm <= forceUnrollCap
	}
	return inLoop && s.CountImm <= maxTrip && maxTrip > 0
}

func hasLoop(b *ir.Block) (loop bool) {
	b.Walk(func(s ir.Stmt) bool {
		_, isLoop := s.(*ir.LoopStmt)
		loop = loop || isLoop
		return !loop
	})
	return loop
}

// cloneStmtAt deep-copies one statement for unrolled copy k of loop
// loopID, giving every op a fresh ID and folding the loop's affine
// coefficient into the address constant: Coef[loopID]·j at j = k.
func cloneStmtAt(p *ir.Program, s ir.Stmt, loopID int, k int64) (ir.Stmt, error) {
	switch s := s.(type) {
	case *ir.OpStmt:
		return &ir.OpStmt{Op: cloneOpAt(p, s.Op, loopID, k)}, nil
	case *ir.IfStmt:
		c := &ir.IfStmt{Cond: s.Cond, Then: &ir.Block{}, Else: &ir.Block{}}
		for _, t := range s.Then.Stmts {
			ct, err := cloneStmtAt(p, t, loopID, k)
			if err != nil {
				return nil, err
			}
			c.Then.Stmts = append(c.Then.Stmts, ct)
		}
		for _, e := range s.Else.Stmts {
			ce, err := cloneStmtAt(p, e, loopID, k)
			if err != nil {
				return nil, err
			}
			c.Else.Stmts = append(c.Else.Stmts, ce)
		}
		return c, nil
	default:
		// unrollable rejects bodies containing loops, so only a new,
		// unhandled statement kind lands here; fail the compile rather
		// than panicking mid-rewrite.
		return nil, fmt.Errorf("codegen: cannot unroll statement of kind %T in loop %d", s, loopID)
	}
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
