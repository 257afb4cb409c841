package verify

import (
	"fmt"
	"math"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/trace"
	"softpipe/internal/vliw"
)

// Options bounds a verification run.
type Options struct {
	// MaxCycles caps the shadow machine (default 200M, matching the
	// simulator); exceeding it is a verification failure — a perturbed
	// loop counter typically shows up as non-termination.
	MaxCycles int64
	// MaxSteps caps the sequential reference execution (default 200M
	// operations).
	MaxSteps int64
	// Input is the program's input tape (one word per Recv).
	Input []float64
	// Tracer receives per-stage spans and two counters, the terms
	// interned and the lookups that found or interned them; nil disables
	// tracing at zero cost.
	Tracer *trace.Tracer
}

const renderDepth = 3

// Program checks that obj is a legal realization of src on machine m.
// See the package comment for what "legal" proves.  src must be the
// program handed to the compiler (before any internal rewriting); obj is
// the emitted object code.  A nil error means every check passed.
func Program(src *ir.Program, obj *vliw.Program, m *machine.Machine) error {
	return ProgramOpts(src, obj, m, Options{})
}

// Static runs only the execution-free checks — encoding, register
// files, array layout, and resource usage including modulo wraparound —
// for callers that cannot drive a concolic run (e.g. programs whose
// input tape is unknown at compile time).
func Static(obj *vliw.Program, m *machine.Machine) error {
	if err := checkStructure(obj, m); err != nil {
		return err
	}
	return checkResources(obj, m)
}

// ProgramOpts is Program with explicit bounds and input tape.
func ProgramOpts(src *ir.Program, obj *vliw.Program, m *machine.Machine, opts Options) error {
	if opts.MaxCycles <= 0 {
		opts.MaxCycles = 200_000_000
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 200_000_000
	}
	if err := checkStructure(obj, m); err != nil {
		return err
	}
	if err := checkResources(obj, m); err != nil {
		return err
	}
	// One interner is shared by both executions: identical provenance
	// interns to the identical termID, so comparison is ID equality.
	itn, err := acquireInterner(termCapHint(obj))
	if err != nil {
		return err
	}
	defer itn.release()
	sp := opts.Tracer.Begin("verify.ref")
	ref, err := runRef(src, itn, opts.Input, opts.MaxSteps)
	sp.End()
	if err != nil {
		return fmt.Errorf("verify: reference execution failed: %w", err)
	}
	sp = opts.Tracer.Begin("verify.shadow")
	sh, err := runShadow(obj, m, itn, opts.Input, opts.MaxCycles)
	sp.End()
	if err != nil {
		return fmt.Errorf("verify: object execution failed: %w", err)
	}
	opts.Tracer.Count("verify.terms", int64(len(itn.nodes)))
	opts.Tracer.Count("verify.term_lookups", itn.lookups)
	sp = opts.Tracer.Begin("verify.compare")
	err = compare(src, obj, itn, ref, sh)
	sp.End()
	return err
}

func compare(src *ir.Program, obj *vliw.Program, itn *interner, ref *refResult, sh *shadowResult) error {
	// Every source array must exist in the object layout and agree cell
	// by cell, value and provenance both.
	for _, sa := range src.Arrays {
		oa := obj.Array(sa.Name)
		if oa == nil {
			return fmt.Errorf("verify: array %s missing from object program", sa.Name)
		}
		if oa.Size != sa.Size || oa.Kind != sa.Kind {
			return fmt.Errorf("verify: array %s: object declares size %d kind %v, source has size %d kind %v",
				sa.Name, oa.Size, oa.Kind, sa.Size, sa.Kind)
		}
		rT := ref.memT[sa.Name]
		for i := 0; i < sa.Size; i++ {
			a := oa.Base + i
			if sa.Kind == ir.KindFloat {
				if math.Float64bits(sh.memF[a]) != math.Float64bits(ref.memF[sa.Name][i]) {
					return fmt.Errorf("verify: %s[%d] = %v, reference has %v", sa.Name, i, sh.memF[a], ref.memF[sa.Name][i])
				}
			} else {
				if sh.memI[a] != ref.memI[sa.Name][i] {
					return fmt.Errorf("verify: %s[%d] = %d, reference has %d", sa.Name, i, sh.memI[a], ref.memI[sa.Name][i])
				}
			}
			if sh.memT[a] != rT[i] {
				return fmt.Errorf("verify: %s[%d] provenance mismatch:\n  object:    %s\n  reference: %s",
					sa.Name, i, itn.render(sh.memT[a], renderDepth), itn.render(rT[i], renderDepth))
			}
		}
	}
	// Scalar results live in the registers the object program names.
	for _, r := range obj.Results {
		wantT, ok := ref.resT[r.Name]
		if !ok {
			return fmt.Errorf("verify: object result %q not produced by the source program", r.Name)
		}
		var gotT termID
		if r.Kind == ir.KindFloat {
			if r.Reg < 0 || r.Reg >= len(sh.fv) {
				return fmt.Errorf("verify: result %q register f%d out of range", r.Name, r.Reg)
			}
			if math.Float64bits(sh.fv[r.Reg]) != math.Float64bits(ref.resF[r.Name]) {
				return fmt.Errorf("verify: result %q = %v, reference has %v", r.Name, sh.fv[r.Reg], ref.resF[r.Name])
			}
			gotT = sh.ft[r.Reg]
		} else {
			if r.Reg < 0 || r.Reg >= len(sh.iv) {
				return fmt.Errorf("verify: result %q register i%d out of range", r.Name, r.Reg)
			}
			if sh.iv[r.Reg] != ref.resI[r.Name] {
				return fmt.Errorf("verify: result %q = %d, reference has %d", r.Name, sh.iv[r.Reg], ref.resI[r.Name])
			}
			gotT = sh.it[r.Reg]
		}
		if gotT != wantT {
			return fmt.Errorf("verify: result %q provenance mismatch:\n  object:    %s\n  reference: %s",
				r.Name, itn.render(gotT, renderDepth), itn.render(wantT, renderDepth))
		}
	}
	for _, sr := range src.Results {
		found := false
		for _, r := range obj.Results {
			if r.Name == sr.Name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("verify: source result %q missing from object program", sr.Name)
		}
	}
	// The output tape must match word for word, in order.
	if len(sh.outV) != len(ref.outV) {
		return fmt.Errorf("verify: object sent %d words, reference sent %d", len(sh.outV), len(ref.outV))
	}
	for i := range sh.outV {
		if math.Float64bits(sh.outV[i]) != math.Float64bits(ref.outV[i]) {
			return fmt.Errorf("verify: output[%d] = %v, reference has %v", i, sh.outV[i], ref.outV[i])
		}
		if sh.outT[i] != ref.outT[i] {
			return fmt.Errorf("verify: output[%d] provenance mismatch:\n  object:    %s\n  reference: %s",
				i, itn.render(sh.outT[i], renderDepth), itn.render(ref.outT[i], renderDepth))
		}
	}
	return nil
}
