package verify

import (
	"fmt"
	"math"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

// ArrayPlan describes a partitioned program for equivalence checking:
// the per-cell fragment programs in array order, plus the maps saying
// which cell's copy of each observable is authoritative.  It mirrors
// the fields of partition.Plan without importing it, so the partitioner
// is free to depend on anything this package's callers use.
type ArrayPlan struct {
	Fragments   []*ir.Program
	ArrayOwner  map[string]int
	ResultOwner map[string]int
}

// Array checks that a partitioned N-cell realization of src is
// equivalent to the single-cell reference.  All executions share one
// term interner, and each fragment's receives are seeded with the
// provenance terms of the upstream fragment's sends — so the chained
// terms concatenate into exactly the terms the single-cell reference
// builds, and equivalence is term-identity, not just value equality.
//
// Three layers are proved, failing on the first violation:
//
//  1. per-cell object correctness: each objs[i] is a legal realization
//     of Fragments[i] under the chained input tape (structure,
//     resources, values, provenance — the full ProgramOpts battery);
//  2. array dataflow: the owner cell's copy of every source array and
//     scalar result matches the single-cell reference bit for bit and
//     term for term;
//  3. host I/O: the last cell's output tape equals the single-cell
//     reference's output tape, values and terms both.
func Array(src *ir.Program, pl ArrayPlan, objs []*vliw.Program, ms []*machine.Machine, opts Options) error {
	if len(pl.Fragments) == 0 {
		return fmt.Errorf("verify: array plan has no fragments")
	}
	if len(objs) != len(pl.Fragments) || len(ms) != len(pl.Fragments) {
		return fmt.Errorf("verify: array plan has %d fragments, %d objects, %d machines",
			len(pl.Fragments), len(objs), len(ms))
	}
	if opts.MaxCycles <= 0 {
		opts.MaxCycles = 200_000_000
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 200_000_000
	}
	for i, obj := range objs {
		if err := checkStructure(obj, ms[i]); err != nil {
			return fmt.Errorf("verify: cell %d: %w", i, err)
		}
		if err := checkResources(obj, ms[i]); err != nil {
			return fmt.Errorf("verify: cell %d: %w", i, err)
		}
	}

	capHint := 0
	for _, obj := range objs {
		capHint += termCapHint(obj)
	}
	itn, err := acquireInterner(capHint)
	if err != nil {
		return err
	}
	defer itn.release()
	sp := opts.Tracer.Begin("verify.array.ref")
	ref, err := runRef(src, itn, opts.Input, opts.MaxSteps)
	sp.End()
	if err != nil {
		return fmt.Errorf("verify: reference execution failed: %w", err)
	}

	// Chain the fragments: cell i+1 consumes cell i's output words and
	// terms.  The host tape enters cell 0 with the same input leaves the
	// single-cell reference minted.
	inV := opts.Input
	inT := make([]termID, len(inV))
	for i := range inT {
		inT[i] = itn.input(i)
	}
	refs := make([]*refResult, len(pl.Fragments))
	sp = opts.Tracer.Begin("verify.array.cells")
	for i, frag := range pl.Fragments {
		fr, err := runRefTape(frag, itn, inV, inT, opts.MaxSteps)
		if err != nil {
			sp.End()
			return fmt.Errorf("verify: cell %d reference execution failed: %w", i, err)
		}
		sh, err := runShadowTape(objs[i], ms[i], itn, inV, inT, opts.MaxCycles)
		if err != nil {
			sp.End()
			return fmt.Errorf("verify: cell %d object execution failed: %w", i, err)
		}
		if err := compare(frag, objs[i], itn, fr, sh); err != nil {
			sp.End()
			return fmt.Errorf("verify: cell %d: %w", i, err)
		}
		refs[i] = fr
		inV, inT = fr.outV, fr.outT
	}
	sp.End()
	opts.Tracer.Count("verify.array.terms", int64(len(itn.nodes)))
	opts.Tracer.Count("verify.array.term_lookups", itn.lookups)

	// Array dataflow: every source observable, at its owning cell,
	// against the single-cell reference.
	for _, sa := range src.Arrays {
		owner, ok := pl.ArrayOwner[sa.Name]
		if !ok || owner < 0 || owner >= len(refs) {
			return fmt.Errorf("verify: array %s has no owning cell in the plan", sa.Name)
		}
		fr := refs[owner]
		gotT, wantT := fr.memT[sa.Name], ref.memT[sa.Name]
		if gotT == nil {
			return fmt.Errorf("verify: array %s missing from owner cell %d", sa.Name, owner)
		}
		for i := 0; i < sa.Size; i++ {
			if sa.Kind == ir.KindFloat {
				if math.Float64bits(fr.memF[sa.Name][i]) != math.Float64bits(ref.memF[sa.Name][i]) {
					return fmt.Errorf("verify: %s[%d] = %v on cell %d, reference has %v",
						sa.Name, i, fr.memF[sa.Name][i], owner, ref.memF[sa.Name][i])
				}
			} else {
				if fr.memI[sa.Name][i] != ref.memI[sa.Name][i] {
					return fmt.Errorf("verify: %s[%d] = %d on cell %d, reference has %d",
						sa.Name, i, fr.memI[sa.Name][i], owner, ref.memI[sa.Name][i])
				}
			}
			if gotT[i] != wantT[i] {
				return fmt.Errorf("verify: %s[%d] provenance mismatch on cell %d:\n  array:     %s\n  reference: %s",
					sa.Name, i, owner, itn.render(gotT[i], renderDepth), itn.render(wantT[i], renderDepth))
			}
		}
	}
	for _, sr := range src.Results {
		owner, ok := pl.ResultOwner[sr.Name]
		if !ok || owner < 0 || owner >= len(refs) {
			return fmt.Errorf("verify: result %q has no owning cell in the plan", sr.Name)
		}
		fr := refs[owner]
		wantT := ref.resT[sr.Name]
		gotT, ok := fr.resT[sr.Name]
		if !ok {
			return fmt.Errorf("verify: result %q missing from owner cell %d", sr.Name, owner)
		}
		if src.Kind(sr.Reg) == ir.KindFloat {
			if math.Float64bits(fr.resF[sr.Name]) != math.Float64bits(ref.resF[sr.Name]) {
				return fmt.Errorf("verify: result %q = %v on cell %d, reference has %v",
					sr.Name, fr.resF[sr.Name], owner, ref.resF[sr.Name])
			}
		} else {
			if fr.resI[sr.Name] != ref.resI[sr.Name] {
				return fmt.Errorf("verify: result %q = %d on cell %d, reference has %d",
					sr.Name, fr.resI[sr.Name], owner, ref.resI[sr.Name])
			}
		}
		if gotT != wantT {
			return fmt.Errorf("verify: result %q provenance mismatch on cell %d:\n  array:     %s\n  reference: %s",
				sr.Name, owner, itn.render(gotT, renderDepth), itn.render(wantT, renderDepth))
		}
	}
	// Host output: the last cell's tape is the array's tape.
	last := refs[len(refs)-1]
	if len(last.outV) != len(ref.outV) {
		return fmt.Errorf("verify: array sent %d words, reference sent %d", len(last.outV), len(ref.outV))
	}
	for i := range last.outV {
		if math.Float64bits(last.outV[i]) != math.Float64bits(ref.outV[i]) {
			return fmt.Errorf("verify: output[%d] = %v, reference has %v", i, last.outV[i], ref.outV[i])
		}
		if last.outT[i] != ref.outT[i] {
			return fmt.Errorf("verify: output[%d] provenance mismatch:\n  array:     %s\n  reference: %s",
				i, itn.render(last.outT[i], renderDepth), itn.render(ref.outT[i], renderDepth))
		}
	}
	return nil
}
