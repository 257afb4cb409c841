package main

import (
	"fmt"
	"math/rand"
	"time"

	"softpipe"
	"softpipe/internal/ir"
	"softpipe/internal/sim"
	"softpipe/internal/sim/compiled"
	"softpipe/internal/verify"
	"softpipe/internal/vliw"
	"softpipe/internal/workloads"
)

const (
	mutatedObjects    = 8
	mutantsPerObject  = 6
	mutantCycleFactor = 4 // a mutant may run this many times its sound object's cycles before it counts as non-terminating
)

// subject is one object under verification.
type subject struct {
	unit *unit
	prog *ir.Program
	bin  *vliw.Program
	// mutantOf is the name of the mutation applied to bin; empty for a
	// sound object.
	mutantOf  string
	maxCycles int64
	// killed is the verdict of the first pass on a mutant, against which
	// every later pass is held.
	killed, judged bool
	// What the simulator answered in the latest pass (sound objects).
	stats sim.Stats
	state *ir.State
}

// verifyWL is verify-corpus: what Object.Verify does — the independent
// verifier, the reference interpreter, the simulator and the state
// comparison — on objects compiled in set-up, plus seeded mutants of
// eight of them that the verifier must keep judging the same way.
type verifyWL struct {
	subjects []*subject
	tried    int
	killed   int
}

func (w *verifyWL) setup(seed int64, scale float64) error {
	units := corpusUnits(seed, scale)
	for i := range units {
		u := &units[i]
		p, err := u.lower(nil)
		if err != nil {
			return err
		}
		obj, err := softpipe.Compile(p, u.mach, softpipe.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", u.name, err)
		}
		w.subjects = append(w.subjects, &subject{unit: u, prog: p, bin: obj.Binary})
	}
	// Mutants are made of suite objects only: those are of like size, so
	// which eight the seed picks does not decide the cost of a pass.
	rng := rand.New(rand.NewSource(seed))
	suite := scaled(workloads.SuiteSize, scale)
	for _, si := range rng.Perm(suite)[:min(scaled(mutatedObjects, scale), suite)] {
		s := w.subjects[si]
		muts := verify.Mutations(s.bin)
		if len(muts) == 0 {
			continue
		}
		_, st, err := sim.Run(s.bin, s.unit.mach)
		if err != nil {
			return fmt.Errorf("%s: %w", s.unit.name, err)
		}
		for k := 0; k < mutantsPerObject; k++ {
			mut := muts[rng.Intn(len(muts))]
			bin := verify.CloneProgram(s.bin)
			mut.Apply(bin)
			w.subjects = append(w.subjects, &subject{
				unit: s.unit, prog: s.prog, bin: bin, mutantOf: mut.Desc,
				maxCycles: st.Cycles*mutantCycleFactor + 10_000,
			})
		}
	}
	return nil
}

func (w *verifyWL) close() {}

func (w *verifyWL) pass(r *run, tr *tracer) {
	w.tried, w.killed = 0, 0
	for _, s := range w.subjects {
		tr.nextOp()
		t0 := time.Now()
		tr.begin("op")
		var err error
		if s.mutantOf == "" {
			err = w.verifySound(s, tr)
		} else {
			err = w.judgeMutant(s, tr)
		}
		tr.end()
		r.observe(time.Since(t0), err)
		if tr != nil {
			tr.beginReplay()
			tr.begin("verify.static")
			_ = verify.Static(s.bin, s.unit.mach) // timed as a layer; verify.Program above already ruled on the object
			tr.end()
			tr.endReplay()
		}
	}
}

// verifySound is Object.Verify spelled out so each layer gets its span.
func (w *verifyWL) verifySound(s *subject, tr *tracer) error {
	m := s.unit.mach
	tr.begin("verify.program")
	err := verify.Program(s.prog, s.bin, m)
	tr.end()
	if err != nil {
		return fmt.Errorf("%s: sound object rejected: %w", s.unit.name, err)
	}
	tr.begin("ir.interp")
	want, err := ir.Run(s.prog)
	tr.end()
	if err != nil {
		return fmt.Errorf("%s: reference interpreter: %w", s.unit.name, err)
	}
	tr.begin("sim.interp")
	got, st, err := sim.Run(s.bin, m)
	tr.end()
	if err != nil {
		return fmt.Errorf("%s: simulator: %w", s.unit.name, err)
	}
	s.stats, s.state = st, got
	tr.count("sim.interp_cycles", st.Cycles)
	if d := want.Diff(got); d != "" {
		return fmt.Errorf("%s: simulation diverges from interpreter: %s", s.unit.name, d)
	}
	return nil
}

func (w *verifyWL) judgeMutant(s *subject, tr *tracer) error {
	tr.begin("verify.program")
	err := verify.ProgramOpts(s.prog, s.bin, s.unit.mach, verify.Options{MaxCycles: s.maxCycles})
	tr.end()
	killed := err != nil
	w.tried++
	if killed {
		w.killed++
	}
	if !s.judged {
		s.judged, s.killed = true, killed
	} else if killed != s.killed {
		return fmt.Errorf("%s: verdict on mutant %q flipped between passes", s.unit.name, s.mutantOf)
	}
	return nil
}

func (w *verifyWL) check(r *run) (cycles, words, seeded int64) {
	for _, s := range w.subjects {
		if s.mutantOf != "" || s.state == nil {
			continue // a sound object whose pass failed was reported there
		}
		// Engine parity: the compiled engine must reproduce the
		// interpreter's cycles and observable state.
		cst, cstats, err := compiled.Run(s.bin, s.unit.mach)
		ok := err == nil && cstats.Cycles == s.stats.Cycles && s.state.Diff(cst) == ""
		r.violation(ok, "%s: engines disagree (interp %d cycles, compiled %d)", s.unit.name, s.stats.Cycles, cstats.Cycles)
		if s.unit.fixed {
			cycles += s.stats.Cycles
			words += int64(len(s.bin.Instrs))
		} else {
			seeded += s.stats.Cycles
		}
	}
	return
}

func (w *verifyWL) layers(tr *tracer, out map[string]float64) {
	out["verify.mutants_tried"] = float64(w.tried)
	out["verify.mutants_killed"] = float64(w.killed)
	if c := tr.counts["sim.interp_cycles"]; c > 0 {
		out["sim.interp_ns_per_cycle"] = tr.ms("sim.interp") * 1e6 / float64(c)
	}
	out["verify.alloc_kb_per_op"] = allocKiBPerOp(len(w.subjects), func(i int) {
		s := w.subjects[i]
		_ = verify.ProgramOpts(s.prog, s.bin, s.unit.mach, verify.Options{MaxCycles: s.maxCycles}) // measured for allocation only
	})
}
