package softpipe_test

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"softpipe"
	"softpipe/internal/codegen"
	"softpipe/internal/ir"
)

// choice is one keep-the-shorter choice of the back end as its trace
// records it: the loop, and what the cycles model says n iterations take
// in the candidate form (flat, rotated) and in the form it competes with
// (unpipelined, in program order).
type choice struct {
	loop            int
	cycles, against int64
}

// choices compiles p for m with a tracer and returns the object and the
// choices named name (codegen.flat, codegen.rotate) its back end made.
func choices(p *softpipe.Program, m *softpipe.Machine, name string) (*softpipe.Object, []choice, error) {
	tr := softpipe.NewTracer(name)
	obj, err := softpipe.Compile(p, m, softpipe.Options{Tracer: tr})
	if err != nil {
		return nil, nil, err
	}
	var cs []choice
	for _, ev := range tr.Events() {
		if ev.Name == name {
			cs = append(cs, choice{int(ev.Args[0].Val), ev.Args[1].Val, ev.Args[2].Val})
		}
	}
	return obj, cs, nil
}

// difference is what obj takes on the one simulator path less what p
// compiled for m with adjust takes.
func difference(obj *softpipe.Object, p *softpipe.Program, m *softpipe.Machine, opts softpipe.Options, adjust func(*codegen.Options)) (int64, error) {
	other, err := softpipe.CompileWith(p, m, opts, adjust)
	if err != nil {
		return 0, err
	}
	a, err := obj.Run()
	if err != nil {
		return 0, err
	}
	b, err := other.Run()
	if err != nil {
		return 0, err
	}
	return a.Cycles - b.Cycles, nil
}

// entries reports how often each loop of p is entered: the product of the
// trip counts of the loops around it, -1 under a run-time count.
func entries(p *softpipe.Program) map[int]int64 {
	out := map[int]int64{}
	var walk func(b *ir.Block, times int64)
	walk = func(b *ir.Block, times int64) {
		for _, s := range b.Stmts {
			switch s := s.(type) {
			case *ir.IfStmt:
				walk(s.Then, times)
				walk(s.Else, times)
			case *ir.LoopStmt:
				out[s.ID] = times
				inner := int64(-1)
				if s.CountReg == ir.NoReg && times >= 0 {
					inner = times * max(s.CountImm, 0)
				}
				walk(s.Body, inner)
			}
		}
	}
	walk(p.Body, 1)
	return out
}

// TestCyclesModelPredictsSimulator: the back end's three keep-the-shorter
// choices read one cycles model, and the model is exact.  On warp and the
// first rotating grid point:
//   - A loop too short for one kernel pass is its flat schedule or the
//     unpipelined loop.  Over countedBodies at every trip count up to three
//     kernel passes and every single-loop digest program, the default
//     object's simulated cycles less the Baseline object's are the model's
//     flat cycles less its unpipelined ones where the flat form was taken,
//     and 0 where it was not.  A refusal gives the model's numbers in the
//     explain report; a conditional body is never offered the flat form.
//   - An outer body rotates its setup or keeps program order.  Over every
//     digest program, the default object less the NoRotation one is the sum,
//     over the nests that rotated, of the model's rotated less plain cycles
//     times how often the nest is entered.
//   - A loop the search lands below the heuristic's II on keeps the searched
//     plan or the heuristic's, whichever the model says takes fewer cycles
//     as countedRows emits it (its counted region, flat schedule or the
//     unpipelined loop).  Over the one-loop programs among the digest's and
//     the exact objects, the default object less the HeuristicOnly one is
//     the model's searched less heuristic cycles where the searched plan
//     was kept, and 0 where it was not.
func TestCyclesModelPredictsSimulator(t *testing.T) {
	machines := digestMachines(t)
	rot := slices.IndexFunc(machines, func(m *softpipe.Machine) bool { return m.RotatingRegs })
	machines = []*softpipe.Machine{machines[0], machines[rot]}
	var taken, refused, rotated, kept, searched, heuristic atomic.Int64

	// flatChoice checks the one flat-or-unpipelined choice of a one-loop
	// program, if it made one.
	flatChoice := func(p *softpipe.Program, m *softpipe.Machine, at string) {
		obj, cs, err := choices(p, m, "codegen.flat")
		if err != nil {
			t.Errorf("%s: %v", at, err)
			return
		}
		lr := obj.Report.Loops[0]
		if lr.HasCond {
			if len(cs) > 0 {
				t.Errorf("%s: a conditional body was offered the flat form: %+v", at, cs)
			}
			if strings.HasPrefix(lr.Reason, "too few iterations") && !slices.Contains(lr.Explain.Notes, "flat schedule not offered: the body has a conditional") {
				t.Errorf("%s: refused with no word on the flat form: %q", at, lr.Explain.Notes)
			}
			return
		}
		if len(cs) == 0 {
			return
		}
		c := cs[len(cs)-1]
		got, err := difference(obj, p, m, softpipe.Options{Baseline: true}, nil)
		switch {
		case err != nil:
			t.Errorf("%s: %v", at, err)
		case lr.Flat:
			taken.Add(1)
			if c.cycles >= c.against || got != c.cycles-c.against {
				t.Errorf("%s: flat %d cycles against %d unpipelined, predicted %+d; simulated %+d", at, c.cycles, c.against, c.cycles-c.against, got)
			}
		default:
			refused.Add(1)
			note := fmt.Sprintf("flat schedule not taken: %d cycles ≥ %d unpipelined", c.cycles, c.against)
			if c.cycles < c.against || got != 0 || !slices.Contains(lr.Explain.Notes, note) {
				t.Errorf("%s: flat form refused at %d cycles against %d; simulated %+d, notes %q", at, c.cycles, c.against, got, lr.Explain.Notes)
			}
		}
	}
	// planChoice checks the one searched-or-heuristic choice of a one-loop
	// program, if it made one: its explain note gives both counts.
	heuristicOnly := func(o *codegen.Options) { o.HeuristicOnly = true }
	counts := regexp.MustCompile(`iterations take (\d+) cycles at the searched II \d+, (\d+) at`)
	planChoice := func(p *softpipe.Program, m *softpipe.Machine, at string) {
		obj, err := softpipe.Compile(p, m, softpipe.Options{})
		if err != nil {
			t.Errorf("%s: %v", at, err)
			return
		}
		var c choice
		for _, note := range obj.Report.Loops[0].Explain.Notes {
			if mm := counts.FindStringSubmatch(note); mm != nil {
				c.cycles, _ = strconv.ParseInt(mm[1], 10, 64)
				c.against, _ = strconv.ParseInt(mm[2], 10, 64)
			}
		}
		if c.cycles == 0 {
			return
		}
		other, err := softpipe.CompileWith(p, m, softpipe.Options{}, heuristicOnly)
		if err != nil {
			t.Errorf("%s: %v", at, err)
			return
		}
		if other.Report.Loops[0].Hoisted != obj.Report.Loops[0].Hoisted {
			return // the two compiles kept different bodies of a conditional
		}
		got, err := difference(obj, p, m, softpipe.Options{}, heuristicOnly)
		switch {
		case err != nil:
			t.Errorf("%s: %v", at, err)
		case c.cycles < c.against:
			searched.Add(1)
			if got != c.cycles-c.against {
				t.Errorf("%s: searched plan kept at %d cycles against %d, predicted %+d; simulated %+d", at, c.cycles, c.against, c.cycles-c.against, got)
			}
		default:
			heuristic.Add(1)
			if got != 0 {
				t.Errorf("%s: heuristic's plan kept at %d cycles against %d; simulated %+d", at, c.against, c.cycles, got)
			}
		}
	}
	names, exact, ms := exactObjects(t)
	eachProgram(len(exact), func(i int) {
		if len(entries(exact[i])) == 1 {
			planChoice(exact[i], ms[i], names[i])
		}
	})
	for _, m := range machines {
		for _, body := range countedBodies {
			p, err := softpipe.ParseSource(fmt.Sprintf(body.src, 99))
			if err != nil {
				t.Fatal(err)
			}
			obj, err := softpipe.Compile(p, m, softpipe.Options{})
			if err != nil {
				t.Fatal(err)
			}
			onePass := obj.Report.Loops[0].Stages - 1 + obj.Report.Loops[0].Unroll
			for n := 1; n <= 3*onePass+1; n++ {
				p, err := softpipe.ParseSource(fmt.Sprintf(body.src, n))
				if err != nil {
					t.Fatal(err)
				}
				flatChoice(p, m, fmt.Sprintf("%s/%d on %s", body.name, n, m.Name))
			}
		}
	}

	progs := digestPrograms(t)
	eachProgram(len(progs), func(i int) {
		p := progs[i].prog
		runs := entries(p)
		for _, m := range machines {
			at := progs[i].name + " on " + m.Name
			if len(runs) == 1 {
				flatChoice(p, m, at)
				planChoice(p, m, at)
			}
			obj, cs, err := choices(p, m, "codegen.rotate")
			if err != nil {
				t.Errorf("%s: %v", at, err)
				continue
			}
			want, moved := int64(0), false
			for _, c := range cs {
				lr := obj.Report.Loops[slices.IndexFunc(obj.Report.Loops, func(lr softpipe.LoopInfo) bool { return lr.LoopID == c.loop })]
				if lr.Rotated == 0 {
					kept.Add(1)
					continue
				}
				rotated.Add(1)
				moved = true
				if c.cycles >= c.against || runs[c.loop] < 0 {
					t.Errorf("%s, loop %d: rotated at %d cycles against %d, entered %d times", at, c.loop, c.cycles, c.against, runs[c.loop])
				}
				want += runs[c.loop] * (c.cycles - c.against)
			}
			noRotation := func(o *codegen.Options) { o.NoRotation = true }
			if !moved {
				// Nothing rotated: the object is the NoRotation one, word for
				// word (and a program that receives has no tape to run on).
				if plain, err := softpipe.CompileWith(p, m, softpipe.Options{}, noRotation); err != nil || plain.Disassemble() != obj.Disassemble() {
					t.Errorf("%s: no nest rotated, yet the object differs from the NoRotation one (%v)", at, err)
				}
				continue
			}
			if got, err := difference(obj, p, m, softpipe.Options{}, noRotation); err != nil || got != want {
				t.Errorf("%s: rotation predicted %+d cycles, simulated %+d (%v)", at, want, got, err)
			}
		}
	})
	t.Logf("flat taken %d, refused %d; rotated %d, kept in program order %d; searched plan kept %d, heuristic's %d",
		taken.Load(), refused.Load(), rotated.Load(), kept.Load(), searched.Load(), heuristic.Load())
	if taken.Load() == 0 || refused.Load() == 0 || rotated.Load() == 0 || kept.Load() == 0 || searched.Load() == 0 || heuristic.Load() == 0 {
		t.Error("a side of a choice is never exercised: the test checks less than it claims")
	}
}
