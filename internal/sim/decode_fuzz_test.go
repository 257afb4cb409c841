package sim_test

import (
	"encoding/json"
	"os"
	"testing"

	"softpipe"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/vliw"
	"softpipe/internal/workloads"
)

// fuzzBase is a compiled object program a fuzz input perturbs, with the
// machine it was compiled for.
type fuzzBase struct {
	name string
	m    *machine.Machine
	json []byte // the program, so every input edits a fresh copy
}

// fuzzBases compiles the programs FuzzSimDecode starts from: a plain
// loop, a fast-path kernel, a rotating kernel, conditionals, and the
// queue-traffic fragments of a partitioned array.
func fuzzBases(f *testing.F) []fuzzBase {
	warp := machine.Warp()
	rot, err := machine.DefaultGrid()[1].Machine()
	if err != nil {
		f.Fatal(err)
	}
	saxpy, err := os.ReadFile("../../testdata/saxpy.w2")
	if err != nil {
		f.Fatal(err)
	}
	kernel := func(id int) string {
		for _, k := range workloads.Livermore() {
			if k.ID == id {
				return k.Source
			}
		}
		f.Fatalf("no Livermore kernel %d", id)
		return ""
	}
	var cond *ir.Program
	for _, p := range workloads.Suite() {
		if p.HasCond {
			cond = p.Prog
			break
		}
	}
	var bases []fuzzBase
	add := func(name string, m *machine.Machine, p *vliw.Program) {
		data, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		bases = append(bases, fuzzBase{name, m, data})
	}
	for _, c := range []struct {
		name, src string
		m         *machine.Machine
	}{
		{"saxpy", string(saxpy), warp},
		{"k7", kernel(7), warp},
		{"k1/rot", kernel(1), rot},
	} {
		obj, err := softpipe.CompileSource(c.src, c.m, softpipe.Options{})
		if err != nil {
			f.Fatalf("%s: %v", c.name, err)
		}
		add(c.name, c.m, obj.Binary)
	}
	obj, err := softpipe.Compile(cond, warp, softpipe.Options{})
	if err != nil {
		f.Fatal(err)
	}
	add("cond", warp, obj.Binary)
	ao, err := softpipe.CompileSourcePartitioned(string(saxpy), softpipe.Machines(warp, 2), softpipe.Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range ao.Cells {
		add("saxpy/cell", warp, c.Binary)
	}
	return bases
}

// perturb applies edits to p, four bytes an edit: what to change, two
// selectors and a signed value.  Each edit moves one field a well-formed
// program keeps consistent — a register, a ring entry, a control target,
// a class, the array layout — to where it may no longer be.
func perturb(p *vliw.Program, edits []byte) {
	for len(edits) >= 4 {
		kind, a, b, v := edits[0], int(edits[1]), int(edits[2]), int(int8(edits[3]))
		edits = edits[4:]
		if len(p.Instrs) == 0 {
			return
		}
		in := &p.Instrs[a%len(p.Instrs)]
		var op *vliw.SlotOp
		if len(in.Ops) > 0 {
			op = &in.Ops[b%len(in.Ops)]
		}
		switch kind % 13 {
		case 0: // a destination register
			if op != nil {
				op.Dst = v
			}
		case 1: // a source register, past the op's arity if need be
			if op != nil {
				k := b % 4
				for len(op.Src) <= k {
					op.Src = append(op.Src, 0)
				}
				op.Src[k] = v
			}
		case 2: // a destination ring of b%4 entries
			if op != nil {
				op.DstRing = make([]int, b%4)
				for i := range op.DstRing {
					op.DstRing[i] = v + i
				}
			}
		case 3: // a source ring entry
			if op != nil {
				k := b % 4
				for len(op.SrcRings) <= k {
					op.SrcRings = append(op.SrcRings, nil)
				}
				op.SrcRings[k] = append(op.SrcRings[k], v)
			}
		case 4: // the class, in or out of the table
			if op != nil {
				op.Class = machine.Class(v)
			}
		case 5: // the sequencer's kind and target
			in.Ctl.Kind = vliw.CtlKind(b % 8)
			in.Ctl.Target = v
		case 6: // the sequencer's register, its ring and the rotate flag
			in.Ctl.Reg = v
			if b%3 == 0 {
				in.Ctl.RegRing = append(in.Ctl.RegRing, v)
			}
			in.Ctl.Rotate = b%2 == 0
		case 7: // one array's placement and kind
			if len(p.Arrays) > 0 {
				arr := &p.Arrays[a%len(p.Arrays)]
				switch b % 3 {
				case 0:
					arr.Base += v
				case 1:
					arr.Size += v
				default:
					arr.Kind = ir.Kind(v)
				}
			}
		case 8: // the memory size and the register files
			switch b % 3 {
			case 0:
				p.MemWords += v
			case 1:
				p.NumFRegs += v
			default:
				p.NumIRegs += v
			}
		case 9: // the array an op names, its displacement and immediates
			if op != nil {
				switch b % 4 {
				case 0:
					op.Array = "?"
					if len(p.Arrays) > 0 && v >= 0 {
						op.Array = p.Arrays[v%len(p.Arrays)].Name
					}
				case 1:
					op.Disp += int64(v)
				case 2:
					op.IImm = int64(v)
				default:
					op.FImm = float64(v)
				}
			}
		case 10: // a result's register and kind
			if len(p.Results) > 0 {
				r := &p.Results[b%len(p.Results)]
				r.Reg = v
				if v < 0 {
					r.Kind = ir.Kind(-v)
				}
			}
		case 11: // initial data of a length that need not match
			if len(p.Arrays) > 0 && v >= 0 {
				name := p.Arrays[a%len(p.Arrays)].Name
				if p.InitF == nil {
					p.InitF = map[string][]float64{}
				}
				if p.InitI == nil {
					p.InitI = map[string][]int64{}
				}
				p.InitF[name] = make([]float64, v)
				p.InitI[name] = make([]int64, v)
			}
		default: // the shape: drop a word, repeat one, or empty its slots
			switch b % 3 {
			case 0:
				p.Instrs = append(p.Instrs[:a%len(p.Instrs)], p.Instrs[a%len(p.Instrs)+1:]...)
			case 1:
				p.Instrs = append(p.Instrs, *in)
			default:
				in.Ops = nil
			}
		}
	}
}

// FuzzSimDecode: a hostile object program — registers, rings, control
// targets, classes and array layout moved out of their consistent places —
// is either refused by sim.Decode or runs, fast path engaged or step by
// step, to a halt or an error within a cycle cap.  Nothing panics.
//
//	go test -run '^$' -fuzz FuzzSimDecode -fuzztime 60s -parallel 2 ./internal/sim
func FuzzSimDecode(f *testing.F) {
	bases := fuzzBases(f)
	for i := range bases {
		f.Add(uint8(i), []byte{})
		f.Add(uint8(i), []byte{0, 3, 1, 99, 1, 5, 2, 0xff})
		f.Add(uint8(i), []byte{5, 2, 4, 0x80, 6, 7, 3, 120})
		f.Add(uint8(i), []byte{7, 0, 0, 100, 7, 1, 1, 50, 8, 0, 0, 0xf0})
		f.Add(uint8(i), []byte{2, 4, 2, 70, 3, 4, 1, 0xfe, 4, 1, 0, 0x7f})
		f.Add(uint8(i), []byte{9, 3, 1, 0x90, 10, 0, 0, 77, 11, 1, 0, 3, 12, 2, 0, 0})
	}
	f.Fuzz(func(t *testing.T, base uint8, edits []byte) {
		b := bases[int(base)%len(bases)]
		var p vliw.Program
		if err := json.Unmarshal(b.json, &p); err != nil {
			t.Fatal(err)
		}
		perturb(&p, edits)
		const maxCycles = 20_000
		input := []float64{1, 2, 3, 4}
		if prog, err := sim.Decode(&p, b.m); err == nil {
			c := sim.NewCell(prog)
			c.MaxCycles, c.InputTape = maxCycles, input
			_, _ = c.Run()
		}
		c := sim.New(&p, b.m)
		c.MaxCycles, c.InputTape = maxCycles, input
		_, _ = c.Run()
	})
}
