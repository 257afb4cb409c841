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
	"softpipe/internal/vliw/vliwtest"
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
		// Mixed kinds: an array turned int, or into no kind at all, and an
		// int array moved past a gap to the end of a grown memory.
		f.Add(uint8(i), []byte{7, 0, 2, 0})
		f.Add(uint8(i), []byte{7, 1, 2, 0, 7, 0, 2, 5})
		f.Add(uint8(i), []byte{8, 0, 0, 100, 7, 0, 2, 0, 7, 0, 0, 90})
		// Overlapping layouts: a base moved one word down, a size grown one
		// word, each across a kind boundary as well.
		f.Add(uint8(i), []byte{7, 1, 0, 0xff})
		f.Add(uint8(i), []byte{7, 0, 1, 1})
		f.Add(uint8(i), []byte{7, 1, 2, 0, 7, 1, 0, 0xff})
		f.Add(uint8(i), []byte{7, 0, 2, 0, 7, 0, 1, 1, 11, 0, 0, 20})
	}
	f.Fuzz(func(t *testing.T, base uint8, edits []byte) {
		b := bases[int(base)%len(bases)]
		var p vliw.Program
		if err := json.Unmarshal(b.json, &p); err != nil {
			t.Fatal(err)
		}
		vliwtest.Perturb(&p, edits)
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
