package sim_test

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"slices"
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

// noStore reads x and writes no array, so a cell allocates no memory.
const noStore = `
program dot;
var x: array [0..63] of real;
    s: real;
    i: int;
begin
  s := 0.0;
  for i := 0 to 63 do
    s := s + x[i] * x[i];
end.
`

// fuzzBases compiles the programs FuzzSimDecode starts from: a plain
// loop, a fast-path kernel, a rotating kernel, conditionals, the
// queue-traffic fragments of a partitioned array and a program without a
// store.  Every array is given nonzero initial data, so a write to the
// shared initial slices shows.
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
		p.InitF, p.InitI = maps.Clone(p.InitF), maps.Clone(p.InitI)
		if p.InitF == nil {
			p.InitF = map[string][]float64{}
		}
		if p.InitI == nil {
			p.InitI = map[string][]int64{}
		}
		for _, a := range p.Arrays {
			if a.Kind == ir.KindFloat && p.InitF[a.Name] == nil {
				p.InitF[a.Name] = make([]float64, a.Size)
				for i := range a.Size {
					p.InitF[a.Name][i] = float64(i%13)*0.5 + 0.25
				}
			} else if a.Kind == ir.KindInt && p.InitI[a.Name] == nil {
				p.InitI[a.Name] = make([]int64, a.Size)
				for i := range a.Size {
					p.InitI[a.Name][i] = int64(i % 5)
				}
			}
		}
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
		{"nostore", noStore, warp},
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
// runs step-only and then decoded, fast path engaged where it can, to a
// halt or an error within a cycle cap, and nothing panics.  The two agree:
// both fail with the same error text (sim.Decode's refusal is the step-only
// cell's first error), or both halt with equal stats, output and state.
// Neither writes the initial data the cells share: every InitF and InitI
// slice is bit-identical after both runs.
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
		initF, initI := deepClone(p.InitF), deepClone(p.InitI)
		const maxCycles = 20_000
		input := []float64{1, 2, 3, 4}
		step := sim.New(&p, b.m)
		step.MaxCycles, step.InputTape = maxCycles, input
		want, wantErr := step.Run()
		prog, err := sim.Decode(&p, b.m)
		var got *ir.State
		var cell *sim.Sim
		if err == nil {
			cell = sim.NewCell(prog)
			cell.MaxCycles, cell.InputTape = maxCycles, input
			got, err = cell.Run()
		}
		switch {
		case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
			t.Fatalf("step-only: %v; decoded: %v", wantErr, err)
		case err != nil:
		case cell.Stats() != step.Stats():
			t.Fatalf("stats: step-only %+v, decoded %+v", step.Stats(), cell.Stats())
		case !slices.EqualFunc(cell.OutputTape, step.OutputTape, sameF):
			t.Fatalf("output: step-only %v, decoded %v", step.OutputTape, cell.OutputTape)
		case !maps.EqualFunc(want.FloatArrays, got.FloatArrays, sameFs) ||
			!maps.EqualFunc(want.IntArrays, got.IntArrays, slices.Equal[[]int64]) ||
			!maps.EqualFunc(want.Scalars, got.Scalars, sameF):
			t.Fatalf("state: step-only vs decoded: %s", want.Diff(got))
		}
		if !maps.EqualFunc(initF, p.InitF, sameFs) || !maps.EqualFunc(initI, p.InitI, slices.Equal[[]int64]) {
			t.Fatal("a run wrote the program's initial data")
		}
	})
}

// sameF and sameFs compare floats by bits, so a NaN a run computed equals
// itself and 0 differs from -0.
func sameF(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFs(a, b []float64) bool { return slices.EqualFunc(a, b, sameF) }

// deepClone copies a map of slices, the slices included.
func deepClone[T any](m map[string][]T) map[string][]T {
	c := make(map[string][]T, len(m))
	for k, v := range m {
		c[k] = slices.Clone(v)
	}
	return c
}
