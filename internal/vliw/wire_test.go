package vliw

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
	"unsafe"

	"softpipe/internal/machine"
)

// TestObjectCodeSizes pins the object format's footprint: a slot op is at
// most 64 bytes and holds no slice (its sources are inline, its rings out
// of line behind one pointer), and an instruction word is at most 48.
func TestObjectCodeSizes(t *testing.T) {
	if n := unsafe.Sizeof(SlotOp{}); n > 64 {
		t.Errorf("SlotOp is %d bytes, more than 64", n)
	}
	if n := unsafe.Sizeof(Instr{}); n > 48 {
		t.Errorf("Instr is %d bytes, more than 48", n)
	}
	op := reflect.TypeOf(SlotOp{})
	for i := 0; i < op.NumField(); i++ {
		if f := op.Field(i); f.Type.Kind() == reflect.Slice {
			t.Errorf("SlotOp.%s is a slice", f.Name)
		}
	}
}

// legacyWire is the op in the old layout, whose encoding/json bytes are
// the wire form: Src as the sources the class reads (nil for none), a
// source-ring list only when some source has a ring.
func legacyWire(o *SlotOp) wireOp {
	w := wireOp{Class: o.Class, Dst: o.Dst, FImm: o.FImm, IImm: o.IImm, Disp: o.Disp, Array: o.Array}
	for i := 0; i < o.Class.Info().NSrc(); i++ {
		w.Src = append(w.Src, o.Src[i])
		w.SrcRings = append(w.SrcRings, o.SrcRing(i))
	}
	if !slices.ContainsFunc(w.SrcRings, func(r []int32) bool { return r != nil }) {
		w.SrcRings = nil
	}
	w.DstRing = o.DstRing()
	return w
}

// randomOp draws a slot op whose fields cover what the wire form must
// reproduce: every class, negative and large registers, floats on both
// sides of the exponent cut-offs, array names that need escaping, and
// rings on some operands.
func randomOp(rng *rand.Rand) SlotOp {
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-7, 1e-6, 9.99e20, 1e21, 3e-9, -1.5e300, 5e-324, math.MaxFloat64, 0.1}
	names := []string{"", "a", "x_1", "tab<le>", "a&b", `q"uote`, "back\\slash", "ctl\x01", "ünï", " ", "bad\xff"}
	reg := func() int32 {
		if rng.Intn(8) == 0 {
			return int32(rng.Uint32())
		}
		return int32(rng.Intn(64))
	}
	ring := func() []int32 {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []int32{}
		}
		r := make([]int32, 1+rng.Intn(4))
		for i := range r {
			r[i] = reg()
		}
		return r
	}
	o := SlotOp{
		Class: machine.Class(rng.Intn(machine.NumClasses() + 2)),
		Dst:   reg(),
		Src:   [3]int32{reg(), reg(), reg()},
		Disp:  int32(rng.Uint32()),
		FImm:  floats[rng.Intn(len(floats))] * float64(1-2*rng.Intn(2)),
		IImm:  int64(rng.Uint64()),
		Array: names[rng.Intn(len(names))],
	}
	if rng.Intn(3) == 0 {
		o.Rings = &Rings{Dst: ring(), Src: [3][]int32{ring(), ring(), ring()}}
	}
	return o
}

// TestSlotOpWireMatchesLegacy: Program.Wire writes, byte for byte, what
// encoding/json wrote for the old layout of the same program, whose ops
// legacyWire builds from the accessors; and a program written in its
// in-memory layout reads back to the same program, as the fuzzers' fresh
// copies need.  The wire form is Program and Instr field for field, the
// ops aside, so a field added to either is added to the wire form too.
func TestSlotOpWireMatchesLegacy(t *testing.T) {
	for _, c := range []struct{ mem, wire any }{{Program{}, wireProgram{}}, {Instr{}, wireInstr{}}} {
		mt, wt := reflect.TypeOf(c.mem), reflect.TypeOf(c.wire)
		if mt.NumField() != wt.NumField() {
			t.Fatalf("%v has %d fields, %v %d", mt, mt.NumField(), wt, wt.NumField())
		}
		for i := 0; i < mt.NumField(); i++ {
			mf, wf := mt.Field(i), wt.Field(i)
			if mf.Name != wf.Name || mf.Tag != wf.Tag {
				t.Errorf("%v field %d is %s %q, %v's is %s %q", mt, i, mf.Name, mf.Tag, wt, wf.Name, wf.Tag)
			}
			if mf.Name != "Instrs" && mf.Name != "Ops" && mf.Type != wf.Type {
				t.Errorf("%v.%s is %v, %v's is %v", mt, mf.Name, mf.Type, wt, wf.Type)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	p := &Program{Name: "random", NumFRegs: 3, NumIRegs: 4, MemWords: 5,
		Arrays:  []ArrayInfo{{Name: "a", Base: 1, Size: 4}},
		InitF:   map[string][]float64{"a": {1, 2.5}},
		Results: []Result{{Name: "s", Reg: 2}}}
	legacy := &wireProgram{Name: p.Name, NumFRegs: p.NumFRegs, NumIRegs: p.NumIRegs, MemWords: p.MemWords,
		Arrays: p.Arrays, InitF: p.InitF, InitI: p.InitI, Results: p.Results}
	for i := 0; i < 20_000; i++ {
		o := randomOp(rng)
		// Words of zero to three ops, an empty op list and a nil one.
		if k := len(p.Instrs); k == 0 || len(p.Instrs[k-1].Ops) == 3 || rng.Intn(4) == 0 {
			in := Instr{Ctl: Ctl{Kind: CtlKind(rng.Intn(7)), Reg: int32(rng.Intn(9)), Target: int32(k)}}
			switch rng.Intn(3) {
			case 0:
				in.Ops = []SlotOp{}
			case 1:
				in.Ctl.RegRing = &[]int32{1, 2}
			}
			p.Instrs = append(p.Instrs, in)
			legacy.Instrs = append(legacy.Instrs, wireInstr{Ctl: in.Ctl})
			if in.Ops != nil {
				legacy.Instrs[k].Ops = []wireOp{}
			}
		}
		k := len(p.Instrs) - 1
		p.Instrs[k].Ops = append(p.Instrs[k].Ops, o)
		legacy.Instrs[k].Ops = append(legacy.Instrs[k].Ops, legacyWire(&o))
	}
	p.Instrs = append(p.Instrs, Instr{Ctl: Ctl{Kind: CtlHalt}})
	legacy.Instrs = append(legacy.Instrs, wireInstr{Ctl: Ctl{Kind: CtlHalt}})
	want, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(p.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("Program.Wire differs from the old layout at byte %d:\n%s\nwant\n%s",
			i, got[max(0, i-200):min(len(got), i+100)], want[max(0, i-200):min(len(want), i+100)])
	}

	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Program
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// (encoding/json writes an invalid byte as \ufffd, which reads back
	// as the rune: such a name does not round-trip in any layout.)
	for i := range back.Instrs {
		for j := range back.Instrs[i].Ops {
			o, b := &p.Instrs[i].Ops[j], &back.Instrs[i].Ops[j]
			if !utf8.ValidString(o.Array) && b.Array == strings.ToValidUTF8(o.Array, "\uFFFD") {
				b.Array = o.Array
			}
		}
	}
	if !reflect.DeepEqual(&back, p) {
		t.Fatal("a program written in its in-memory layout reads back as another program")
	}

	// A program written out: the op lists and sequencer fields keep their
	// nil/empty distinctions, a register ring included.
	p = &Program{Name: "p", Instrs: []Instr{
		{Ops: []SlotOp{{Class: machine.ClassFAdd, Dst: 1, Src: [3]int32{2, 3}}}, Ctl: Ctl{Kind: CtlJZ, Reg: 4, Target: 1, RegRing: &[]int32{4, 5}}},
		{Ops: []SlotOp{}},
		{Ctl: Ctl{Kind: CtlDBNZ, Reg: 2, Target: 0, Rotate: true}},
	}}
	const wire = `{"Name":"p","Instrs":[` +
		`{"Ops":[{"Class":1,"Dst":1,"Src":[2,3],"FImm":0,"IImm":0,"Disp":0,"Array":""}],"Ctl":{"Kind":4,"Reg":4,"Target":1,"RegRing":[4,5]}},` +
		`{"Ops":[],"Ctl":{"Kind":0,"Reg":0,"Target":0}},` +
		`{"Ops":null,"Ctl":{"Kind":3,"Reg":2,"Target":0,"Rotate":true}}],` +
		`"NumFRegs":0,"NumIRegs":0,"MemWords":0,"Arrays":null,"InitF":null,"InitI":null,"Results":null}`
	if data, err := json.Marshal(p.Wire()); err != nil || string(data) != wire {
		t.Fatalf("program writes\n%s\nwant\n%s", data, wire)
	}
}
