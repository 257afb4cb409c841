package verify_test

import (
	"encoding/json"
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/verify"
	"softpipe/internal/vliw"
	"softpipe/internal/vliw/vliwtest"
	"softpipe/internal/workloads"
)

// fuzzSubject is a compiled program a fuzz input perturbs: one object
// with its source, or a partitioned array whose cell cell is perturbed.
type fuzzSubject struct {
	src  *ir.Program
	m    *machine.Machine
	json []byte // the object, so every input edits a fresh copy
	arr  *arrayCase
	cell int
}

// fuzzSubjects compiles what FuzzVerifyObject starts from — the
// programs FuzzSimDecode starts from: a plain loop, a memory-bound
// kernel, a rotating kernel, a conditional, and both cells of saxpy
// partitioned in two.
func fuzzSubjects(f *testing.F) []fuzzSubject {
	rot, err := machine.DefaultGrid()[1].Machine()
	if err != nil {
		f.Fatal(err)
	}
	var cond *ir.Program
	for _, p := range workloads.Suite() {
		if p.HasCond {
			cond = p.Prog
			break
		}
	}
	var subs []fuzzSubject
	for _, c := range []struct {
		p    *ir.Program
		mach string
	}{{saxpy(f), "warp"}, {livermore(f, 7), "warp"}, {livermore(f, 1), rot.Name}, {cond, "warp"}} {
		obj, m := compileOn(f, c.p, c.mach)
		data, err := json.Marshal(obj)
		if err != nil {
			f.Fatal(err)
		}
		subs = append(subs, fuzzSubject{src: c.p, m: m, json: data})
	}
	arr := saxpyArray(f, 2)
	for i := range arr.objs {
		subs = append(subs, fuzzSubject{arr: arr, cell: i})
	}
	return subs
}

// decode returns a fresh copy of the subject's object.
func (s *fuzzSubject) decode(t *testing.T) *vliw.Program {
	data := s.json
	if s.arr != nil {
		var err error
		if data, err = json.Marshal(s.arr.objs[s.cell]); err != nil {
			t.Fatal(err)
		}
	}
	var p vliw.Program
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	return &p
}

// FuzzVerifyObject: the verifier is the trust root, so a hostile object —
// registers, rings, control targets, classes, array layout and sizes
// moved out of their consistent places, as FuzzSimDecode moves them —
// gets a verdict from Static and from Program (or Array, for a cell of a
// partitioned program), refused or not, within a cycle cap.  Nothing
// panics.
//
//	go test -run '^$' -fuzz FuzzVerifyObject -fuzztime 60s -parallel 2 ./internal/verify
func FuzzVerifyObject(f *testing.F) {
	subs := fuzzSubjects(f)
	for i := range subs {
		f.Add(uint8(i), []byte{})
		f.Add(uint8(i), []byte{0, 3, 1, 99, 1, 5, 2, 0xff})
		f.Add(uint8(i), []byte{5, 2, 4, 0x80, 6, 7, 3, 120})
		f.Add(uint8(i), []byte{7, 0, 0, 100, 7, 1, 1, 50, 8, 0, 0, 0xf0})
		f.Add(uint8(i), []byte{2, 4, 2, 70, 3, 4, 1, 0xfe, 4, 1, 0, 0x7f})
		f.Add(uint8(i), []byte{9, 3, 1, 0x90, 10, 0, 0, 77, 11, 1, 0, 3, 12, 2, 0, 0})
	}
	f.Fuzz(func(t *testing.T, base uint8, edits []byte) {
		s := &subs[int(base)%len(subs)]
		p := s.decode(t)
		vliwtest.Perturb(p, edits)
		opts := verify.Options{MaxCycles: 20_000}
		if s.arr == nil {
			_ = verify.Static(p, s.m)
			_ = verify.ProgramOpts(s.src, p, s.m, opts)
			return
		}
		a := *s.arr
		a.objs = append([]*vliw.Program(nil), a.objs...)
		a.objs[s.cell] = p
		_ = verify.Static(p, a.ms[s.cell])
		_ = a.verify(opts)
	})
}
