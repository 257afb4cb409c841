package machine

import (
	"fmt"
	"strings"
	"testing"
)

// TestEveryClassHasARow: the table covers the whole enumeration, and
// Warp's descriptor for a class is its row's unit, latency and flop weight.
func TestEveryClassHasARow(t *testing.T) {
	m := Warp()
	seen := map[string]Class{}
	for c := Class(0); c < numClasses; c++ {
		ci := c.Info()
		if ci.Name == "" {
			t.Fatalf("class %d has no row", int(c))
		}
		if prev, dup := seen[ci.Name]; dup {
			t.Errorf("classes %d and %d share the mnemonic %q", int(prev), int(c), ci.Name)
		}
		seen[ci.Name] = c
		for k := ci.NSrc(); k < len(ci.Src); k++ {
			if ci.Src[k] != FileNone {
				t.Errorf("%v: source %d follows an absent one", c, k)
			}
		}
		d := m.Desc(c)
		if d == nil {
			t.Fatalf("%v: Warp has no descriptor", c)
		}
		if d.Latency != ci.Latency || d.Flops != ci.Flops {
			t.Errorf("%v: Warp descriptor %d/%d, row says latency %d flops %d", c, d.Latency, d.Flops, ci.Latency, ci.Flops)
		}
		var want []ResUse
		if ci.Unit != noUnit {
			want = []ResUse{{Resource: ci.Unit}}
		}
		if fmt.Sprint(d.Reservation) != fmt.Sprint(want) {
			t.Errorf("%v: Warp reserves %v, row says %v", c, d.Reservation, want)
		}
	}
	for _, c := range []Class{numClasses, numClasses + 1, 255} {
		if ci := c.Info(); ci.Name != "" || ci.IR || ci.NSrc() != 0 || ci.Dst != FileNone {
			t.Errorf("unknown class %d has row %+v", int(c), ci)
		}
		if m.Desc(c) != nil {
			t.Errorf("unknown class %d has a descriptor", int(c))
		}
	}
}

// warpDescs is every Warp descriptor, "number mnemonic latency flops
// reservation".  Class numbering and these values feed Fingerprint, the
// corpus digest and the BENCH reports, so they are written out once here
// and not derived from the table under test.
const warpDescs = `0 nop 1 0 []
1 fadd 7 1 [{FAdd 0}]
2 fsub 7 1 [{FAdd 0}]
3 fmul 7 1 [{FMul 0}]
4 fneg 7 0 [{FAdd 0}]
5 fmov 7 0 [{FAdd 0}]
6 fconst 7 0 [{FAdd 0}]
7 fcmp 7 0 [{FAdd 0}]
8 iadd 1 0 [{ALU 0}]
9 isub 1 0 [{ALU 0}]
10 imul 2 0 [{ALU 0}]
11 imov 1 0 [{ALU 0}]
12 iconst 1 0 [{ALU 0}]
13 icmp 1 0 [{ALU 0}]
14 iselect 1 0 [{ALU 0}]
15 load 3 0 [{MemRd 0}]
16 store 1 0 [{MemWr 0}]
17 cjump 1 0 [{Branch 0}]
18 jump 1 0 [{Branch 0}]
19 halt 1 0 [{Branch 0}]
20 adradd 1 0 [{AGU 0}]
21 recv 2 0 [{QRecv 0}]
22 send 1 0 [{QSend 0}]
23 ishr 1 0 [{ALU 0}]
24 iand 1 0 [{ALU 0}]
25 frecipseed 7 1 [{FMul 0}]
26 frsqrtseed 7 1 [{FMul 0}]
27 f2i 7 0 [{FAdd 0}]
28 i2f 7 0 [{FAdd 0}]
`

func descs(m *Machine) string {
	var b strings.Builder
	for c, d := range m.Ops {
		fmt.Fprintf(&b, "%d %v %d %d %v\n", c, Class(c), d.Latency, d.Flops, d.Reservation)
	}
	return b.String()
}

// TestDescriptorsPinned: Warp, the wide cells and the twelve default grid
// points carry exactly the written-out descriptors; Scalar carries them
// with its issue slot appended to every reservation.
func TestDescriptorsPinned(t *testing.T) {
	same := []*Machine{Warp(), Wide(2), Wide(4)}
	for _, g := range DefaultGrid() {
		m, err := g.Machine()
		if err != nil {
			t.Fatal(err)
		}
		same = append(same, m)
	}
	for _, m := range same {
		if got := descs(m); got != warpDescs {
			t.Errorf("%s descriptors moved:\n%s", m.Name, got)
		}
	}
	scalar := strings.NewReplacer("[]", "[{Res(9) 0}]", "0}]", "0} {Res(9) 0}]").Replace(warpDescs)
	if got := descs(Scalar()); got != scalar {
		t.Errorf("scalar descriptors moved:\n%s", got)
	}
}

// TestFingerprintPinned holds the cache-key component of the named
// machines to its historical value: a moved digest changes every
// artifact's bytes, and so every object_sha256 the daemon answers, and
// re-records BENCH_sweep.json.
func TestFingerprintPinned(t *testing.T) {
	for name, want := range map[string]string{
		"warp":   "fc680ee27df73224a819cbfaa8f93b82499851aa63c7bf6ccb828e290d078f52",
		"scalar": "6ea4a98d367604d37d6c5eeca987d1acb7ae1fbf97a8ae39971faac710f585ce",
		"wide2":  "cdafd2f53c1aad55d1baee8b3957da7a1762cad3a4a5282bfb763452239b0b7d",
		"wide4":  "33b2ce6f7bff8a52515771c1b0c7b6a1ce364a6b02929fd54397adc4f940c183",
		// Distinct latencies on the adder, multiplier and load paths: pins
		// which classes each of the three takes.
		"gen:fa1,fm1,mem1,lat11/13/17,fr62": "74a5e4b943d0b7617a8ae26a95a2bb5567d2ec55a0a009e3580638ac78494317",
	} {
		m, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Fingerprint(); got != want {
			t.Errorf("%s fingerprint %s, want %s", name, got, want)
		}
	}
}

// TestGenLatenciesFollowUnits: a generated machine's three latencies land
// on exactly the classes issued on the adder, the multiplier and the read
// port, and nowhere else.
func TestGenLatenciesFollowUnits(t *testing.T) {
	m, err := Gen{FAddLat: 11, FMulLat: 13, LoadLat: 17}.Machine()
	if err != nil {
		t.Fatal(err)
	}
	for c := Class(0); c < numClasses; c++ {
		ci := c.Info()
		want := ci.Latency
		switch ci.Unit {
		case ResFAdd:
			want = 11
		case ResFMul:
			want = 13
		case ResMemRd:
			want = 17
		}
		if got := m.Latency(c); got != want {
			t.Errorf("%v (unit %v): latency %d, want %d", c, ci.Unit, got, want)
		}
	}
	if m.MaxLatency() != 17 || Warp().MaxLatency() != 7 || (&Machine{}).MaxLatency() != 1 {
		t.Errorf("MaxLatency: gen %d warp %d empty %d", m.MaxLatency(), Warp().MaxLatency(), (&Machine{}).MaxLatency())
	}
}

func TestFileResolve(t *testing.T) {
	for _, tc := range []struct {
		f                  File
		arrFloat, selFloat bool
		want               File
	}{
		{FileNone, true, true, FileNone},
		{FileFloat, false, false, FileFloat},
		{FileInt, true, true, FileInt},
		{FileArray, true, false, FileFloat},
		{FileArray, false, true, FileInt},
		{FileSelect, false, true, FileFloat},
		{FileSelect, true, false, FileInt},
	} {
		if got := tc.f.Resolve(tc.arrFloat, tc.selFloat); got != tc.want {
			t.Errorf("File(%d).Resolve(%v, %v) = %d, want %d", tc.f, tc.arrFloat, tc.selFloat, got, tc.want)
		}
	}
}

// TestPureClassesPinned: the classes that may run when their result is not
// wanted (hier lifts them out of conditional arms), written out: every IR
// class with a destination except the two that can fault or consume —
// load and recv.  Store and send have no destination.
func TestPureClassesPinned(t *testing.T) {
	const want = "fadd fsub fmul fneg fmov fconst fcmp iadd isub imul imov iconst icmp iselect adradd frecipseed frsqrtseed f2i i2f"
	var got []string
	for c := Class(0); c < numClasses; c++ {
		if c.Info().Pure() {
			got = append(got, c.String())
		}
	}
	if s := strings.Join(got, " "); s != want {
		t.Errorf("pure classes:\n got %s\nwant %s", s, want)
	}
}
