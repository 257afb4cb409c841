package machine

import "testing"

// FuzzMachineParse: Parse never panics, and whatever it accepts is a
// valid machine whose canonical name Parse takes back to the same
// fingerprint.  Seeded with the corpus digest's sixteen machines and the
// compile-exact grid points.
//
//	go test -run '^$' -fuzz FuzzMachineParse -fuzztime 60s -parallel 2 ./internal/machine
func FuzzMachineParse(f *testing.F) {
	f.Add("warp")
	f.Add("wide2")
	grid := append(DefaultGrid(),
		Gen{FAdds: 2, FMuls: 2, MemPorts: 2, FloatRegs: 24},
		Gen{FAdds: 2, FMuls: 2, MemPorts: 2, FloatRegs: 24, RotatingRegs: true},
		Gen{FAdds: 1, FMuls: 1, MemPorts: 1, RotatingRegs: true},
		Gen{FAdds: 4, FMuls: 4, MemPorts: 2})
	for _, g := range grid {
		f.Add(g.Name())
	}
	f.Fuzz(func(t *testing.T, name string) {
		m, err := Parse(name)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatalf("Parse(%q): nil machine and no error", name)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted an invalid machine: %v", name, err)
		}
		again, err := Parse(m.Name)
		if err != nil {
			t.Fatalf("Parse(%q) named its machine %q, which Parse refuses: %v", name, m.Name, err)
		}
		if again.Fingerprint() != m.Fingerprint() {
			t.Fatalf("Parse(%q) and Parse(%q) of its canonical name differ", name, m.Name)
		}
	})
}
