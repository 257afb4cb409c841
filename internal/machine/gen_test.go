package machine

import (
	"strings"
	"testing"
)

func TestStringNegativeValues(t *testing.T) {
	// Regression: diagnostics on corrupt input must print, not panic.
	if got := Resource(-1).String(); got != "Res(-1)" {
		t.Errorf("Resource(-1).String() = %q, want Res(-1)", got)
	}
	if got := Class(255).String(); got != "class(255)" {
		t.Errorf("Class(255).String() = %q, want class(255)", got)
	}
	if got := Resource(999).String(); got != "Res(999)" {
		t.Errorf("Resource(999).String() = %q, want Res(999)", got)
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	cases := []struct {
		name string
		mut  func(m *Machine)
	}{
		{"zero clock", func(m *Machine) { m.ClockMHz = 0 }},
		{"negative clock", func(m *Machine) { m.ClockMHz = -5 }},
		{"zero cells", func(m *Machine) { m.Cells = 0 }},
		{"zero resource count", func(m *Machine) { m.ResourceCount[ResFMul] = 0 }},
		{"negative resource count", func(m *Machine) { m.ResourceCount[ResALU] = -1 }},
		{"no float regs", func(m *Machine) { m.FloatRegs = 0 }},
		{"no int regs", func(m *Machine) { m.IntRegs = -3 }},
	}
	for _, c := range cases {
		m := Warp()
		c.mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a nonsense machine", c.name)
		}
	}
}

func TestGenDefaultsMatchWarpDatapath(t *testing.T) {
	m, err := Gen{}.Machine()
	if err != nil {
		t.Fatal(err)
	}
	w := Warp()
	for r := range w.ResourceCount {
		if m.ResourceCount[r] != w.ResourceCount[r] {
			t.Errorf("default gen resource %v = %d, warp has %d",
				Resource(r), m.ResourceCount[r], w.ResourceCount[r])
		}
	}
	if m.FloatRegs != w.FloatRegs || m.IntRegs != w.IntRegs {
		t.Errorf("default gen register files %d/%d, warp has %d/%d",
			m.FloatRegs, m.IntRegs, w.FloatRegs, w.IntRegs)
	}
	if m.Latency(ClassFAdd) != 7 || m.Latency(ClassFMul) != 7 || m.Latency(ClassLoad) != 3 {
		t.Errorf("default gen latencies diverge from warp")
	}
	if m.Cells != 1 {
		t.Errorf("gen machines are single-cell, got %d", m.Cells)
	}
}

func TestGenNameRoundTrips(t *testing.T) {
	gens := append(DefaultGrid(),
		Gen{},
		Gen{FAdds: 2, FMuls: 3, MemPorts: 2, Lanes: 4, FAddLat: 9, FMulLat: 11, LoadLat: 5, FloatRegs: 128, RotatingRegs: true},
	)
	for _, g := range gens {
		name := g.Name()
		if !strings.HasPrefix(name, "gen:") {
			t.Fatalf("canonical name %q lacks the gen: prefix", name)
		}
		m, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if m.Name != name {
			t.Errorf("Parse(%q) produced machine named %q", name, m.Name)
		}
		want, err := g.Machine()
		if err != nil {
			t.Fatalf("Gen%+v.Machine(): %v", g, err)
		}
		if m.Fingerprint() != want.Fingerprint() {
			t.Errorf("Parse(%q) does not round-trip: fingerprints differ", name)
		}
	}
}

func TestGenRejectsNonsense(t *testing.T) {
	bad := []Gen{
		{FAdds: -1},
		{FMulLat: -7},
		{FloatRegs: -62},
		{Lanes: 100000},
		{FAddLat: 1 << 20},
	}
	for _, g := range bad {
		if _, err := g.Machine(); err == nil {
			t.Errorf("Gen%+v.Machine() accepted a nonsense grid point", g)
		}
	}
}

func TestParseUnifiedGrammar(t *testing.T) {
	// The single parser used by every surface: w2c, softpiped,
	// livermore, warpbench, and the sweep grid.
	ok := []string{"warp", "scalar", "wide1", "wide2", "wide64",
		"gen:fa2,fm2,mem2,lat7/7/3,fr62,rot", "gen:rot", "gen:x2,mem2"}
	for _, name := range ok {
		m, err := Parse(name)
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
			continue
		}
		if err := m.Validate(); err != nil {
			t.Errorf("Parse(%q) returned an invalid machine: %v", name, err)
		}
	}
	bad := []string{"", "wide", "wide0", "wide-1", "wide65", "widex", "petaflop",
		"gen:", "gen:fa0", "gen:fa2,fa3", "gen:lat7/7", "gen:rot,rot", "gen:bogus9"}
	for _, name := range bad {
		if _, err := Parse(name); err == nil {
			t.Errorf("Parse(%q) accepted a bad machine name", name)
		}
	}
	if m, _ := Parse("warp"); m.Cells != 10 {
		t.Error("Parse(warp) is not the 10-cell array")
	}
}

func TestDefaultGridValidAndInjective(t *testing.T) {
	grid := DefaultGrid()
	if len(grid) < 12 {
		t.Fatalf("default grid has %d points, want >= 12", len(grid))
	}
	seen := map[string]string{}
	names := map[string]bool{}
	rotating := 0
	for _, g := range grid {
		m, err := g.Machine()
		if err != nil {
			t.Fatalf("grid point %s: %v", g.Name(), err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("grid point %s fails Validate: %v", g.Name(), err)
		}
		if names[m.Name] {
			t.Errorf("duplicate grid point name %s", m.Name)
		}
		names[m.Name] = true
		fp := m.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision between grid points %s and %s", prev, m.Name)
		}
		seen[fp] = m.Name
		if m.RotatingRegs {
			rotating++
		}
	}
	if rotating == 0 {
		t.Error("default grid has no rotating-register point")
	}
	// Rotation is part of the machine identity: the same datapath with
	// and without rotation must not share a cache partition.
	a, _ := Gen{}.Machine()
	b, _ := Gen{RotatingRegs: true}.Machine()
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("RotatingRegs does not affect the fingerprint")
	}
}
