package machine

import (
	"fmt"
	"strings"
)

// Gen is a parameterized machine generator: one point in the design
// space explored by the sweep harness (`warpbench -sweep`, the service's
// /sweep endpoint).  The zero value of any field means "the Warp-like
// default" — Gen{} generates a single-cell machine with Warp's datapath.
//
// Lanes scales the whole datapath (SIMD-style): a machine with Lanes=2
// has twice the adders, multipliers, memory ports, ALUs, AGUs and
// register files of the 1-lane configuration.  RotatingRegs selects a
// rotating register file, which collapses modulo-variable-expansion
// unrolling to degree 1 (see Machine.RotatingRegs).
type Gen struct {
	FAdds        int  // floating adder issue slots (default 1)
	FMuls        int  // floating multiplier issue slots (default 1)
	MemPorts     int  // memory read and write ports, each (default 1)
	Lanes        int  // datapath replication factor (default 1)
	FAddLat      int  // adder-path latency in cycles (default 7)
	FMulLat      int  // multiplier-path latency in cycles (default 7)
	LoadLat      int  // load latency in cycles (default 3)
	FloatRegs    int  // float register file size per lane (default 62)
	RotatingRegs bool // rotating register file (default false: pure MVE)
}

// withDefaults fills zero fields with the Warp-like baseline.
func (g Gen) withDefaults() Gen {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&g.FAdds, 1)
	def(&g.FMuls, 1)
	def(&g.MemPorts, 1)
	def(&g.Lanes, 1)
	def(&g.FAddLat, 7)
	def(&g.FMulLat, 7)
	def(&g.LoadLat, 3)
	def(&g.FloatRegs, 62)
	return g
}

// Name returns the stable canonical name of the grid point, e.g.
// "gen:fa2,fm2,mem2,lat7/7/3,fr62,rot".  Parse round-trips it.  The lane
// segment ",x<N>" appears only for Lanes > 1, and ",rot" only for
// rotating machines, so baseline names stay short and stable.
func (g Gen) Name() string {
	g = g.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "gen:fa%d,fm%d,mem%d", g.FAdds, g.FMuls, g.MemPorts)
	if g.Lanes > 1 {
		fmt.Fprintf(&b, ",x%d", g.Lanes)
	}
	fmt.Fprintf(&b, ",lat%d/%d/%d,fr%d", g.FAddLat, g.FMulLat, g.LoadLat, g.FloatRegs)
	if g.RotatingRegs {
		b.WriteString(",rot")
	}
	return b.String()
}

// Machine instantiates the grid point as a validated target description.
// The datapath is Warp's, scaled: FAdds×Lanes adder slots, FMuls×Lanes
// multiplier slots, MemPorts×Lanes read and write ports, Lanes ALUs and
// 2×Lanes AGUs, with the requested latencies on the float/load paths.
func (g Gen) Machine() (*Machine, error) {
	g = g.withDefaults()
	for _, f := range []struct {
		name string
		v    int
	}{
		{"fa", g.FAdds}, {"fm", g.FMuls}, {"mem", g.MemPorts}, {"x", g.Lanes},
		{"lat(fadd)", g.FAddLat}, {"lat(fmul)", g.FMulLat}, {"lat(load)", g.LoadLat},
		{"fr", g.FloatRegs},
	} {
		if f.v < 1 {
			return nil, fmt.Errorf("machine gen: %s=%d (want >= 1)", f.name, f.v)
		}
	}
	const genMax = 64
	if g.FAdds > genMax || g.FMuls > genMax || g.MemPorts > genMax || g.Lanes > genMax {
		return nil, fmt.Errorf("machine gen: unit counts above %d are not supported", genMax)
	}
	if g.FAddLat > 256 || g.FMulLat > 256 || g.LoadLat > 256 {
		return nil, fmt.Errorf("machine gen: latencies above 256 cycles are not supported")
	}
	if g.FloatRegs > 4096 {
		return nil, fmt.Errorf("machine gen: fr%d above the 4096-register cap", g.FloatRegs)
	}

	m := Warp()
	m.Name = g.Name()
	m.Cells = 1
	m.RotatingRegs = g.RotatingRegs
	m.ResourceCount = make([]int, numResources)
	m.ResourceCount[ResFAdd] = g.FAdds * g.Lanes
	m.ResourceCount[ResFMul] = g.FMuls * g.Lanes
	m.ResourceCount[ResALU] = g.Lanes
	m.ResourceCount[ResMemRd] = g.MemPorts * g.Lanes
	m.ResourceCount[ResMemWr] = g.MemPorts * g.Lanes
	m.ResourceCount[ResBranch] = 1
	m.ResourceCount[ResAGU] = 2 * g.Lanes
	m.ResourceCount[ResQRecv] = 1
	m.ResourceCount[ResQSend] = 1
	m.FloatRegs = g.FloatRegs * g.Lanes
	m.IntRegs = 64 * g.Lanes

	// Warp() builds fresh descriptors, so the requested latencies are set
	// in place: every class issued on a unit takes that unit's latency.
	for c := range classes {
		switch classes[c].Unit {
		case ResFAdd:
			m.Ops[c].Latency = g.FAddLat
		case ResFMul:
			m.Ops[c].Latency = g.FMulLat
		case ResMemRd:
			m.Ops[c].Latency = g.LoadLat
		}
	}

	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// DefaultGrid is the machine grid the sweep harness explores when the
// caller does not supply one: datapath width {1,2,4} × memory ports
// {1,2} × {MVE, rotating} at the Warp latencies — 12 points, each axis
// isolating one term of Lam's cost model (resource bound vs. register
// pressure vs. the price of software-only renaming).
func DefaultGrid() []Gen {
	var grid []Gen
	for _, w := range []int{1, 2, 4} {
		for _, mem := range []int{1, 2} {
			for _, rot := range []bool{false, true} {
				grid = append(grid, Gen{
					FAdds: w, FMuls: w, MemPorts: mem, RotatingRegs: rot,
				})
			}
		}
	}
	return grid
}
