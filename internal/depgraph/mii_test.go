package depgraph

import (
	"errors"
	"strings"
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// zeroALUMachine is a Warp variant whose integer ALU has been removed.
// A loop that reserves the ALU then has no finite resource MII.
func zeroALUMachine() *machine.Machine {
	m := machine.Warp()
	m.Name = "warp-no-alu"
	counts := append([]int(nil), m.ResourceCount...)
	counts[machine.ResALU] = 0
	m.ResourceCount = counts
	return m
}

// TestResourceMIIZeroUnits checks the regression for the resource-MII
// division by zero: a machine with zero units of a reserved resource
// yields a structured *MissingResourceError naming the machine, the
// resource, and the first op that reserves it — from ResourceMIIExtra
// and from Analyze — instead of panicking.
func TestResourceMIIZeroUnits(t *testing.T) {
	m := zeroALUMachine()
	// Build the node against the full Warp so the reservation exists.
	n := MustNodeFromOp(machine.Warp(), &ir.Op{ID: 0, Class: machine.ClassIAdd})
	g := Build([]*Node{n}, 0)

	_, err := ResourceMIIExtra(g.Nodes, m, nil)
	if err == nil {
		t.Fatal("ResourceMIIExtra accepted a machine with 0 ALU units")
	}
	var mre *MissingResourceError
	if !errors.As(err, &mre) {
		t.Fatalf("error %T (%v) is not a *MissingResourceError", err, err)
	}
	if mre.Resource != machine.ResALU {
		t.Errorf("missing resource = %v, want ALU", mre.Resource)
	}
	if mre.Machine != "warp-no-alu" {
		t.Errorf("machine = %q, want warp-no-alu", mre.Machine)
	}
	if !strings.Contains(mre.Node, "n0") {
		t.Errorf("error does not name the reserving op: %q", mre.Node)
	}
	for _, want := range []string{"warp-no-alu", "ALU"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Error() missing %q: %s", want, err)
		}
	}

	// Analyze refuses the same way rather than propagating a bogus MII.
	if _, err := Analyze(g, m); !errors.As(err, &mre) {
		t.Fatalf("Analyze error %v is not a *MissingResourceError", err)
	}
}

// TestResourceMIIExtraZeroUnits checks the implicit-reservation arm: an
// extra use (the pipeliner's loop-back branch) of a missing resource is
// reported without a node attribution.
func TestResourceMIIExtraZeroUnits(t *testing.T) {
	m := machine.Warp()
	m.Name = "warp-no-branch"
	counts := append([]int(nil), m.ResourceCount...)
	counts[machine.ResBranch] = 0
	m.ResourceCount = counts

	n := MustNodeFromOp(m, &ir.Op{ID: 0, Class: machine.ClassIAdd})
	g := Build([]*Node{n}, 0)
	_, err := ResourceMIIExtra(g.Nodes, m, []machine.ResUse{{Resource: machine.ResBranch}})
	var mre *MissingResourceError
	if !errors.As(err, &mre) {
		t.Fatalf("error %v is not a *MissingResourceError", err)
	}
	if mre.Node != "" {
		t.Errorf("implicit reservation attributed to node %q, want unattributed", mre.Node)
	}
	if !strings.Contains(err.Error(), "implicit reservation") {
		t.Errorf("Error() does not mention the implicit reservation: %s", err)
	}
}

// TestResourceMIIOutOfRangeResource checks the sibling guard: a
// reservation indexing past the machine's resource table is an error,
// not an out-of-bounds panic.
func TestResourceMIIOutOfRangeResource(t *testing.T) {
	m := machine.Warp()
	n := MustNodeFromOp(m, &ir.Op{ID: 0, Class: machine.ClassIAdd})
	n.Reservation = []machine.ResUse{{Resource: machine.Resource(len(m.ResourceCount) + 3)}}
	g := Build([]*Node{n}, 0)
	var mre *MissingResourceError
	if _, err := ResourceMIIExtra(g.Nodes, m, nil); !errors.As(err, &mre) {
		t.Fatalf("error %v is not a *MissingResourceError", err)
	}
}
