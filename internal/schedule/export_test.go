package schedule

import (
	"context"

	"softpipe/internal/depgraph"
	"softpipe/internal/machine"
)

// RandomLoop lends randomLoop to the external tests, which also reduce
// the compile-exact pool's conditionals with internal/hier.
var RandomLoop = randomLoop

// RigidWitness and RefuteRigid lend the search-free refutation and its
// witness to the external witness checker.
type RigidWitness = rigidWitness

func RefuteRigid(a *depgraph.Analysis, m *machine.Machine, s int) *RigidWitness {
	w, _ := NewExactSearcher(a, m).refuteRigid(context.Background(), s) // errors only when its context ends
	return w
}
