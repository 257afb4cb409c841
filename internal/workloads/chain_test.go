package workloads

import (
	"fmt"
	"testing"

	"softpipe"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// chainDifferential partitions the seed's chain program across two
// cells and proves the realization equivalent to the single-cell
// reference: per-cell object code by provenance, owner-cell dataflow,
// host output, and a simulated run of the array (see
// softpipe.ArrayObject.Verify).  A seed the planner cannot cut (too
// few clusters for the array) is skipped, not failed: the generator
// aims at partitionable shapes but the planner's clustering rules are
// the arbiter.
func chainDifferential(t testing.TB, seed int64) {
	p := RandomChainProgram(seed)
	if _, err := ir.Run(p); err != nil {
		t.Fatalf("seed %d: interp: %v", seed, err)
	}
	ao, err := softpipe.CompilePartitioned(p, softpipe.Machines(machine.Warp(), 2), softpipe.Options{})
	if err != nil {
		t.Skipf("seed %d: not partitionable: %v", seed, err)
	}
	if err := ao.Verify(nil); err != nil {
		t.Fatalf("seed %d: partition diverges from reference: %v", seed, err)
	}
}

// TestChainDifferential pins the checked-in corpus seeds plus a tail of
// fresh ones; every partitionable seed must verify.
func TestChainDifferential(t *testing.T) {
	seeds := int64(32)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			chainDifferential(t, seed)
		})
	}
}

// FuzzPartitionDifferential is the native fuzzing entry over the chain
// generator: `go test -fuzz=FuzzPartitionDifferential
// ./internal/workloads/` explores the seed space; plain `go test`
// replays the checked-in corpus (testdata/fuzz, ChainCorpusSeeds).
func FuzzPartitionDifferential(f *testing.F) {
	for _, seed := range ChainCorpusSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		chainDifferential(t, seed)
	})
}

// TestChainDeterministic: the chain generator must be a pure function
// of the seed, like RandomProgram.
func TestChainDeterministic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		a, err := ir.Run(RandomChainProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := ir.Run(RandomChainProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d := a.Diff(b); d != "" {
			t.Fatalf("seed %d: two generations differ: %s", seed, d)
		}
	}
}

// TestChainCorpusPartitions: every checked-in corpus seed must actually
// exercise the partitioner (cut into 2+ cells), or the corpus is dead
// weight.
func TestChainCorpusPartitions(t *testing.T) {
	for _, seed := range ChainCorpusSeeds() {
		p := RandomChainProgram(seed)
		ao, err := softpipe.CompilePartitioned(p, softpipe.Machines(machine.Warp(), 2), softpipe.Options{})
		if err != nil {
			t.Errorf("corpus seed %d does not partition: %v", seed, err)
			continue
		}
		if ao.Width() != 2 {
			t.Errorf("corpus seed %d: width %d", seed, ao.Width())
		}
	}
}
