package verify

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"softpipe/internal/machine"
)

// oracleNode and oracleInterner are the hash-consing the store replaced:
// a comparable struct naming its array by string, found through a Go
// map.  They live here only, as the reference the store is held to.
type oracleNode struct {
	kind       termKind
	class      machine.Class
	imm        uint64
	aux        string
	a0, a1, a2 termID
	nargs      uint8
}

type oracleInterner struct {
	nodes []oracleNode
	index map[oracleNode]termID
}

func (o *oracleInterner) mk(n oracleNode) termID {
	if id, ok := o.index[n]; ok {
		return id
	}
	id := termID(len(o.nodes))
	o.nodes = append(o.nodes, n)
	o.index[n] = id
	return id
}

func mustInterner(t *testing.T, capHint int) *interner {
	t.Helper()
	in, err := newInterner(capHint)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestTermNodeIsThreePointerFreeWords(t *testing.T) {
	if got := unsafe.Sizeof(termNode{}); got != 24 {
		t.Fatalf("termNode is %d bytes, want 24", got)
	}
}

// TestPendingWriteBackIsThreeWords: the shadow queues one pendWB per
// result in flight, so its layout is held like the term node's.
func TestPendingWriteBackIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(pendWB{}); got != 24 {
		t.Fatalf("pendWB is %d bytes, want 24", got)
	}
}

// TestStoreAgainstMapOracle drives the store and the map-based oracle
// with one seeded stream of all four kinds, hits and misses mixed, and
// demands the same termID at every step.  Capacity 0 makes the store
// pass through every growth step on the way.
func TestStoreAgainstMapOracle(t *testing.T) {
	classes := []machine.Class{machine.ClassFAdd, machine.ClassFMul, machine.ClassIAdd, machine.ClassICmp, machine.ClassFConst, machine.ClassIConst, machine.ClassFNeg}
	names := []string{"x", "y", "z", "acc", "x2"}
	for _, tc := range []struct {
		seed    int64
		capHint int
		lookups int
	}{{1, 0, 120_000}, {2, 0, 120_000}, {3, 5000, 120_000}} {
		rng := rand.New(rand.NewSource(tc.seed))
		in := mustInterner(t, tc.capHint)
		or := &oracleInterner{index: map[oracleNode]termID{}}
		// arg picks an earlier term, recent ones more often, so both
		// repeats of a whole node and fresh combinations occur.
		arg := func() termID {
			n := len(or.nodes)
			if n == 0 {
				return noTerm
			}
			if rng.Intn(2) == 0 {
				return termID(n - 1 - rng.Intn(min(n, 8)))
			}
			return termID(rng.Intn(n))
		}
		hits := 0
		for i := 0; i < tc.lookups; i++ {
			var got, want termID
			before := len(in.nodes)
			switch k := rng.Intn(10); {
			case k < 6:
				c := classes[rng.Intn(len(classes))]
				imm := uint64(rng.Intn(4))
				a, b := arg(), arg()
				switch rng.Intn(3) {
				case 0:
					got = in.op0(c, imm)
					want = or.mk(oracleNode{kind: tkOp, class: c, imm: imm, a0: noTerm, a1: noTerm, a2: noTerm})
				case 1:
					got = in.op1(c, imm, a)
					want = or.mk(oracleNode{kind: tkOp, class: c, imm: imm, a0: a, a1: noTerm, a2: noTerm, nargs: 1})
				default:
					got = in.op2(c, imm, a, b)
					want = or.mk(oracleNode{kind: tkOp, class: c, imm: imm, a0: a, a1: b, a2: noTerm, nargs: 2})
				}
			case k < 7:
				f := rng.Intn(2) == 0
				got = in.zero(f)
				imm := uint64(0)
				if f {
					imm = 1
				}
				want = or.mk(oracleNode{kind: tkZero, imm: imm, a0: noTerm, a1: noTerm, a2: noTerm})
			case k < 9:
				name, idx := names[rng.Intn(len(names))], int64(rng.Intn(3000))
				num, err := in.arrayNum(name)
				if err != nil {
					t.Fatal(err)
				}
				got = in.memInit(num, idx)
				want = or.mk(oracleNode{kind: tkMemInit, aux: name, imm: uint64(idx), a0: noTerm, a1: noTerm, a2: noTerm})
			default:
				pos := rng.Intn(500)
				got = in.input(pos)
				want = or.mk(oracleNode{kind: tkInput, imm: uint64(pos), a0: noTerm, a1: noTerm, a2: noTerm})
			}
			if got != want {
				t.Fatalf("seed %d lookup %d: store returns t%d, oracle t%d", tc.seed, i, got, want)
			}
			if len(in.nodes) == before {
				hits++
			}
		}
		if len(in.nodes) != len(or.nodes) {
			t.Fatalf("seed %d: store holds %d nodes, oracle %d", tc.seed, len(in.nodes), len(or.nodes))
		}
		if in.lookups != int64(tc.lookups) {
			t.Fatalf("seed %d: store counted %d lookups of %d", tc.seed, in.lookups, tc.lookups)
		}
		if hits < tc.lookups/10 || hits > tc.lookups*9/10 {
			t.Fatalf("seed %d: %d hits in %d lookups; the stream should mix hits and misses", tc.seed, hits, tc.lookups)
		}
		// Rendering reads the array names back through the side slice.
		num, _ := in.arrayNum("acc")
		if got := in.render(in.memInit(num, 7), 0); got != "init(acc[7])" {
			t.Errorf("render = %q, want init(acc[7])", got)
		}
	}
}

// TestStoreOneFieldApart: two nodes that differ in exactly one field are
// two terms, each field in turn — conflating any pair would let a wrong
// provenance compare equal.
func TestStoreOneFieldApart(t *testing.T) {
	base := termNode{kind: tkOp, sub: 3, imm: 5, a0: 1, a1: 2, a2: noTerm, nargs: 2}
	variants := map[string]func(n *termNode){
		"imm":                    func(n *termNode) { n.imm = 6 },
		"imm high word":          func(n *termNode) { n.imm = 5 | 1<<40 },
		"a0":                     func(n *termNode) { n.a0 = 2 },
		"a1":                     func(n *termNode) { n.a1 = 1 },
		"a2 noTerm vs 0":         func(n *termNode) { n.a2 = 0 },
		"nargs":                  func(n *termNode) { n.nargs = 1 },
		"kind":                   func(n *termNode) { n.kind = tkInput },
		"class":                  func(n *termNode) { n.sub = 4 },
		"array number vs class":  func(n *termNode) { n.kind = tkMemInit },
		"a0 and a1 swapped":      func(n *termNode) { n.a0, n.a1 = n.a1, n.a0 },
		"sub moved into nargs":   func(n *termNode) { n.sub, n.nargs = 2, 3 },
		"a1 moved into imm high": func(n *termNode) { n.imm, n.a1 = 5|2<<32, 0 },
	}
	for _, capHint := range []int{0, 64} {
		in := mustInterner(t, capHint)
		// Earlier terms for a0..a2 to name.
		for i := 0; i < 3; i++ {
			in.input(i)
		}
		want := in.mk(base)
		seen := map[termID]string{want: "base"}
		for name, mutate := range variants {
			n := base
			mutate(&n)
			id := in.mk(n)
			if other, dup := seen[id]; dup {
				t.Errorf("cap %d: %s gets t%d, the ID of %s", capHint, name, id, other)
			}
			seen[id] = name
			if again := in.mk(n); again != id {
				t.Errorf("cap %d: %s interned twice gets t%d then t%d", capHint, name, id, again)
			}
		}
		if got := in.mk(base); got != want {
			t.Errorf("cap %d: base moved from t%d to t%d", capHint, want, got)
		}
	}
	// Through the constructors: array number n and class n are apart.
	in := mustInterner(t, 0)
	num, err := in.arrayNum("a")
	if err != nil {
		t.Fatal(err)
	}
	if in.memInit(num, 0) == in.op0(machine.Class(num), 0) {
		t.Error("init(a[0]) and a class-0 constant are one term")
	}
}

// TestStoreGrowthAndProbeChains starts at the smallest table, so it
// doubles a dozen times on the way to 5,000 operation nodes while leaves
// are numbered beside them, and then packs one table with nodes that all
// start probing at its last slot, so chains are long and wrap.
func TestStoreGrowthAndProbeChains(t *testing.T) {
	in := mustInterner(t, 0)
	if len(in.table) != 2 {
		t.Fatalf("smallest store has %d slots, want 2", len(in.table))
	}
	occupied := func() int {
		k := 0
		for _, e := range in.table {
			if e != 0 {
				k++
			}
		}
		return k
	}
	const n = 5000
	var ops, leaves []termID
	grew := 0
	for i := 0; i < n; i++ {
		before := len(in.table)
		ops = append(ops, in.op0(machine.ClassIConst, uint64(i)))
		if len(in.table) != before {
			grew++
			if len(in.table) != 2*before {
				t.Fatalf("growth from %d to %d slots, want doubling", before, len(in.table))
			}
			// The table holds the operation nodes and nothing else, and
			// every one interned before the growth is still found.
			if k := occupied(); k != len(ops) {
				t.Fatalf("after growth to %d slots: %d entries for %d operations", len(in.table), k, len(ops))
			}
			for j := range ops {
				if id := in.op0(machine.ClassIConst, uint64(j)); id != ops[j] {
					t.Fatalf("after growth to %d slots: operation %d found as t%d, interned as t%d", len(in.table), j, id, ops[j])
				}
			}
		}
		if 2*in.ops > len(in.table) {
			t.Fatalf("%d operations in %d slots: more than half full", in.ops, len(in.table))
		}
		if i%3 == 0 {
			leaves = append(leaves, in.input(i/3))
		}
	}
	if grew < 12 {
		t.Fatalf("table grew %d times on the way to %d operations, want every doubling", grew, n)
	}
	if len(in.nodes) != n+len(leaves) || occupied() != n {
		t.Fatalf("store holds %d nodes, %d in the table; want %d and %d", len(in.nodes), occupied(), n+len(leaves), n)
	}
	for p, id := range leaves {
		if got := in.input(p); got != id {
			t.Fatalf("input %d found as t%d, numbered t%d", p, got, id)
		}
	}

	in = mustInterner(t, 32)
	slots := len(in.table)
	last := slots - 1
	var chain []termNode
	for imm := uint64(0); len(chain) < 24; imm++ {
		nd := termNode{kind: tkOp, sub: uint16(machine.ClassIConst), imm: imm, a0: noTerm, a1: noTerm, a2: noTerm}
		if int(nd.hash()>>in.shift) == last {
			chain = append(chain, nd)
		}
	}
	for i, nd := range chain {
		if id := in.mk(nd); id != termID(i) {
			t.Fatalf("chained node %d interned as t%d", i, id)
		}
	}
	if len(in.table) != slots {
		t.Fatalf("table grew from %d to %d slots while the chain was built", slots, len(in.table))
	}
	// Slots hold a termID plus one: t0 at the last slot, t1 wrapped to
	// slot 0, the last node len(chain)-2 slots on.
	if in.table[last] != 1 || in.table[0] != 2 || in.table[len(chain)-2] != termID(len(chain)) {
		t.Fatalf("chain does not wrap from the last slot: table = %v", in.table)
	}
	for i, nd := range chain {
		if id := in.mk(nd); id != termID(i) {
			t.Fatalf("chained node %d found as t%d", i, id)
		}
	}
	if len(in.nodes) != len(chain) {
		t.Fatalf("store holds %d nodes, want %d", len(in.nodes), len(chain))
	}
}

// TestReusedStoreStartsEmpty: a store reset after a run — as the kept
// store is — hands out exactly the IDs a new store does, so no term,
// leaf slot or array number of the earlier run stands in for a fresh
// one.
func TestReusedStoreStartsEmpty(t *testing.T) {
	names := []string{"x", "y", "acc"}
	stream := func(in *interner, seed int64) []termID {
		rng := rand.New(rand.NewSource(seed))
		var ids []termID
		for len(ids) < 30_000 {
			switch rng.Intn(4) {
			case 0:
				num, err := in.arrayNum(names[rng.Intn(len(names))])
				if err != nil {
					t.Fatal(err)
				}
				for i := rng.Intn(800); i >= 0; i-- {
					ids = append(ids, in.memInit(num, int64(i)))
				}
			case 1:
				ids = append(ids, in.input(rng.Intn(200)))
			case 2:
				ids = append(ids, in.zero(rng.Intn(2) == 0))
			default:
				arg := func() termID { return termID(rng.Intn(len(ids)+1)) - 1 }
				ids = append(ids, in.op2(machine.ClassFAdd, uint64(rng.Intn(3)), arg(), arg()))
			}
		}
		return ids
	}
	for _, capHint := range []int{0, 64, 100_000} {
		used := mustInterner(t, 5000)
		stream(used, 1)
		used.reset(capHint)
		fresh := mustInterner(t, capHint)
		got, want := stream(used, 2), stream(fresh, 2)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cap %d, request %d: reused store gives t%d, new store t%d", capHint, i, got[i], want[i])
			}
		}
		if len(used.nodes) != len(fresh.nodes) || used.lookups != fresh.lookups || !slices.Equal(used.arrays, fresh.arrays) {
			t.Fatalf("cap %d: reused store holds %d nodes after %d lookups, arrays %v; new store %d, %d, %v", capHint,
				len(used.nodes), used.lookups, used.arrays, len(fresh.nodes), fresh.lookups, fresh.arrays)
		}
	}
}

// TestPackedFieldOverflowIsAnError: a class or array count the 16-bit
// field cannot number is refused, never truncated.
func TestPackedFieldOverflowIsAnError(t *testing.T) {
	if err := fitsSub(subLimit, "things"); err != nil {
		t.Errorf("%d values refused: %v", subLimit, err)
	}
	if err := fitsSub(subLimit+1, "things"); err == nil {
		t.Errorf("%d values accepted by a field of %d", subLimit+1, subLimit)
	}
	if machine.NumClasses() > subLimit {
		t.Fatalf("machine has %d classes", machine.NumClasses())
	}
	in := mustInterner(t, 0)
	for i := 0; i < subLimit; i++ {
		in.arrays = append(in.arrays, fmt.Sprintf("a%d", i))
	}
	if num, err := in.arrayNum("a65535"); err != nil || num != 65535 {
		t.Errorf("last array: number %d, err %v", num, err)
	}
	_, err := in.arrayNum("one-too-many")
	if err == nil || !strings.Contains(err.Error(), "65537 arrays") {
		t.Errorf("array %d: err = %v, want a refusal naming the count", subLimit+1, err)
	}
	if len(in.arrays) != subLimit {
		t.Errorf("refused array was recorded: %d names", len(in.arrays))
	}
}
