package cache

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// object stands in for a service entry: a pointer, so identity is
// comparable, charged what its compute says rather than any length.
type object struct{ name string }

// fill makes name resident as a fresh object charged charge.
func fill(t *testing.T, c *Cache, name string, charge int64) *object {
	t.Helper()
	v, _, err := c.GetOrCompute(context.Background(), key(name), func() (any, int64, error) {
		return &object{name}, charge, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return v.(*object)
}

// TestEvictionFreesTheCharge pins the accounting invariant: an entry's
// charge is what its compute said, fixed for its residency; Bytes is the
// sum of the resident charges and never exceeds MaxBytes; an evicted entry
// frees exactly its charge; and a later residency of the same key is a
// fresh value at its own charge.
func TestEvictionFreesTheCharge(t *testing.T) {
	type eviction struct {
		key    string
		charge int
	}
	var evicted []eviction
	c, err := New(Config{
		MaxBytes: 100,
		OnEvict:  func(k Key, n int) { evicted = append(evicted, eviction{k.String(), n}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	a := fill(t, c, "a", 65)
	fill(t, c, "b", 30)
	if st := c.Stats(); st.Bytes != 95 || st.Entries != 2 {
		t.Fatalf("bytes=%d entries=%d, want 95 and 2", st.Bytes, st.Entries)
	}
	// A hit serves the resident value and charges nothing more.
	if v, ok := c.Get(key("a")); !ok || v != a {
		t.Fatalf("Get(a) = %v %v, want the filled object", v, ok)
	}
	if again := fill(t, c, "a", 1000); again != a || c.Stats().Bytes != 95 {
		t.Fatalf("hit on a: same=%v bytes=%d, want the first object and 95", again == a, c.Stats().Bytes)
	}
	// b was used least recently; a 10-byte newcomer pushes it out.
	fill(t, c, "c", 10)
	if len(evicted) != 1 || evicted[0] != (eviction{key("b").String(), 30}) {
		t.Fatalf("evicted %+v, want b at its charge 30", evicted)
	}
	if st := c.Stats(); st.Bytes != 75 || st.Entries != 2 {
		t.Fatalf("after eviction: %+v, want 75 bytes in 2 entries", st)
	}
	// a goes next, at the charge it was filled with; refilled, it is new.
	fill(t, c, "d", 30)
	if len(evicted) != 2 || evicted[1] != (eviction{key("a").String(), 65}) {
		t.Fatalf("evicted %+v, want a at 65", evicted)
	}
	if fresh := fill(t, c, "a", 20); fresh == a {
		t.Fatal("a re-filled key served its evicted value")
	}
	if st := c.Stats(); st.Bytes != 60 || st.Entries != 3 {
		t.Fatalf("after refill: %+v, want 60 bytes in 3 entries", st)
	}

	// Random charges: the books always match the resident entries.
	rng := rand.New(rand.NewSource(1))
	charges := map[Key]int64{}
	c, _ = New(Config{MaxBytes: 1000, OnEvict: func(k Key, n int) {
		if int64(n) != charges[k] {
			t.Fatalf("evicted %s freeing %d, it was charged %d", k, n, charges[k])
		}
		delete(charges, k)
	}})
	for i := 0; i < 2000; i++ {
		name, charge := fmt.Sprint(rng.Intn(200)), rng.Int63n(400)
		if _, ok := charges[key(name)]; !ok && charge <= 1000 {
			charges[key(name)] = charge
		}
		fill(t, c, name, charge)
		var sum int64
		for _, n := range charges {
			sum += n
		}
		if st := c.Stats(); st.Bytes != sum || st.Bytes > 1000 || st.Entries != int64(len(charges)) {
			t.Fatalf("step %d: %+v, resident charges sum to %d over %d entries", i, st, sum, len(charges))
		}
	}
}

// TestOverBudgetEntryServedNotRetained: a value charged more than the
// whole budget reaches its caller and every coalesced waiter, but is not
// kept, and evicts nothing on its way through.
func TestOverBudgetEntryServedNotRetained(t *testing.T) {
	c, err := New(Config{MaxBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	small := fill(t, c, "small", 10)
	v1 := fill(t, c, "big", 101)
	v2 := fill(t, c, "big", 101)
	if v1 == nil || v2 == nil || v1 == v2 {
		t.Fatalf("over-budget entry: v1=%v v2=%v, want a served, unretained value per call", v1, v2)
	}
	if _, ok := c.Get(key("big")); ok {
		t.Fatal("over-budget entry retained")
	}
	if st := c.Stats(); st.Bytes != 10 || st.Entries != 1 || st.Evictions != 0 || st.Computes != 3 {
		t.Fatalf("over-budget entry moved the books: %+v", st)
	}
	if v, ok := c.Get(key("small")); !ok || v != small {
		t.Fatal("over-budget entry disturbed a resident one")
	}
	// At exactly the budget an entry is kept, alone.
	fill(t, c, "whole", 100)
	if st := c.Stats(); st.Bytes != 100 || st.Entries != 1 {
		t.Fatalf("entry at the whole budget: %+v", st)
	}
}
