package cache

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(s string) Key { return KeyOf(s) }

// charged is a compute's result for bytes: the value, charged its length.
func charged(data []byte) (any, int64, error) { return data, int64(len(data)), nil }

// asBytes reads a bytes value back; nil for anything else.
func asBytes(v any) []byte {
	b, _ := v.([]byte)
	return b
}

func TestKeyOfLengthPrefixed(t *testing.T) {
	// Concatenation must not collide: ("ab","c") != ("a","bc").
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("length prefixing failed: concatenation collision")
	}
	if KeyOf("x") != KeyOf("x") {
		t.Fatal("KeyOf is not deterministic")
	}
	k := KeyOf("roundtrip")
	p, err := ParseKey(k.String())
	if err != nil || p != k {
		t.Fatalf("ParseKey(%q) = %v, %v", k.String(), p, err)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Fatal("ParseKey accepted garbage")
	}
}

// TestSingleflightExactlyOnce hammers one key from many goroutines; the
// compute must run exactly once and everyone must observe its bytes.
func TestSingleflightExactlyOnce(t *testing.T) {
	c, err := New(Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	var release sync.WaitGroup
	release.Add(1)
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	got := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _, err := c.GetOrCompute(context.Background(), key("hot"), func() (any, int64, error) {
				computes.Add(1)
				release.Wait() // hold every concurrent request in flight
				return charged([]byte("object-bytes"))
			})
			got[i], errs[i] = asBytes(data), err
		}(i)
	}
	// Let every goroutine either become the leader or queue behind it.
	for c.Stats().Misses < n {
		time.Sleep(time.Millisecond)
	}
	release.Done()
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], []byte("object-bytes")) {
			t.Fatalf("request %d got %q", i, got[i])
		}
	}
	st := c.Stats()
	if st.Computes != 1 {
		t.Fatalf("Stats.Computes = %d, want 1", st.Computes)
	}
	if st.Coalesced != n-1 {
		t.Fatalf("Stats.Coalesced = %d, want %d", st.Coalesced, n-1)
	}
}

// TestConcurrentMixedKeys hammers identical and distinct keys together
// under -race: every distinct key compiles exactly once even with 8
// requesters per key in flight.
func TestConcurrentMixedKeys(t *testing.T) {
	c, err := New(Config{MaxBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const keys, per = 32, 8
	counts := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for r := 0; r < per; r++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				want := []byte(fmt.Sprintf("artifact-%03d", k))
				data, _, err := c.GetOrCompute(context.Background(), key(fmt.Sprint(k)), func() (any, int64, error) {
					counts[k].Add(1)
					time.Sleep(time.Millisecond)
					return charged(want)
				})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(asBytes(data), want) {
					t.Errorf("key %d: wrong bytes %q", k, data)
				}
			}(k)
		}
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := counts[k].Load(); n != 1 {
			t.Errorf("key %d compiled %d times, want 1", k, n)
		}
	}
	if st := c.Stats(); st.Computes != keys {
		t.Errorf("Stats.Computes = %d, want %d", st.Computes, keys)
	}
}

// TestLRUEvictionOrder pins byte-bounded LRU behavior: the least recently
// used entry leaves first, and a Get refreshes recency.
func TestLRUEvictionOrder(t *testing.T) {
	var evicted []string
	c, err := New(Config{
		MaxBytes: 30, // three 10-byte entries
		OnEvict:  func(k Key, _ int) { evicted = append(evicted, k.String()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	put := func(name string) {
		_, _, err := c.GetOrCompute(context.Background(), key(name), func() (any, int64, error) {
			return charged(bytes.Repeat([]byte{'x'}, 10))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	put("c")
	if st := c.Stats(); st.Bytes != 30 || st.Entries != 3 {
		t.Fatalf("after 3 inserts: bytes=%d entries=%d", st.Bytes, st.Entries)
	}
	// Refresh "a", then insert "d": the victim must be "b", not "a".
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("a missing")
	}
	put("d")
	if len(evicted) != 1 || evicted[0] != key("b").String() {
		t.Fatalf("evicted %v, want exactly [b]", evicted)
	}
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b still resident after eviction")
	}
	for _, name := range []string{"a", "c", "d"} {
		if _, ok := c.Get(key(name)); !ok {
			t.Fatalf("%s evicted unexpectedly", name)
		}
	}
	// The residency loop above touched a, c, d in that order, so "a" is
	// now the least recently used and must be the next victim.
	put("e")
	if len(evicted) != 2 || evicted[1] != key("a").String() {
		t.Fatalf("second eviction %v, want a", evicted)
	}
	if st := c.Stats(); st.Bytes != 30 || st.Entries != 3 || st.Evictions != 2 {
		t.Fatalf("final stats %+v", st)
	}
}

// TestOversizedValueNotRetained: a value larger than the whole budget is
// served but never cached (it would evict everything for one entry).
func TestOversizedValueNotRetained(t *testing.T) {
	c, err := New(Config{MaxBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{'y'}, 64)
	data, _, err := c.GetOrCompute(context.Background(), key("big"), func() (any, int64, error) { return charged(big) })
	if err != nil || !bytes.Equal(asBytes(data), big) {
		t.Fatalf("oversized compute: %v", err)
	}
	if _, ok := c.Get(key("big")); ok {
		t.Fatal("oversized value was retained")
	}
	if st := c.Stats(); st.Bytes != 0 {
		t.Fatalf("bytes = %d after oversized value", st.Bytes)
	}
}

// TestBitIdenticalHitVsMiss: the bytes a hit returns are exactly the
// bytes the original miss computed.
func TestBitIdenticalHitVsMiss(t *testing.T) {
	c, err := New(Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 1, 2, 3, 255, 254, 77}
	cold, hit, err := c.GetOrCompute(context.Background(), key("obj"), func() (any, int64, error) {
		return charged(append([]byte(nil), want...))
	})
	if err != nil || hit {
		t.Fatalf("cold: hit=%v err=%v", hit, err)
	}
	warm, hit, err := c.GetOrCompute(context.Background(), key("obj"), func() (any, int64, error) {
		t.Fatal("warm path recompiled")
		return nil, 0, nil
	})
	if err != nil || !hit {
		t.Fatalf("warm: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(asBytes(cold), asBytes(warm)) {
		t.Fatalf("hit bytes differ from miss bytes: %x vs %x", cold, warm)
	}
}

// TestComputeErrorNotCached: a failed compute clears the flight slot so
// the next request retries.
func TestComputeErrorNotCached(t *testing.T) {
	c, err := New(Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	if _, _, err := c.GetOrCompute(context.Background(), key("bad"), func() (any, int64, error) { return nil, 0, boom }); err != boom {
		t.Fatalf("first compute error = %v", err)
	}
	data, hit, err := c.GetOrCompute(context.Background(), key("bad"), func() (any, int64, error) { return charged([]byte("ok")) })
	if err != nil || hit || string(asBytes(data)) != "ok" {
		t.Fatalf("retry after error: data=%q hit=%v err=%v", data, hit, err)
	}
}

// TestWaiterContextCancel: a waiter whose context ends stops waiting with
// its own deadline error; the leader is unaffected.
func TestWaiterContextCancel(t *testing.T) {
	c, err := New(Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var release sync.WaitGroup
	release.Add(1)
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(context.Background(), key("slow"), func() (any, int64, error) {
			release.Wait()
			return charged([]byte("v"))
		})
		leaderDone <- err
	}()
	for c.Stats().Misses < 1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.GetOrCompute(ctx, key("slow"), nil); err == nil {
		t.Fatal("canceled waiter returned no error")
	}
	release.Done()
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
}
