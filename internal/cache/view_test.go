package cache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// derived is a stand-in view: a pointer, so identity is comparable.
type derived struct{ of string }

// viewOf asks c for key's view, counting builds in *builds and charging
// size bytes for each.
func viewOf(t *testing.T, c *Cache, name string, size int64, builds *int) *derived {
	t.Helper()
	data, ok := c.Get(key(name))
	if !ok {
		t.Fatalf("%s not resident", name)
	}
	v, err := c.View(key(name), data, func(data []byte) (any, int64, error) {
		*builds++
		return &derived{of: string(data)}, size, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return v.(*derived)
}

// TestViewChargedAndEvictedWithEntry pins the accounting invariant: what
// MaxBytes bounds is bytes plus view sizes, an evicted entry frees both
// and takes its view with it, and a later residency of the same key
// builds a fresh view.
func TestViewChargedAndEvictedWithEntry(t *testing.T) {
	type eviction struct {
		key  string
		cost int
	}
	var evicted []eviction
	c, err := New(Config{
		MaxBytes: 100,
		OnEvict:  func(k Key, n int) { evicted = append(evicted, eviction{k.String(), n}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key("a"), bytes.Repeat([]byte{'a'}, 10))
	c.Put(key("b"), bytes.Repeat([]byte{'b'}, 10))

	builds := 0
	va := viewOf(t, c, "a", 30, &builds)
	if va.of != "aaaaaaaaaa" {
		t.Fatalf("view built from %q, want the entry's bytes", va.of)
	}
	if again := viewOf(t, c, "a", 30, &builds); again != va || builds != 1 {
		t.Fatalf("second View: same=%v builds=%d, want the first view and one build", again == va, builds)
	}
	vb := viewOf(t, c, "b", 20, &builds)
	if st := c.Stats(); st.Bytes != 10+30+10+20 || st.Entries != 2 {
		t.Fatalf("bytes=%d entries=%d, want 70 (two entries with their views) and 2", st.Bytes, st.Entries)
	}

	// A lazily built part of a's view: the entry grows, nothing leaves yet.
	c.Grow(key("a"), va, 25)
	if st := c.Stats(); st.Bytes != 95 || st.Evictions != 0 {
		t.Fatalf("after Grow: %+v, want 95 bytes and no eviction", st)
	}
	// Charging a view the entry does not hold is a no-op.
	c.Grow(key("a"), vb, 50)
	c.Grow(key("gone"), va, 50)
	if st := c.Stats(); st.Bytes != 95 {
		t.Fatalf("foreign Grow moved bytes to %d", st.Bytes)
	}

	// b was used last; a 10-byte newcomer pushes a out, view and all.
	viewOf(t, c, "b", 20, &builds)
	c.Put(key("c"), bytes.Repeat([]byte{'c'}, 10))
	if len(evicted) != 1 || evicted[0] != (eviction{key("a").String(), 10 + 30 + 25}) {
		t.Fatalf("evicted %+v, want a at its full cost 65", evicted)
	}
	if st := c.Stats(); st.Bytes != 10+20+10 || st.Entries != 2 {
		t.Fatalf("after eviction: %+v, want 40 bytes in 2 entries", st)
	}
	// The evicted entry's view cannot charge a later residency of its key.
	c.Put(key("a"), bytes.Repeat([]byte{'A'}, 10))
	c.Grow(key("a"), va, 40)
	if st := c.Stats(); st.Bytes != 50 {
		t.Fatalf("stale view charged the re-filled entry: bytes=%d, want 50", st.Bytes)
	}
	// ... which builds a fresh one from its own bytes.
	if fresh := viewOf(t, c, "a", 30, &builds); fresh == va || fresh.of != "AAAAAAAAAA" || builds != 3 {
		t.Fatalf("re-filled key: fresh=%v of=%q builds=%d", fresh != va, fresh.of, builds)
	}

	// A growing view evicts others to make room, like a Put.
	evicted = nil
	c.Grow(key("a"), mustView(t, c, "a"), 40) // 80 + 40 > 100: b (LRU) goes
	if len(evicted) != 1 || evicted[0] != (eviction{key("b").String(), 30}) {
		t.Fatalf("Grow evicted %+v, want b at 30", evicted)
	}
	// Ten plain 10-byte entries push out everything that carried a view:
	// no view charge outlives its entry.
	for i := 0; i < 10; i++ {
		c.Put(key(fmt.Sprint("plain", i)), bytes.Repeat([]byte{'p'}, 10))
	}
	if st := c.Stats(); st.Bytes != 100 || st.Entries != 10 {
		t.Fatalf("after evicting every view: %+v, want 100 bytes in 10 entries", st)
	}
}

func mustView(t *testing.T, c *Cache, name string) *derived {
	t.Helper()
	builds := 0
	v := viewOf(t, c, name, 0, &builds)
	if builds != 0 {
		t.Fatalf("%s had no view", name)
	}
	return v
}

// TestOverBudgetViewServedNotRetained: an entry whose bytes and view
// together exceed the whole budget keeps serving its bytes; its view is
// handed to the caller and not kept, whether the excess comes with the
// build or with a later Grow.
func TestOverBudgetViewServedNotRetained(t *testing.T) {
	c, err := New(Config{MaxBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key("small"), bytes.Repeat([]byte{'s'}, 10))
	c.Put(key("big"), bytes.Repeat([]byte{'b'}, 60))
	builds := 0
	v1 := viewOf(t, c, "big", 50, &builds)
	v2 := viewOf(t, c, "big", 50, &builds)
	if v1 == nil || v2 == nil || v1 == v2 || builds != 2 {
		t.Fatalf("over-budget view: builds=%d same=%v, want a served, unretained view per call", builds, v1 == v2)
	}
	if st := c.Stats(); st.Bytes != 70 || st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("over-budget view moved the books: %+v", st)
	}
	// A view that fits, then outgrows the budget, is dropped whole.
	v3 := viewOf(t, c, "big", 20, &builds)
	if st := c.Stats(); st.Bytes != 90 {
		t.Fatalf("bytes=%d, want 90", st.Bytes)
	}
	c.Grow(key("big"), v3, 30)
	if st := c.Stats(); st.Bytes != 70 || st.Entries != 2 {
		t.Fatalf("after outgrowing: %+v, want the bytes alone (70)", st)
	}
	if data, ok := c.Get(key("big")); !ok || len(data) != 60 {
		t.Fatal("entry stopped serving its bytes")
	}
	if v4 := viewOf(t, c, "big", 20, &builds); v4 == v3 {
		t.Fatal("dropped view still attached")
	}

	// A key that is not resident builds from the caller's bytes, unkept.
	got, err := c.View(key("absent"), []byte("mine"), func(data []byte) (any, int64, error) {
		return &derived{of: string(data)}, 1 << 40, nil
	})
	if err != nil || got.(*derived).of != "mine" {
		t.Fatalf("non-resident View: %v %v", got, err)
	}
}

// TestViewBuildErrorNotCached: a failed build reaches the caller and the
// next caller builds again.
func TestViewBuildErrorNotCached(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key("k"), []byte("bytes"))
	boom := errors.New("boom")
	if _, err := c.View(key("k"), nil, func([]byte) (any, int64, error) { return nil, 0, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	builds := 0
	if v := viewOf(t, c, "k", 5, &builds); v.of != "bytes" || builds != 1 {
		t.Fatalf("retry after error: of=%q builds=%d", v.of, builds)
	}
	if st := c.Stats(); st.Bytes != 10 {
		t.Fatalf("bytes=%d, want 10", st.Bytes)
	}
}

// TestConcurrentFirstHitsBuildOneView: many goroutines asking for the view
// of one fresh entry get the same value from a single build (run under
// -race in CI).
func TestConcurrentFirstHitsBuildOneView(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("payload")
	c.Put(key("k"), data)
	var builds atomic.Int64
	const n = 32
	got := make([]any, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := c.View(key("k"), data, func(data []byte) (any, int64, error) {
				builds.Add(1)
				return &derived{of: string(data)}, 100, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds for one residency, want 1", builds.Load())
	}
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different view", i)
		}
	}
	if st := c.Stats(); st.Bytes != int64(len(data))+100 {
		t.Fatalf("bytes=%d, want the entry and one view", st.Bytes)
	}
}
