package cache

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestGetOrFillIgnoresComputed: GetOrFill is GetOrCompute whatever its
// fill reports — a fill that says it did not compute still counts as the
// one compute for its key, reports hit=false to its caller, and serves
// the next caller from memory.
func TestGetOrFillIgnoresComputed(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := key("fill")
	data, hit, err := c.GetOrFill(context.Background(), k, func() ([]byte, bool, error) {
		return []byte("bytes"), false, nil
	})
	if err != nil || string(asBytes(data)) != "bytes" || hit {
		t.Fatalf("fill: %q hit=%v %v", data, hit, err)
	}
	if st := c.Stats(); st.Computes != 1 || st.Misses != 1 {
		t.Fatalf("stats after fill: %+v", st)
	}
	data, hit, err = c.GetOrFill(context.Background(), k, func() ([]byte, bool, error) {
		t.Error("a resident key was filled again")
		return nil, true, nil
	})
	if err != nil || string(asBytes(data)) != "bytes" || !hit {
		t.Fatalf("second fill: %q hit=%v %v", data, hit, err)
	}
}

// TestFillPanicReleasesWaiters: a panicking compute must release
// coalesced waiters with an error (not leave them blocked forever on a
// flight entry that never finishes), keep the key retryable, and still
// propagate the panic to the leader.
func TestFillPanicReleasesWaiters(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := key("poisoned")
	started := make(chan struct{})
	release := make(chan struct{})

	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		c.GetOrCompute(context.Background(), k, func() (any, int64, error) {
			close(started)
			<-release
			panic("compiler bug")
		})
	}()
	<-started

	var wg sync.WaitGroup
	waiterErrs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, waiterErrs[i] = c.GetOrCompute(context.Background(), k, func() (any, int64, error) {
				t.Error("waiter ran its own compute while the leader was in flight")
				return nil, 0, nil
			})
		}(i)
	}
	// Let the waiters coalesce onto the flight entry, then blow up.
	for {
		c.mu.Lock()
		coalesced := c.stats.Coalesced
		c.mu.Unlock()
		if coalesced == 4 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if v := <-leaderPanicked; v == nil {
		t.Fatal("leader's panic was swallowed")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiters still blocked after the leader panicked")
	}
	for i, err := range waiterErrs {
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter %d error = %v", i, err)
		}
	}
	// The key is not poisoned: a later request computes normally.
	data, _, err := c.GetOrCompute(context.Background(), k, func() (any, int64, error) {
		return charged([]byte("recovered"))
	})
	if err != nil || string(asBytes(data)) != "recovered" {
		t.Fatalf("post-panic retry: %q %v", data, err)
	}
}

// TestPutIsMemoryOnly pins Put's contract: the bytes are resident at
// once, Get and GetOrCompute hit them, and Put itself counts no miss and
// no compute.
func TestPutIsMemoryOnly(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := key("put")
	c.Put(k, []byte("stand-in"))
	if data, ok := c.Get(k); !ok || string(asBytes(data)) != "stand-in" {
		t.Fatalf("Put not visible to Get: %q %v", data, ok)
	}
	data, hit, err := c.GetOrCompute(context.Background(), k, func() (any, int64, error) {
		t.Error("a Put key was computed")
		return nil, 0, nil
	})
	if err != nil || !hit || string(asBytes(data)) != "stand-in" {
		t.Fatalf("GetOrCompute after Put: %q hit=%v %v", data, hit, err)
	}
	if st := c.Stats(); st.Misses != 0 || st.Computes != 0 || st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("stats after Put: %+v", st)
	}
}
