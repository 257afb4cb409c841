// Package cache is a content-addressed compile cache for the serving
// layer: entries are keyed by the SHA-256 of everything that determines
// the compile output (canonicalized source, machine fingerprint, codegen
// options), held in a charge-bounded in-memory LRU, deduplicated in
// flight by a singleflight layer (N concurrent identical requests trigger
// exactly one compile).  An entry's value comes from a compute in this
// process, or from Put, which outside tests only the frozen benchmark
// module calls.
//
// An entry is a value and a charge.  The cache never looks inside the
// value; the compute that makes it says what it costs to keep, and that
// charge is fixed for the entry's residency: MaxBytes bounds the sum of
// the resident charges.  Compiles are deterministic (softpipe.Compile is
// read-only and map-free on every ordering-sensitive path), so a hit
// serves what the miss that populated it would serve again — the service
// layer's tests (TestCompileColdThenWarm, TestObjectDigestPinned) pin
// that property.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// Key is a content address: the SHA-256 of the compile identity.
type Key [sha256.Size]byte

// String returns the hex form of the key.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("cache: malformed key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// KeyOf hashes the identity components of one compile.  Callers pass the
// canonicalized source (parse + pretty-print, so formatting and comments
// do not fragment the key space), the machine fingerprint
// (machine.Machine.Fingerprint), and a stable encoding of the codegen
// options.  Each component is length-prefixed so concatenations cannot
// collide.
func KeyOf(parts ...string) Key {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Stats are the cache's monotonic counters, exported at /metrics.
type Stats struct {
	// Hits counts in-memory LRU hits; Misses counts lookups that had to
	// compute (or wait for an in-flight compute).
	Hits   int64
	Misses int64
	// Computes counts actual executions of the compute callback; with
	// singleflight dedup, Misses - Coalesced == Computes for successful
	// computes.
	Computes int64
	// Coalesced counts requests that piggybacked on an identical
	// in-flight compute instead of compiling themselves.
	Coalesced int64
	// Evictions counts LRU entries dropped to respect MaxBytes.
	Evictions int64
	// Bytes and Entries describe the resident entries; Bytes is the sum
	// of their charges, what MaxBytes bounds.
	Bytes   int64
	Entries int64
}

// Config tunes a Cache.
type Config struct {
	// MaxBytes bounds the sum of the resident entries' charges.  A value
	// charged more than MaxBytes is returned to the caller but not
	// retained.  0 means 256 MiB.
	MaxBytes int64
	// OnEvict, when non-nil, observes in-memory evictions with the charge
	// each one freed (tests use it to pin LRU order).
	OnEvict func(Key, int)
}

type entry struct {
	key    Key
	value  any
	charge int64
}

// call is one in-flight compute, shared by every concurrent request for
// the same key.
type call struct {
	done  chan struct{}
	value any
	err   error
}

// Cache is a concurrency-safe content-addressed store.  The lock covers
// only index manipulation; computes run outside it.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	ll      *list.List // front = most recent
	items   map[Key]*list.Element
	flight  map[Key]*call
	stats   Stats
	evictCB func(Key, int)
}

// New builds a cache.  The error is always nil; the frozen benchmark
// module reads it.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 256 << 20
	}
	c := &Cache{
		cfg:     cfg,
		ll:      list.New(),
		items:   map[Key]*list.Element{},
		flight:  map[Key]*call{},
		evictCB: cfg.OnEvict,
	}
	return c, nil
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Get returns the cached value for key without computing.  ok is false
// on a miss.
func (c *Cache) Get(key Key) (value any, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*entry).value, true
}

// GetOrCompute returns the cached value for key, computing it at most
// once across all concurrent callers.  compute returns the value and its
// charge, what keeping it costs against MaxBytes.  The leader runs compute
// on its own goroutine's context; waiters block until the leader finishes
// or their ctx ends, whichever is first (a waiter abandoning early does
// not cancel the leader).  hit reports whether this caller avoided running
// compute.
//
// Compute errors are not cached: the in-flight slot is cleared so a later
// request retries.  A compute that panics releases every coalesced waiter
// with an error before the panic propagates, so one poisoned compile can
// never wedge future requests for its key behind a flight entry that will
// never finish.
func (c *Cache) GetOrCompute(ctx context.Context, key Key, compute func() (value any, charge int64, err error)) (value any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		value = el.Value.(*entry).value
		c.mu.Unlock()
		return value, true, nil
	}
	if cl, ok := c.flight[key]; ok {
		c.stats.Coalesced++
		c.stats.Misses++
		c.mu.Unlock()
		select {
		case <-cl.done:
			return cl.value, true, cl.err
		case <-ctx.Done():
			return nil, false, fmt.Errorf("cache: wait for in-flight compile canceled: %w", ctx.Err())
		}
	}
	cl := &call{done: make(chan struct{})}
	c.flight[key] = cl
	c.stats.Misses++
	c.mu.Unlock()

	finished := false
	defer func() {
		if !finished {
			// compute panicked: release the waiters, then let it propagate
			// (the serving layer's panic recovery turns it into a 500).
			c.finish(key, cl, nil, 0, fmt.Errorf("cache: compute for %s panicked", key))
		}
	}()
	value, charge, err := compute()
	finished = true
	c.mu.Lock()
	c.stats.Computes++
	c.mu.Unlock()
	c.finish(key, cl, value, charge, err)
	if err != nil {
		return nil, false, err
	}
	return value, false, nil
}

// GetOrFill is GetOrCompute of a fill that makes bytes, charged their
// length, and also says whether it computed; the flag is ignored.  Only
// the frozen benchmark module calls it.
func (c *Cache) GetOrFill(ctx context.Context, key Key, fill func() (data []byte, computed bool, err error)) (value any, hit bool, err error) {
	return c.GetOrCompute(ctx, key, func() (any, int64, error) {
		data, _, err := fill()
		return data, int64(len(data)), err
	})
}

// Put makes data resident, charged its length, without computing: it
// counts no miss and no compute.  Outside tests only the frozen benchmark
// module calls it, to time hits on a stand-alone cache.
func (c *Cache) Put(key Key, data []byte) { c.put(key, data, int64(len(data))) }

// finish publishes a leader's outcome: a successful value lands in the
// LRU, every waiter is released, and the flight slot clears.
func (c *Cache) finish(key Key, cl *call, value any, charge int64, err error) {
	cl.value, cl.err = value, err
	if err == nil {
		c.put(key, value, charge)
	}
	c.mu.Lock()
	delete(c.flight, key)
	c.mu.Unlock()
	close(cl.done)
}

// put makes value resident at charge and evicts from the LRU tail until
// the budget holds.
func (c *Cache) put(key Key, value any, charge int64) {
	if charge > c.cfg.MaxBytes {
		return // larger than the whole budget: serve but never retain
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, value: value, charge: charge})
	c.stats.Bytes += charge
	c.stats.Entries++
	for c.stats.Bytes > c.cfg.MaxBytes {
		e := c.ll.Remove(c.ll.Back()).(*entry)
		delete(c.items, e.key)
		c.stats.Bytes -= e.charge
		c.stats.Entries--
		c.stats.Evictions++
		if c.evictCB != nil {
			c.evictCB(e.key, int(e.charge))
		}
	}
}
