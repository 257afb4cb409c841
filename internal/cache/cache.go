// Package cache is a content-addressed compile cache for the serving
// layer: artifacts are keyed by the SHA-256 of everything that determines
// the compile output (canonicalized source, machine fingerprint, codegen
// options), held in a byte-bounded in-memory LRU, deduplicated in flight
// by a singleflight layer (N concurrent identical requests trigger
// exactly one compile).  An entry's bytes come from a compute in this
// process, or from Put, which outside tests only the frozen benchmark
// module calls.
//
// The cache stores opaque byte slices.  Compiles are deterministic
// (softpipe.Compile is read-only and map-free on every ordering-sensitive
// path), so a hit is bit-identical to the miss that populated it — the
// service layer's tests (TestCompileColdThenWarm) pin that property.
//
// Beside its bytes a resident entry may carry one view: a value its
// caller derives from the bytes (View), built at most once per residency,
// charged to the byte budget and dropped with the entry.  The bytes are
// the truth — the cache never looks inside a view.
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
	// Bytes and Entries describe the current in-memory tier; Bytes is what
	// MaxBytes bounds, value lengths plus view sizes.
	Bytes   int64
	Entries int64
}

// Config tunes a Cache.
type Config struct {
	// MaxBytes bounds the in-memory tier (sum of value lengths and view
	// sizes).  Values larger than MaxBytes are returned to the caller but
	// not retained.  0 means 256 MiB.
	MaxBytes int64
	// OnEvict, when non-nil, observes in-memory evictions with the bytes
	// each one freed, view included (tests use it to pin LRU order).
	OnEvict func(Key, int)
}

type entry struct {
	key  Key
	data []byte
	// view is nil until View first asks for it.
	view *view
}

// view is the slot for one entry's derived value.  build serialises the
// single build, so concurrent first hits wait for one result; v and size
// are guarded by Cache.mu, and size is what the entry is charged for v.
type view struct {
	build sync.Mutex
	v     any
	size  int64
}

// cost is what the entry holds of the byte budget.
func (e *entry) cost() int64 {
	n := int64(len(e.data))
	if e.view != nil {
		n += e.view.size
	}
	return n
}

// call is one in-flight compute, shared by every concurrent request for
// the same key.
type call struct {
	done chan struct{}
	data []byte
	err  error
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

// Get returns the cached bytes for key without computing.  ok is false
// on a miss.
func (c *Cache) Get(key Key) (data []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*entry).data, true
}

// GetOrCompute returns the cached bytes for key, computing them at most
// once across all concurrent callers.  The leader runs compute on its own
// goroutine's context; waiters block until the leader finishes or their
// ctx ends, whichever is first (a waiter abandoning early does not cancel
// the leader).  hit reports whether this caller avoided running compute.
//
// Compute errors are not cached: the in-flight slot is cleared so a later
// request retries.  A compute that panics releases every coalesced waiter
// with an error before the panic propagates, so one poisoned compile can
// never wedge future requests for its key behind a flight entry that will
// never finish.
func (c *Cache) GetOrCompute(ctx context.Context, key Key, compute func() ([]byte, error)) (data []byte, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		data = el.Value.(*entry).data
		c.mu.Unlock()
		return data, true, nil
	}
	if cl, ok := c.flight[key]; ok {
		c.stats.Coalesced++
		c.stats.Misses++
		c.mu.Unlock()
		select {
		case <-cl.done:
			return cl.data, true, cl.err
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
			c.finish(key, cl, nil, fmt.Errorf("cache: compute for %s panicked", key))
		}
	}()
	data, err = compute()
	finished = true
	c.mu.Lock()
	c.stats.Computes++
	c.mu.Unlock()
	c.finish(key, cl, data, err)
	if err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// GetOrFill is GetOrCompute for a fill that also says whether it
// computed; the flag is ignored.  Only the frozen benchmark module calls
// it.
func (c *Cache) GetOrFill(ctx context.Context, key Key, fill func() (data []byte, computed bool, err error)) (data []byte, hit bool, err error) {
	return c.GetOrCompute(ctx, key, func() ([]byte, error) {
		data, _, err := fill()
		return data, err
	})
}

// Put inserts data into the in-memory tier without computing: it counts
// no miss and no compute.  Outside tests only the frozen benchmark module
// calls it, to time hits on a stand-alone cache.
func (c *Cache) Put(key Key, data []byte) { c.put(key, data) }

// finish publishes a leader's outcome: successful bytes land in the LRU,
// every waiter is released, and the flight slot clears.
func (c *Cache) finish(key Key, cl *call, data []byte, err error) {
	cl.data, cl.err = data, err
	if err == nil {
		c.put(key, data)
	}
	c.mu.Lock()
	delete(c.flight, key)
	c.mu.Unlock()
	close(cl.done)
}

// put inserts data into the in-memory tier and evicts from the LRU tail
// until the byte budget holds.
func (c *Cache) put(key Key, data []byte) {
	if int64(len(data)) > c.cfg.MaxBytes {
		return // larger than the whole budget: serve but never retain
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, data: data})
	c.stats.Bytes += int64(len(data))
	c.stats.Entries++
	c.shrink()
}

// shrink evicts from the LRU tail until the byte budget holds; an evicted
// entry takes its view with it.  The caller holds c.mu.
func (c *Cache) shrink() {
	for c.stats.Bytes > c.cfg.MaxBytes {
		el := c.ll.Back()
		if el == nil {
			break
		}
		e := c.ll.Remove(el).(*entry)
		delete(c.items, e.key)
		freed := e.cost()
		c.stats.Bytes -= freed
		c.stats.Entries--
		c.stats.Evictions++
		if c.evictCB != nil {
			c.evictCB(e.key, int(freed))
		}
	}
}

// View returns the value derived from key's bytes.  While the entry is
// resident the value is built at most once — concurrent first callers wait
// for one build — charged size bytes against MaxBytes together with the
// entry, and dropped when the entry is evicted; a key that is re-filled
// later builds a fresh one.  The cache never inspects the value: build
// gets the entry's bytes and says what was made of them and what it costs
// to keep.  A build error is returned and not cached, and neither is a nil
// value.
//
// data is what the caller's Get or GetOrCompute just returned for key: when
// the entry is not resident (never retained, or evicted since) the value
// is built from data and not kept.  Likewise an entry whose bytes and view
// together exceed MaxBytes keeps serving its bytes and retains no view.
func (c *Cache) View(key Key, data []byte, build func(data []byte) (v any, size int64, err error)) (any, error) {
	c.mu.Lock()
	e := c.resident(key)
	if e == nil {
		c.mu.Unlock()
		v, _, err := build(data)
		return v, err
	}
	if e.view == nil {
		e.view = &view{}
	}
	vw := e.view
	v := vw.v
	c.mu.Unlock()
	if v != nil {
		return v, nil
	}

	vw.build.Lock()
	defer vw.build.Unlock()
	c.mu.Lock()
	v = vw.v
	c.mu.Unlock()
	if v != nil {
		return v, nil // a concurrent first hit built it
	}
	v, size, err := build(e.data)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	vw.v = v
	if c.resident(key) == e {
		c.charge(e, size)
	}
	return v, nil
}

// Grow charges n more bytes to key's view v, for a view that builds parts
// of itself lazily and reports each part as it is made (v must be
// comparable; a pointer is).  It does nothing when v is no longer the
// resident entry's view, so a view held past its entry's eviction cannot
// charge a later residency of the same key.
func (c *Cache) Grow(key Key, v any, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.resident(key); e != nil && e.view != nil && e.view.v == v {
		c.charge(e, n)
	}
}

// resident returns key's in-memory entry, or nil.  The caller holds c.mu.
func (c *Cache) resident(key Key) *entry {
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry)
	}
	return nil
}

// charge adds n bytes to the cost of resident entry e's view and evicts
// from the LRU tail to make room.  An entry that would exceed the whole
// budget by itself drops its view instead: the bytes keep serving, and
// whoever holds the view keeps using it unretained.  The caller holds c.mu.
func (c *Cache) charge(e *entry, n int64) {
	if e.cost()+n > c.cfg.MaxBytes {
		c.stats.Bytes -= e.view.size
		e.view = nil
		return
	}
	e.view.size += n
	c.stats.Bytes += n
	c.shrink()
}
