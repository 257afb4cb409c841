// Package cache is a content-addressed compile cache for the serving
// layer: artifacts are keyed by the SHA-256 of everything that determines
// the compile output (canonicalized source, machine fingerprint, codegen
// options), held in a byte-bounded in-memory LRU, deduplicated in flight
// by a singleflight layer (N concurrent identical requests trigger
// exactly one compile), and optionally spilled to an on-disk tier whose
// entries are revalidated before use.
//
// The cache stores opaque byte slices.  Compiles are deterministic
// (softpipe.Compile is read-only and map-free on every ordering-sensitive
// path), so a hit is bit-identical to the miss that populated it — the
// service layer's tests (TestCompileColdThenWarm) pin that property.
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

// String returns the hex form of the key (also the disk-tier file name).
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
	// DiskHits counts entries served from the disk tier (after
	// revalidation); DiskRejects counts disk entries that failed it.
	DiskHits    int64
	DiskRejects int64
	// RemoteHits counts fills satisfied from a remote tier (a fabric
	// peer) instead of a local compute — see GetOrFill.
	RemoteHits int64
	// Bytes and Entries describe the current in-memory tier.
	Bytes   int64
	Entries int64
}

// Config tunes a Cache.
type Config struct {
	// MaxBytes bounds the in-memory tier (sum of value lengths).  Values
	// larger than MaxBytes are returned to the caller but not retained.
	// 0 means 256 MiB.
	MaxBytes int64
	// Dir, when non-empty, enables the on-disk tier rooted there.
	Dir string
	// Validate, when non-nil, is run against disk-tier bytes before they
	// are served (the service wires it to internal/verify's static
	// checker via decode).  Entries that fail are deleted and recounted
	// as misses, so a corrupted or stale disk tier can only cost time,
	// never correctness.
	Validate func(Key, []byte) error
	// OnEvict, when non-nil, observes in-memory evictions (tests use it
	// to pin LRU order).
	OnEvict func(Key, int)
}

type entry struct {
	key  Key
	data []byte
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
	cfg  Config
	disk *diskTier

	mu      sync.Mutex
	ll      *list.List // front = most recent
	items   map[Key]*list.Element
	flight  map[Key]*call
	stats   Stats
	evictCB func(Key, int)
}

// New builds a cache.  The disk tier directory is created on demand.
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
	if cfg.Dir != "" {
		d, err := newDiskTier(cfg.Dir)
		if err != nil {
			return nil, err
		}
		c.disk = d
	}
	return c, nil
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Get returns the cached bytes for key without computing: memory first,
// then the validated disk tier.  ok is false on a miss.
func (c *Cache) Get(key Key) (data []byte, ok bool) {
	c.mu.Lock()
	if el, hit := c.items[key]; hit {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		data = el.Value.(*entry).data
		c.mu.Unlock()
		return data, true
	}
	c.mu.Unlock()
	if data, ok = c.diskGet(key); ok {
		c.put(key, data)
		return data, true
	}
	return nil, false
}

// GetOrCompute returns the cached bytes for key, computing them at most
// once across all concurrent callers.  The leader runs compute on its own
// goroutine's context; waiters block until the leader finishes or their
// ctx ends, whichever is first (a waiter abandoning early does not cancel
// the leader).  hit reports whether this caller avoided running compute.
//
// Compute errors are not cached: the in-flight slot is cleared so a later
// request retries.
func (c *Cache) GetOrCompute(ctx context.Context, key Key, compute func() ([]byte, error)) (data []byte, hit bool, err error) {
	return c.GetOrFill(ctx, key, func() ([]byte, bool, error) {
		data, err := compute()
		return data, true, err
	})
}

// GetOrFill is GetOrCompute with a remote-tier hook: the fill callback
// reports whether it actually computed the bytes (computed=true, a local
// compile) or fetched them from elsewhere (computed=false, e.g. a fabric
// peer).  Only computed fills count toward Stats.Computes and reach the
// disk tier — a remote fetch is a replica, memory-resident only, whose
// durable copy lives with the key's owner; remote fetches count as
// Stats.RemoteHits and report hit=true to the caller, since no local
// compile ran.
//
// A fill that panics releases every coalesced waiter with an error before
// the panic propagates, so one poisoned compile can never wedge future
// requests for its key behind a flight entry that will never finish.
func (c *Cache) GetOrFill(ctx context.Context, key Key, fill func() (data []byte, computed bool, err error)) (data []byte, hit bool, err error) {
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

	// Disk tier, then fill — both outside the lock.
	if data, ok := c.diskGet(key); ok {
		c.finish(key, cl, data, nil, false)
		return data, true, nil
	}
	finished := false
	defer func() {
		if !finished {
			// fill panicked: release the waiters, then let it propagate
			// (the serving layer's panic recovery turns it into a 500).
			c.finish(key, cl, nil, fmt.Errorf("cache: fill for %s panicked", key), false)
		}
	}()
	data, computed, err := fill()
	finished = true
	c.mu.Lock()
	if err == nil {
		if computed {
			c.stats.Computes++
		} else {
			c.stats.RemoteHits++
		}
	} else if computed {
		c.stats.Computes++
	}
	c.mu.Unlock()
	c.finish(key, cl, data, err, computed)
	if err != nil {
		return nil, false, err
	}
	return data, !computed, nil
}

// Put inserts externally obtained bytes (a replica fetched from a peer)
// into the in-memory tier without touching the disk tier or the flight
// table.
func (c *Cache) Put(key Key, data []byte) { c.put(key, data) }

// finish publishes a leader's outcome: successful bytes land in the LRU
// (and, for locally computed fills, the disk tier), every waiter is
// released, and the flight slot clears.
func (c *Cache) finish(key Key, cl *call, data []byte, err error, toDisk bool) {
	cl.data, cl.err = data, err
	if err == nil {
		c.put(key, data)
		if toDisk && c.disk != nil {
			// Disk write failures degrade to a smaller cache, not a
			// request failure.
			_ = c.disk.put(key, data)
		}
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
	for c.stats.Bytes > c.cfg.MaxBytes {
		el := c.ll.Back()
		if el == nil {
			break
		}
		e := c.ll.Remove(el).(*entry)
		delete(c.items, e.key)
		c.stats.Bytes -= int64(len(e.data))
		c.stats.Entries--
		c.stats.Evictions++
		if c.evictCB != nil {
			c.evictCB(e.key, len(e.data))
		}
	}
}

// diskGet consults the validated disk tier.
func (c *Cache) diskGet(key Key) ([]byte, bool) {
	if c.disk == nil {
		return nil, false
	}
	data, ok := c.disk.get(key)
	if !ok {
		return nil, false
	}
	if c.cfg.Validate != nil {
		if err := c.cfg.Validate(key, data); err != nil {
			c.disk.remove(key)
			c.mu.Lock()
			c.stats.DiskRejects++
			c.mu.Unlock()
			return nil, false
		}
	}
	c.mu.Lock()
	c.stats.DiskHits++
	c.mu.Unlock()
	return data, true
}
