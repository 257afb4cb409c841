// Package fabric is the peer layer that turns N independent softpiped
// nodes into one sharded compile cache: a consistent-hash ring assigns
// every artifact key (cache.Key, the SHA-256 compile identity) to exactly
// one owning node, misses are forwarded to the owner over HTTP, and every
// failure mode degrades toward "compile locally" — never toward a
// client-visible error.
//
// Robustness machinery, in the order a request meets it:
//
//   - per-peer circuit breakers (closed → open → half-open) so a dead or
//     flapping owner costs one connection attempt per cooldown, not one
//     per request;
//   - bounded retries with full-jitter exponential backoff that respect
//     the caller's context deadline budget;
//   - active health checking against each peer's /healthz, which doubles
//     as the half-open probe traffic that closes a breaker after the peer
//     recovers.
//
// Membership is static (the -peers flag): a dead peer is routed around by
// its breaker, not rebalanced away.  When every peer is unreachable the
// fleet degrades to N independent single-node caches.
package fabric

import (
	"encoding/binary"
	"fmt"
	"sort"

	"softpipe/internal/cache"
)

// replicas is the virtual-node count per peer on the hash ring.
const replicas = 64

// ring maps keys to peers by consistent hashing: each peer contributes
// `replicas` virtual points on a 64-bit circle, and a key is owned by the
// first point at or after the key's own hash.  Virtual points keep the
// shards balanced (±a few percent at 64 replicas) and make the mapping a
// pure function of the peer set, so every node with the same -peers list
// agrees on ownership without coordination.
type ring struct {
	peers  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	peer string
}

// hash64 folds a SHA-256 of the input down to the ring coordinate.
func hash64(s string) uint64 {
	k := cache.KeyOf(s)
	return binary.BigEndian.Uint64(k[:8])
}

func newRing(peers []string) *ring {
	r := &ring{peers: append([]string(nil), peers...)}
	sort.Strings(r.peers)
	for _, p := range r.peers {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", p, i)), p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer
	})
	return r
}

// owner returns the peer owning key, or "" on an empty ring.
func (r *ring) owner(key cache.Key) string {
	if len(r.points) == 0 {
		return ""
	}
	h := binary.BigEndian.Uint64(key[:8])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point owns the top arc
	}
	return r.points[i].peer
}

// Owner is the ownership lookup without a Fabric: the fleet tests in
// internal/service (sourceOwnedBy in fleet_test.go) use it to find a
// source whose key a chosen node owns.
func Owner(peers []string, key cache.Key) string {
	return newRing(peers).owner(key)
}
