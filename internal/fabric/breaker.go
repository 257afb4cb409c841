package fabric

import (
	"sync"
	"time"
)

// BreakerState is one of the three classic circuit-breaker states.
type BreakerState string

const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: requests are refused locally until the cooldown ends.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: one probe request at a time may pass; its success
	// closes the breaker, its failure re-opens it.
	BreakerHalfOpen BreakerState = "half-open"
)

// halfOpenMax bounds concurrent probes in half-open, so a recovering
// peer is not re-stampeded by every waiting caller at once.
const halfOpenMax = 1

// BreakerConfig tunes a Breaker.  The zero value gets defaults.
type BreakerConfig struct {
	// FailThreshold consecutive failures trip closed → open (default 3).
	FailThreshold int
	// OpenFor is the cooldown before an open breaker admits probes
	// (default 500ms).
	OpenFor time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 500 * time.Millisecond
	}
	return c
}

// Breaker is a per-peer circuit breaker.  It is safe for concurrent use.
// Callers bracket each attempt with Allow / (OnSuccess | OnFailure |
// abandon); an Allow that returns false must not be followed by any.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time // injectable for deterministic tests

	mu       sync.Mutex
	state    BreakerState
	fails    int
	openedAt time.Time
	probes   int // in-flight half-open probes
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), now: time.Now, state: BreakerClosed}
}

// Allow reports whether one attempt may proceed, transitioning
// open → half-open when the cooldown has elapsed.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.state = BreakerHalfOpen
		b.probes = 0
		fallthrough
	default: // half-open
		if b.probes >= halfOpenMax {
			return false
		}
		b.probes++
		return true
	}
}

// OnSuccess records a successful attempt: half-open closes, closed resets
// the consecutive-failure count.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
	}
	b.fails = 0
	b.probes = 0
}

// OnFailure records a failed attempt: a half-open probe failure re-opens
// immediately; in closed, FailThreshold consecutive failures trip open.
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.probes = 0
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.FailThreshold {
			b.state = BreakerOpen
			b.openedAt = b.now()
		}
	}
}

// abandon ends an allowed attempt that produced no verdict on the peer
// (the caller gave up first): a half-open probe slot is handed back so
// the next caller can probe, and nothing else moves.
func (b *Breaker) abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probes > 0 {
		b.probes--
	}
}

// State snapshots the current state (Allow's open → half-open transition
// only happens on traffic, so an idle open breaker reports open even
// after its cooldown).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
