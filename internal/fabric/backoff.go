package fabric

import (
	"context"
	"math/rand"
	"time"
)

// RetryPolicy bounds the forward-to-owner retry loop.  The zero value
// gets defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included
	// (default 3).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt k sleeps a
	// full-jitter uniform draw from [0, min(MaxDelay, BaseDelay·2^k))
	// (defaults 15ms base, 250ms cap).  Full jitter decorrelates the
	// retry times of callers that failed together, so a recovering peer
	// sees a trickle instead of a synchronized second stampede.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 15 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	return p
}

// backoff returns the full-jitter sleep before retry attempt k (k ≥ 1),
// drawn from math/rand's auto-seeded top-level source: nodes that failed
// together must not share a jitter sequence.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	ceil := p.BaseDelay << uint(attempt)
	if ceil <= 0 || ceil > p.MaxDelay { // <=0 guards shift overflow
		ceil = p.MaxDelay
	}
	return time.Duration(rand.Int63n(int64(ceil) + 1))
}

// sleepBudgeted sleeps d unless the context ends first or the deadline
// budget makes another attempt pointless: if fewer than minUseful would
// remain after the sleep, it reports false and the caller stops retrying
// (better to fall back to a local compile that can still finish than to
// burn the whole deadline queueing behind a dead peer).
func sleepBudgeted(ctx context.Context, d time.Duration, minUseful time.Duration) bool {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d+minUseful {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
