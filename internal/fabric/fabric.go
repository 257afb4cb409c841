package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softpipe/internal/cache"
)

// Header names of the peer protocol.
const (
	// HeaderRequestID carries the request ID end to end: client →
	// serving node → forwarded peer request, so one failure can be
	// traced across the fleet.
	HeaderRequestID = "X-Request-ID"
	// HeaderForwarded marks a peer-originated request; the artifact
	// handler never forwards again, so forwarding loops are structurally
	// impossible, and this header makes that auditable in logs.
	HeaderForwarded = "X-Softpipe-Forwarded"
	// HeaderCompiled is set by the owner on forward responses: "1" when
	// the owner actually compiled, "0" when it served its cache.
	HeaderCompiled = "X-Softpipe-Compiled"
)

type ctxKey int

const requestIDKey ctxKey = 0

// WithRequestID stashes a request ID for forwarded peer calls.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom recovers the request ID, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// Config tunes a Fabric.  Self and Peers are advertise URLs
// (e.g. "http://10.0.0.1:8575"); everything else defaults sensibly.
type Config struct {
	// Self is this node's advertise URL.  It is added to Peers if absent.
	Self string
	// Peers is the full static fleet membership, self included.
	Peers []string
	// Transport overrides the HTTP transport for peer calls; tests fail
	// or observe peer traffic through it.
	Transport http.RoundTripper
	// Retry bounds the forward retry loop.
	Retry RetryPolicy
	// Breaker tunes the per-peer circuit breakers.
	Breaker BreakerConfig
	// HealthInterval paces the active /healthz prober (default 500ms;
	// negative disables, for tests that drive breakers by hand).
	HealthInterval time.Duration
	// Logf, when non-nil, receives one line per peer state change and
	// abandoned forward.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	c.Self = strings.TrimRight(c.Self, "/")
	seen := map[string]bool{}
	var peers []string
	for _, p := range append([]string{c.Self}, c.Peers...) {
		p = strings.TrimRight(p, "/")
		if p != "" && !seen[p] {
			seen[p] = true
			peers = append(peers, p)
		}
	}
	c.Peers = peers
	if c.HealthInterval == 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	c.Retry = c.Retry.withDefaults()
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// peerState is the per-peer runtime: breaker plus counters.
type peerState struct {
	url      string
	breaker  *Breaker
	healthy  atomic.Bool
	forwards atomic.Int64 // attempts sent to this peer
	failures atomic.Int64 // attempts that failed
}

// Fabric is one node's view of the fleet.  Safe for concurrent use.
type Fabric struct {
	cfg    Config
	ring   *ring
	client *http.Client
	peers  map[string]*peerState
	// attemptTimeout caps one peer call (the caller's context may end it
	// sooner).  Always 30s; a field only because this package's tests
	// cannot wait that long for a call to expire.
	attemptTimeout time.Duration

	forwardHits   atomic.Int64 // owner answered a forward with bytes
	forwardFails  atomic.Int64 // forward abandoned → caller compiles locally
	terminalFails atomic.Int64 // owner reported a deterministic compile error
	keyFetches    atomic.Int64 // GET-by-key successes (run-by-key path)
	probes        atomic.Int64

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Fabric and starts its health prober.  Close releases it.
func New(cfg Config) (*Fabric, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, errors.New("fabric: Self advertise URL required")
	}
	f := &Fabric{
		cfg:            cfg,
		ring:           newRing(cfg.Peers),
		client:         &http.Client{Transport: cfg.Transport},
		peers:          map[string]*peerState{},
		attemptTimeout: 30 * time.Second,
		stopc:          make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			continue
		}
		ps := &peerState{url: p, breaker: NewBreaker(cfg.Breaker)}
		ps.healthy.Store(true) // optimistic until the prober says otherwise
		f.peers[p] = ps
	}
	if cfg.HealthInterval > 0 && len(f.peers) > 0 {
		f.wg.Add(1)
		go f.healthLoop()
	}
	return f, nil
}

// Close stops the health prober.
func (f *Fabric) Close() {
	f.stopOnce.Do(func() { close(f.stopc) })
	f.wg.Wait()
}

// Enabled reports whether there is any peer to talk to.
func (f *Fabric) Enabled() bool { return len(f.peers) > 0 }

// OwnerOf returns the advertise URL of the node owning key.
func (f *Fabric) OwnerOf(key cache.Key) string { return f.ring.owner(key) }

// Owns reports whether this node owns key (always true single-node).
func (f *Fabric) Owns(key cache.Key) bool {
	o := f.ring.owner(key)
	return o == "" || o == f.cfg.Self
}

// TerminalError is an owner-reported failure that retrying or compiling
// locally cannot fix (the compile itself fails deterministically): the
// caller should surface it, not mask it with a doomed local compile.
type TerminalError struct {
	Status int
	Body   string
}

func (e *TerminalError) Error() string {
	return fmt.Sprintf("peer answered %d: %s", e.Status, strings.TrimSpace(e.Body))
}

// IsTerminal reports whether err is an owner-reported deterministic
// failure (see TerminalError).
func IsTerminal(err error) bool {
	var te *TerminalError
	return errors.As(err, &te)
}

// ErrPeerUnavailable means the owner could not be reached inside the
// retry/breaker/deadline budget; the caller should compile locally.
var ErrPeerUnavailable = errors.New("fabric: owner unavailable")

// Forward sends a compile-or-get to the owner of key and returns the raw
// artifact bytes.  payload is the opaque request body (the service's
// forward JSON).  On any infrastructure failure — breaker open, retries
// exhausted, deadline budget spent — it returns an error wrapping
// ErrPeerUnavailable and the caller degrades to a local compile.  A
// TerminalError (the owner compiled and the compile itself failed) is
// returned as-is and must not be retried.  When the caller's own ctx
// ends first, its error is returned and nothing is booked against the
// owner: a client's short deadline says nothing about the peer's health.
func (f *Fabric) Forward(ctx context.Context, key cache.Key, payload []byte) ([]byte, error) {
	owner := f.ring.owner(key)
	if owner == "" || owner == f.cfg.Self {
		return nil, fmt.Errorf("%w: key is self-owned", ErrPeerUnavailable)
	}
	ps := f.peers[owner]
	var lastErr error
	for attempt := 0; attempt < f.cfg.Retry.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !ps.breaker.Allow() {
			f.forwardFails.Add(1)
			return nil, fmt.Errorf("%w: breaker %s for %s", ErrPeerUnavailable, ps.breaker.State(), owner)
		}
		data, err := f.post(ctx, ps, key, payload)
		if err == nil {
			ps.breaker.OnSuccess()
			f.forwardHits.Add(1)
			return data, nil
		}
		if IsTerminal(err) {
			// The peer is healthy — it answered — the compile is what
			// failed.  Not a breaker event.
			ps.breaker.OnSuccess()
			f.terminalFails.Add(1)
			return nil, err
		}
		if cerr := ctx.Err(); cerr != nil {
			ps.breaker.abandon()
			return nil, cerr
		}
		ps.breaker.OnFailure()
		ps.failures.Add(1)
		lastErr = err
		// minUseful ≈ the cost of starting a local fallback compile: if
		// the backoff would eat the deadline past that, stop retrying.
		if !sleepBudgeted(ctx, f.cfg.Retry.backoff(attempt+1), 50*time.Millisecond) {
			break
		}
	}
	f.forwardFails.Add(1)
	f.logf("fabric: forward %s to %s abandoned: %v", key.String()[:12], owner, lastErr)
	return nil, fmt.Errorf("%w: %v", ErrPeerUnavailable, lastErr)
}

// FetchByKey tries to fetch an already-cached artifact from the owner of
// key (GET, fetch-only).  found is false when the owner does not have it
// or cannot be reached — never an error a client sees.
func (f *Fabric) FetchByKey(ctx context.Context, key cache.Key) (data []byte, found bool) {
	owner := f.ring.owner(key)
	if owner == "" || owner == f.cfg.Self {
		return nil, false
	}
	ps := f.peers[owner]
	if !ps.breaker.Allow() {
		return nil, false
	}
	data, err := f.get(ctx, ps, key)
	switch {
	case err == nil:
		ps.breaker.OnSuccess()
		f.keyFetches.Add(1)
		return data, true
	case errors.Is(err, errNotFound):
		ps.breaker.OnSuccess() // the peer answered; the key just isn't there
	case ctx.Err() != nil:
		ps.breaker.abandon() // the caller gave up; no verdict on the peer
	default:
		ps.breaker.OnFailure()
		ps.failures.Add(1)
	}
	return nil, false
}

var errNotFound = errors.New("fabric: not cached at owner")

// post is one forward attempt: POST {owner}/artifact/{key} with the
// opaque compile payload, under attemptTimeout; 200 returns the raw
// artifact bytes.
func (f *Fabric) post(ctx context.Context, ps *peerState, key cache.Key, payload []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, f.attemptTimeout)
	defer cancel()
	ps.forwards.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ps.url+"/artifact/"+key.String(), bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	f.decorate(req, ctx)
	return f.roundTrip(req)
}

// get is the fetch-only call: GET {owner}/artifact/{key}.
func (f *Fabric) get(ctx context.Context, ps *peerState, key cache.Key) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ps.url+"/artifact/"+key.String(), nil)
	if err != nil {
		return nil, err
	}
	f.decorate(req, ctx)
	return f.roundTrip(req)
}

func (f *Fabric) decorate(req *http.Request, ctx context.Context) {
	req.Header.Set(HeaderForwarded, "1")
	if id := RequestIDFrom(ctx); id != "" {
		req.Header.Set(HeaderRequestID, id)
	}
}

// roundTrip executes one peer call and classifies the outcome: 200 →
// bytes, 404 → errNotFound, other 4xx (the owner answered; the request
// itself is unservable) → TerminalError, everything else → retryable.
func (f *Fabric) roundTrip(req *http.Request) ([]byte, error) {
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("reading peer response: %w", err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return body, nil
	case resp.StatusCode == http.StatusNotFound:
		return nil, errNotFound
	case resp.StatusCode >= 400 && resp.StatusCode < 500 &&
		resp.StatusCode != http.StatusTooManyRequests &&
		resp.StatusCode != http.StatusRequestTimeout:
		return nil, &TerminalError{Status: resp.StatusCode, Body: string(body)}
	default:
		return nil, fmt.Errorf("peer answered %d", resp.StatusCode)
	}
}

// healthLoop actively probes every peer's /healthz.  Probe outcomes feed
// the breakers, which makes the loop double as half-open probe traffic:
// a recovered peer is re-closed within ~HealthInterval of coming back,
// without waiting for a real request to risk the probe.
func (f *Fabric) healthLoop() {
	defer f.wg.Done()
	tick := time.NewTicker(f.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-f.stopc:
			return
		case <-tick.C:
			for _, ps := range f.peers {
				f.probe(ps)
			}
		}
	}
}

func (f *Fabric) probe(ps *peerState) {
	if !ps.breaker.Allow() {
		return // open and still cooling down: probing would be rude
	}
	f.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), f.attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ps.url+"/healthz", nil)
	if err != nil {
		ps.breaker.OnFailure()
		return
	}
	resp, err := f.client.Do(req)
	healthy := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}
	was := ps.healthy.Swap(healthy)
	if healthy {
		ps.breaker.OnSuccess()
	} else {
		ps.breaker.OnFailure()
	}
	if was != healthy {
		f.logf("fabric: peer %s now %s (breaker %s)", ps.url,
			map[bool]string{true: "healthy", false: "unhealthy"}[healthy], ps.breaker.State())
	}
}

func (f *Fabric) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// PeerStatus is one peer's gauge row in /metrics and /healthz.
type PeerStatus struct {
	URL      string       `json:"url"`
	Breaker  BreakerState `json:"breaker"`
	Healthy  bool         `json:"healthy"`
	Forwards int64        `json:"forwards"`
	Failures int64        `json:"failures"`
}

// Stats is the fabric gauge snapshot.
type Stats struct {
	Self          string       `json:"self"`
	Peers         []PeerStatus `json:"peers"`
	ForwardHits   int64        `json:"forward_hits"`
	ForwardFails  int64        `json:"forward_fails"`
	TerminalFails int64        `json:"terminal_fails"`
	KeyFetches    int64        `json:"key_fetches"`
	HealthProbes  int64        `json:"health_probes"`
}

// Snapshot returns the current stats, peers sorted by URL.
func (f *Fabric) Snapshot() Stats {
	s := Stats{
		Self:          f.cfg.Self,
		ForwardHits:   f.forwardHits.Load(),
		ForwardFails:  f.forwardFails.Load(),
		TerminalFails: f.terminalFails.Load(),
		KeyFetches:    f.keyFetches.Load(),
		HealthProbes:  f.probes.Load(),
	}
	for _, p := range f.cfg.Peers {
		ps, ok := f.peers[p]
		if !ok {
			continue
		}
		s.Peers = append(s.Peers, PeerStatus{
			URL:      ps.url,
			Breaker:  ps.breaker.State(),
			Healthy:  ps.healthy.Load(),
			Forwards: ps.forwards.Load(),
			Failures: ps.failures.Load(),
		})
	}
	return s
}
