package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"softpipe/internal/cache"
)

func keyN(n int) cache.Key { return cache.KeyOf(fmt.Sprintf("key-%d", n)) }

func TestRingDeterministicAndComplete(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := newRing(peers)
	// Peer order must not matter: every node computes the same ownership.
	r2 := newRing([]string{peers[2], peers[0], peers[1]})
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		k := keyN(i)
		o := r1.owner(k)
		if o2 := r2.owner(k); o2 != o {
			t.Fatalf("ring disagrees on key %d: %s vs %s", i, o, o2)
		}
		counts[o]++
	}
	// Consistent hashing with 64 vnodes balances within a loose factor.
	for p, c := range counts {
		if c < 300 || c > 2200 {
			t.Fatalf("shard badly unbalanced: %v", counts)
		}
		_ = p
	}
	if len(counts) != 3 {
		t.Fatalf("not all peers own keys: %v", counts)
	}
}

func TestRingStability(t *testing.T) {
	// Removing one peer must only move keys that peer owned: consistent
	// hashing's whole point.
	all := []string{"http://a:1", "http://b:1", "http://c:1"}
	rAll := newRing(all)
	rTwo := newRing(all[:2])
	for i := 0; i < 2000; i++ {
		k := keyN(i)
		was, now := rAll.owner(k), rTwo.owner(k)
		if was != "http://c:1" && was != now {
			t.Fatalf("key %d moved from surviving peer %s to %s", i, was, now)
		}
	}
}

func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{FailThreshold: 3, OpenFor: time.Second})
	b.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.OnFailure()
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after %d failures: %s", 3, b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request inside the cooldown")
	}

	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown Allow: %s", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open admitted a second concurrent probe")
	}
	b.OnFailure() // the probe fails: straight back to open
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe: %s", b.State())
	}

	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.OnSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe: %s", b.State())
	}
	// One failure after recovery must not re-trip (count was reset).
	b.OnFailure()
	if b.State() != BreakerClosed {
		t.Fatal("single post-recovery failure re-tripped the breaker")
	}
}

func TestBackoffRespectsDeadlineBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if sleepBudgeted(ctx, 20*time.Millisecond, 50*time.Millisecond) {
		t.Fatal("sleep accepted although no useful budget would remain")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if !sleepBudgeted(ctx2, time.Millisecond, 50*time.Millisecond) {
		t.Fatal("sleep refused despite ample budget")
	}
}

func TestBackoffJitterBounded(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	for attempt := 1; attempt < 20; attempt++ {
		for i := 0; i < 50; i++ {
			d := p.backoff(attempt)
			if d < 0 || d > p.MaxDelay {
				t.Fatalf("backoff(%d) = %v out of [0, %v]", attempt, d, p.MaxDelay)
			}
		}
	}

	// Two default-configured nodes must not draw the same jitter: a shared
	// sequence is the synchronized retry stampede full jitter exists to
	// prevent.
	var draws [2][8]time.Duration
	for n := range draws {
		f, err := New(Config{Self: "http://self.invalid", Peers: []string{"http://peer.invalid"}, HealthInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		for i := range draws[n] {
			draws[n][i] = f.cfg.Retry.backoff(i + 1)
		}
	}
	if draws[0] == draws[1] {
		t.Fatalf("two default fabrics drew the same backoff sequence: %v", draws[0])
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// failingWhile is a Config.Transport that refuses every peer call for
// which down() reports true and passes the rest to the real network.
func failingWhile(down func() bool) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if down() {
			return nil, fmt.Errorf("injected connection failure to %s", r.URL.Host)
		}
		return http.DefaultTransport.RoundTrip(r)
	})
}

// testOwner is a minimal artifact endpoint: POST returns the payload
// echoed with a prefix (stand-in for compiled bytes), GET serves a fixed
// body for "cached" keys.
func testOwner(t *testing.T, cached map[string]string, compiles *atomic.Int64, delay time.Duration) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /artifact/{key}", func(w http.ResponseWriter, r *http.Request) {
		if compiles != nil {
			compiles.Add(1)
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		fmt.Fprintf(w, "compiled:%s", r.PathValue("key"))
	})
	mux.HandleFunc("GET /artifact/{key}", func(w http.ResponseWriter, r *http.Request) {
		if body, ok := cached[r.PathValue("key")]; ok {
			fmt.Fprint(w, body)
			return
		}
		http.Error(w, `{"error":"not cached"}`, http.StatusNotFound)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	return httptest.NewServer(mux)
}

// ownedKey finds a key owned by wantOwner among the given peers.
func ownedKey(t *testing.T, peers []string, wantOwner string) cache.Key {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := keyN(i)
		if Owner(peers, k) == wantOwner {
			return k
		}
	}
	t.Fatal("no key found owned by peer")
	panic("unreachable")
}

func newTestFabric(t *testing.T, self string, peers []string, mut func(*Config)) *Fabric {
	t.Helper()
	cfg := Config{
		Self:           self,
		Peers:          peers,
		Retry:          RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		Breaker:        BreakerConfig{FailThreshold: 3, OpenFor: 100 * time.Millisecond},
		HealthInterval: -1, // tests drive traffic by hand
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func TestForwardSuccessAndOwnership(t *testing.T) {
	var compiles atomic.Int64
	owner := testOwner(t, nil, &compiles, 0)
	defer owner.Close()
	self := "http://self.invalid"
	peers := []string{self, owner.URL}
	f := newTestFabric(t, self, peers, nil)

	k := ownedKey(t, peers, owner.URL)
	data, err := f.Forward(context.Background(), k, []byte(`{"x":1}`))
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	if string(data) != "compiled:"+k.String() {
		t.Fatalf("forward returned %q", data)
	}
	if compiles.Load() != 1 {
		t.Fatalf("owner compiled %d times", compiles.Load())
	}

	selfKey := ownedKey(t, peers, self)
	if f.Owns(selfKey) != true || f.Owns(k) != false {
		t.Fatal("ownership predicate wrong")
	}
	if _, err := f.Forward(context.Background(), selfKey, nil); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("forwarding a self-owned key: %v", err)
	}
}

func TestForwardRetriesThroughTransientFaults(t *testing.T) {
	var compiles atomic.Int64
	owner := testOwner(t, nil, &compiles, 0)
	defer owner.Close()
	self := "http://self.invalid"
	peers := []string{self, owner.URL}

	// The first two attempts die on the wire; the third passes.
	var calls atomic.Int64
	f := newTestFabric(t, self, peers, func(c *Config) {
		c.Transport = failingWhile(func() bool { return calls.Add(1) <= 2 })
	})

	k := ownedKey(t, peers, owner.URL)
	data, err := f.Forward(context.Background(), k, []byte(`{}`))
	if err != nil {
		t.Fatalf("forward with 2 transient faults: %v", err)
	}
	if string(data) == "" || compiles.Load() != 1 {
		t.Fatalf("data=%q compiles=%d", data, compiles.Load())
	}
	st := f.Snapshot()
	if st.ForwardHits != 1 || st.Peers[0].Failures != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestForwardOpensBreakerThenRecovers(t *testing.T) {
	owner := testOwner(t, nil, nil, 0)
	defer owner.Close()
	self := "http://self.invalid"
	peers := []string{self, owner.URL}

	var down atomic.Bool
	down.Store(true) // everything fails
	f := newTestFabric(t, self, peers, func(c *Config) { c.Transport = failingWhile(down.Load) })
	k := ownedKey(t, peers, owner.URL)

	if _, err := f.Forward(context.Background(), k, nil); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("want ErrPeerUnavailable, got %v", err)
	}
	st := f.Snapshot()
	if st.Peers[0].Breaker != BreakerOpen {
		t.Fatalf("breaker after exhausted retries: %s", st.Peers[0].Breaker)
	}
	// While open, forwards shed instantly (no attempts reach the wire).
	before := f.Snapshot().Peers[0].Forwards
	if _, err := f.Forward(context.Background(), k, nil); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("open-breaker forward: %v", err)
	}
	if after := f.Snapshot().Peers[0].Forwards; after != before {
		t.Fatal("open breaker still sent traffic to the peer")
	}

	// Heal the network, wait out the cooldown: the next forward is the
	// half-open probe and closes the breaker.
	down.Store(false)
	time.Sleep(120 * time.Millisecond)
	if _, err := f.Forward(context.Background(), k, []byte(`{}`)); err != nil {
		t.Fatalf("probe forward after heal: %v", err)
	}
	if st := f.Snapshot(); st.Peers[0].Breaker != BreakerClosed {
		t.Fatalf("breaker after successful probe: %s", st.Peers[0].Breaker)
	}
}

func TestForwardTerminalErrorNotRetried(t *testing.T) {
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /artifact/{key}", func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		http.Error(w, `{"error":"schedule infeasible"}`, http.StatusUnprocessableEntity)
	})
	owner := httptest.NewServer(mux)
	defer owner.Close()
	self := "http://self.invalid"
	peers := []string{self, owner.URL}
	f := newTestFabric(t, self, peers, nil)

	k := ownedKey(t, peers, owner.URL)
	_, err := f.Forward(context.Background(), k, []byte(`{}`))
	if !IsTerminal(err) {
		t.Fatalf("want terminal error, got %v", err)
	}
	if posts.Load() != 1 {
		t.Fatalf("terminal error was retried: %d posts", posts.Load())
	}
	if st := f.Snapshot(); st.Peers[0].Breaker != BreakerClosed {
		t.Fatal("terminal (peer-healthy) error tripped the breaker")
	}
}

// TestForwardCallerDeadlineIsNotAPeerFailure: callers whose own deadline
// expires while a healthy owner is still compiling must not open its
// breaker — or client behaviour alone costs the fleet exactly-once for
// every key that owner holds.
func TestForwardCallerDeadlineIsNotAPeerFailure(t *testing.T) {
	owner := testOwner(t, nil, nil, 200*time.Millisecond)
	defer owner.Close()
	self := "http://self.invalid"
	peers := []string{self, owner.URL}
	f := newTestFabric(t, self, peers, nil)
	k := ownedKey(t, peers, owner.URL)

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := f.Forward(ctx, k, []byte(`{}`))
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrPeerUnavailable) {
			t.Fatalf("caller timeout %d: err = %v, want the caller's deadline error", i, err)
		}
	}
	// An already-cancelled caller takes the same exit.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Forward(ctx, k, []byte(`{}`)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller: err = %v, want context.Canceled", err)
	}
	if _, found := f.FetchByKey(ctx, k); found {
		t.Fatal("cancelled fetch found a key")
	}
	st := f.Snapshot()
	if p := st.Peers[0]; p.Breaker != BreakerClosed || p.Failures != 0 || st.ForwardFails != 0 {
		t.Fatalf("caller deadlines booked against the peer: breaker=%s failures=%d forward_fails=%d",
			p.Breaker, p.Failures, st.ForwardFails)
	}
	// The owner is still served: a patient caller gets its bytes.
	if _, err := f.Forward(context.Background(), k, []byte(`{}`)); err != nil {
		t.Fatalf("patient forward after caller timeouts: %v", err)
	}
}

// TestForwardAttemptTimeoutCountsAgainstPeer: the other deadline — the
// fabric's own per-attempt cap expiring under a live caller — is the
// peer being too slow, and still feeds the breaker.
func TestForwardAttemptTimeoutCountsAgainstPeer(t *testing.T) {
	owner := testOwner(t, nil, nil, 200*time.Millisecond)
	defer owner.Close()
	self := "http://self.invalid"
	peers := []string{self, owner.URL}
	f := newTestFabric(t, self, peers, nil)
	f.attemptTimeout = 5 * time.Millisecond
	k := ownedKey(t, peers, owner.URL)

	if _, err := f.Forward(context.Background(), k, []byte(`{}`)); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("want ErrPeerUnavailable, got %v", err)
	}
	st := f.Snapshot()
	if p := st.Peers[0]; p.Breaker != BreakerOpen || p.Failures != 3 || st.ForwardFails != 1 {
		t.Fatalf("attempt timeouts not booked: breaker=%s failures=%d forward_fails=%d",
			p.Breaker, p.Failures, st.ForwardFails)
	}
}

// TestHalfOpenProbeAbandonedByCallerIsHandedBack: a caller that gives up
// while holding the single half-open probe slot must free it, or the
// breaker would refuse the peer forever.
func TestHalfOpenProbeAbandonedByCallerIsHandedBack(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{FailThreshold: 1, OpenFor: time.Second})
	b.now = func() time.Time { return now }
	b.Allow()
	b.OnFailure()
	now = now.Add(2 * time.Second)
	if !b.Allow() || b.Allow() {
		t.Fatal("half-open must admit exactly one probe")
	}
	b.abandon()
	if b.State() != BreakerHalfOpen || !b.Allow() {
		t.Fatalf("abandoned probe slot not handed back (state %s)", b.State())
	}
}

func TestFetchByKey(t *testing.T) {
	self := "http://self.invalid"
	owner := testOwner(t, map[string]string{}, nil, 0)
	defer owner.Close()
	peers := []string{self, owner.URL}
	f := newTestFabric(t, self, peers, nil)
	k := ownedKey(t, peers, owner.URL)

	if _, found := f.FetchByKey(context.Background(), k); found {
		t.Fatal("found a key the owner does not have")
	}
	// 404 is a healthy answer: must not count as a peer failure.
	if st := f.Snapshot(); st.Peers[0].Failures != 0 {
		t.Fatalf("404 counted as failure: %+v", st.Peers[0])
	}
	owner.Close()
	if _, found := f.FetchByKey(context.Background(), k); found {
		t.Fatal("found a key on a dead owner")
	}
	if st := f.Snapshot(); st.Peers[0].Failures != 1 {
		t.Fatalf("dead-owner fetch not counted: %+v", st.Peers[0])
	}
}

func TestHealthProbeDrivesBreaker(t *testing.T) {
	owner := testOwner(t, nil, nil, 0)
	self := "http://self.invalid"
	peers := []string{self, owner.URL}
	f := newTestFabric(t, self, peers, func(c *Config) {
		c.HealthInterval = 10 * time.Millisecond
		c.Breaker = BreakerConfig{FailThreshold: 2, OpenFor: 30 * time.Millisecond}
	})

	waitFor := func(desc string, pred func(Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if pred(f.Snapshot()) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s: %+v", desc, f.Snapshot())
	}

	waitFor("initial healthy probe", func(s Stats) bool {
		return s.HealthProbes > 0 && s.Peers[0].Healthy
	})
	ownerURL := owner.URL
	owner.Close()
	waitFor("breaker open after peer death", func(s Stats) bool {
		return s.Peers[0].Breaker == BreakerOpen && !s.Peers[0].Healthy
	})

	// Restart a server on the same address so the advertise URL holds.
	l, err := netListen(ownerURL)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", ownerURL, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(l)
	defer srv.Close()

	waitFor("breaker closed after recovery", func(s Stats) bool {
		return s.Peers[0].Breaker == BreakerClosed && s.Peers[0].Healthy
	})
}

func TestRequestIDContext(t *testing.T) {
	ctx := WithRequestID(context.Background(), "abc-123")
	if got := RequestIDFrom(ctx); got != "abc-123" {
		t.Fatalf("RequestIDFrom = %q", got)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Fatalf("empty ctx RequestIDFrom = %q", got)
	}
}
