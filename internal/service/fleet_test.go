package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softpipe/internal/cache"
	"softpipe/internal/fabric"
	"softpipe/internal/workloads"
)

// fleetNode is one in-process fleet member with a real listener, so the
// fabric's HTTP peer protocol is exercised for real (ports, breakers,
// health probes), not mocked.
type fleetNode struct {
	t    *testing.T
	url  string
	cfg  Config
	mu   sync.Mutex
	srv  *Server
	http *http.Server
	ln   net.Listener
}

func (n *fleetNode) server() *Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// kill closes the listener and the server: the node is gone.
func (n *fleetNode) kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.http != nil {
		n.http.Close()
		n.srv.Close()
		n.http, n.srv = nil, nil
	}
}

// restart rebinds the same address with a fresh Server (empty memory
// cache, like a real restart).
func (n *fleetNode) restart() {
	n.mu.Lock()
	defer n.mu.Unlock()
	ln, err := net.Listen("tcp", strings.TrimPrefix(n.url, "http://"))
	if err != nil {
		n.t.Fatalf("rebind %s: %v", n.url, err)
	}
	srv, err := New(n.cfg)
	if err != nil {
		n.t.Fatal(err)
	}
	n.ln, n.srv = ln, srv
	n.http = &http.Server{Handler: srv}
	go n.http.Serve(ln)
}

// startFleet brings up n nodes that all know each other.
func startFleet(t *testing.T, count int, mut func(i int, cfg *Config)) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, count)
	urls := make([]string, count)
	lns := make([]net.Listener, count)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := range nodes {
		cfg := Config{
			MaxConcurrent: 4,
			Fabric: &fabric.Config{
				Self:           urls[i],
				Peers:          urls,
				Retry:          fabric.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
				Breaker:        fabric.BreakerConfig{FailThreshold: 2, OpenFor: 100 * time.Millisecond},
				HealthInterval: 25 * time.Millisecond,
				HedgeAfter:     -1,
			},
		}
		if mut != nil {
			mut(i, &cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(lns[i])
		nodes[i] = &fleetNode{t: t, url: urls[i], cfg: cfg, srv: srv, http: hs, ln: lns[i]}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.kill()
		}
	})
	return nodes
}

// sourceKey computes the cache key a compile request will map to —
// through the same front every request takes.
func sourceKey(t *testing.T, src string) cache.Key {
	t.Helper()
	j, err := resolveJob(src, "warp", CompileOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j.key
}

// sourceOwnedBy finds a W2 source whose artifact key is owned by the
// given node.  seedBase spaces out call sites so repeated searches in
// one test do not rediscover the same source.
func sourceOwnedBy(t *testing.T, urls []string, owner string, seedBase int64) string {
	t.Helper()
	for seed := seedBase; seed < seedBase+10000; seed++ {
		src := workloads.RandomSource(40_000 + seed)
		if fabric.Owner(urls, sourceKey(t, src)) == owner {
			return src
		}
	}
	t.Fatal("no source found owned by node")
	panic("unreachable")
}

func fleetURLs(nodes []*fleetNode) []string {
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	return urls
}

func waitCond(t *testing.T, desc string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", desc)
}

// TestFleetCompilesEachKeyExactlyOnce: the same source compiled through
// every node must run exactly one compile fleet-wide (owner-side
// singleflight), and every response must carry the identical artifact.
func TestFleetCompilesEachKeyExactlyOnce(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	src := workloads.RandomSource(777)

	shas := map[string]bool{}
	for round := 0; round < 2; round++ {
		for _, n := range nodes {
			var resp CompileResponse
			code, _ := doJSON(t, "POST", n.url+"/compile", CompileRequest{Source: src}, &resp, nil)
			if code != http.StatusOK {
				t.Fatalf("compile via %s: status %d", n.url, code)
			}
			shas[resp.ObjectSHA256] = true
		}
	}
	if len(shas) != 1 {
		t.Fatalf("divergent artifacts across the fleet: %v", shas)
	}
	var computes int64
	for _, n := range nodes {
		computes += n.server().CacheStats().Computes
	}
	if computes != 1 {
		t.Fatalf("fleet ran %d compiles for one key, want exactly 1", computes)
	}
}

// TestFleetOwnerDeathDegradesToLocalCompile: killing a key's owner must
// not surface errors — the forwarding node compiles locally, its breaker
// opens, and after restart the breaker re-closes via health probes.
func TestFleetOwnerDeathDegradesToLocalCompile(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	urls := fleetURLs(nodes)
	ownerIdx := 1
	src := sourceOwnedBy(t, urls, urls[ownerIdx], 0)
	caller := nodes[2]

	nodes[ownerIdx].kill()
	var resp CompileResponse
	code, _ := doJSON(t, "POST", caller.url+"/compile", CompileRequest{Source: src}, &resp, nil)
	if code != http.StatusOK {
		t.Fatalf("compile with dead owner: status %d", code)
	}
	if caller.server().CacheStats().Computes != 1 {
		t.Fatal("caller did not compile locally")
	}
	m := caller.server().metrics()
	if m.FallbackLocal != 1 {
		t.Fatalf("fallback counter = %d, want 1", m.FallbackLocal)
	}

	// The dead peer's breaker opens (request failures + health probes).
	waitCond(t, "breaker open on caller", func() bool {
		for _, p := range caller.server().metrics().Fabric.Peers {
			if p.URL == urls[ownerIdx] {
				return p.Breaker == fabric.BreakerOpen
			}
		}
		return false
	})

	// Restart: health probes act as the half-open probe and re-close.
	nodes[ownerIdx].restart()
	waitCond(t, "breaker closed after restart", func() bool {
		for _, p := range caller.server().metrics().Fabric.Peers {
			if p.URL == urls[ownerIdx] {
				return p.Breaker == fabric.BreakerClosed && p.Healthy
			}
		}
		return false
	})

	// With the owner back, a fresh key owned by it forwards again.
	src2 := sourceOwnedBy(t, urls, urls[ownerIdx], 10000)
	if src2 == src {
		t.Fatal("sourceOwnedBy returned the same source")
	}
	code, _ = doJSON(t, "POST", caller.url+"/compile", CompileRequest{Source: src2}, nil, nil)
	if code != http.StatusOK {
		t.Fatalf("compile after recovery: status %d", code)
	}
	if got := nodes[ownerIdx].server().CacheStats().Computes; got != 1 {
		t.Fatalf("restarted owner computes = %d, want 1 (forwarding resumed)", got)
	}
}

// TestFleetRunByKeyFetchesFromOwner: a node that never saw a key can
// still serve /run by key by GET-fetching the artifact from its owner.
func TestFleetRunByKeyFetchesFromOwner(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	urls := fleetURLs(nodes)
	src := sourceOwnedBy(t, urls, urls[0], 20000)

	// Compile through the owner so only it holds the artifact.
	var comp CompileResponse
	if code, _ := doJSON(t, "POST", urls[0]+"/compile", CompileRequest{Source: src}, &comp, nil); code != http.StatusOK {
		t.Fatalf("owner compile failed: %d", code)
	}
	var run RunResponse
	code, _ := doJSON(t, "POST", urls[2]+"/run", RunRequest{Key: comp.Key}, &run, nil)
	if code != http.StatusOK {
		t.Fatalf("run by key on non-owner: status %d", code)
	}
	if run.Cycles == 0 {
		t.Fatal("run produced no cycles")
	}
	st := nodes[2].server().FabricStats()
	if st == nil || st.KeyFetches != 1 {
		t.Fatalf("fabric key fetches: %+v", st)
	}
}

// TestFleetKeyMismatchRejectedTerminally: the owner recomputes the key
// from the forwarded inputs; a payload that does not hash to the claimed
// key must be refused with 400 — terminally, without compiling anything.
func TestFleetKeyMismatchRejectedTerminally(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	urls := fleetURLs(nodes)
	src := sourceOwnedBy(t, urls, urls[1], 30000)
	canon, _ := canonicalSource(src)
	wrongKey := cache.KeyOf("something else entirely")
	payload := forwardPayload{Canon: canon, Machine: "warp"}
	code, _ := doJSON(t, "POST", urls[1]+"/artifact/"+wrongKey.String(), payload, nil, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("key-mismatch forward: status %d, want 400", code)
	}
	if got := nodes[1].server().CacheStats().Computes; got != 0 {
		t.Fatalf("mismatched forward still compiled: %d", got)
	}
}

// TestForwardCarriesRequestID: the X-Request-ID a client sends must ride
// the forwarded peer request, and error bodies must echo it.
func TestForwardCarriesRequestID(t *testing.T) {
	var forwarded atomic.Value // string
	capture := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if strings.HasPrefix(req.URL.Path, "/artifact/") {
			forwarded.Store(req.Header.Get(fabric.HeaderRequestID))
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	nodes := startFleet(t, 2, func(i int, cfg *Config) {
		cfg.Fabric.Transport = capture
	})
	urls := fleetURLs(nodes)
	src := sourceOwnedBy(t, urls, urls[1], 40000)

	hdr := http.Header{fabric.HeaderRequestID: []string{"trace-me-123"}}
	code, respHdr := doJSON(t, "POST", urls[0]+"/compile", CompileRequest{Source: src}, nil, hdr)
	if code != http.StatusOK {
		t.Fatalf("compile: %d", code)
	}
	if got := respHdr.Get(fabric.HeaderRequestID); got != "trace-me-123" {
		t.Fatalf("response header rid = %q", got)
	}
	if got, _ := forwarded.Load().(string); got != "trace-me-123" {
		t.Fatalf("forwarded peer request rid = %q", got)
	}

	// Errors echo the ID in the body (generated when the client sent none).
	var e errorResponse
	code, _ = doJSON(t, "POST", urls[0]+"/compile", CompileRequest{Source: "program x; begin ; end."}, &e, nil)
	if code == http.StatusOK {
		t.Fatal("bad source compiled")
	}
	if e.RequestID == "" {
		t.Fatalf("error body carries no request_id: %+v", e)
	}
}

// TestDrainDuringInFlightForwardCompletes: flipping a forwarding node to
// draining mid-forward must not abort the in-flight request.
func TestDrainDuringInFlightForwardCompletes(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	urls := fleetURLs(nodes)
	src := sourceOwnedBy(t, urls, urls[1], 50000)
	started := make(chan struct{})
	nodes[1].server().compileHook = func() {
		close(started)
		time.Sleep(300 * time.Millisecond)
	}

	done := make(chan int, 1)
	go func() {
		code, _ := doJSON(t, "POST", urls[0]+"/compile", CompileRequest{Source: src}, nil, nil)
		done <- code
	}()
	<-started
	nodes[0].server().SetDraining(true)
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("in-flight forward during drain: status %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("forward hung through drain")
	}
	// And the drained node reports so on /healthz while the fabric
	// section still shows peer state.
	var h struct {
		Status string        `json:"status"`
		Fabric *fabric.Stats `json:"fabric"`
	}
	code, _ := doJSON(t, "GET", urls[0]+"/healthz", nil, &h, nil)
	if code != http.StatusServiceUnavailable || h.Status != "draining" || h.Fabric == nil {
		t.Fatalf("draining healthz: %d %+v", code, h)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// doJSON is a real-HTTP sibling of the httptest post/get helpers used by
// the single-node tests.
func doJSON(t *testing.T, method, url string, body, out any, hdr http.Header) (int, http.Header) {
	t.Helper()
	var reader io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: undecodable response %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode, resp.Header
}
