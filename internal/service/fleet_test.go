package service

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// fleetCorpus is a small mixed corpus: three Livermore kernels, one
// systolic cell program and four seeded random sources.
func fleetCorpus() []string {
	ks := workloads.Livermore()
	srcs := []string{ks[0].Source, ks[1].Source, ks[2].Source, workloads.SystolicMatmulSource(4, 2)}
	for seed := int64(777); seed < 781; seed++ {
		srcs = append(srcs, workloads.RandomSource(seed))
	}
	return srcs
}

// peerView is the caller's /metrics row for one peer.
func peerView(caller *fleetNode, peerURL string) fabric.PeerStatus {
	for _, p := range caller.server().metrics().Fabric.Peers {
		if p.URL == peerURL {
			return p
		}
	}
	return fabric.PeerStatus{}
}

// TestFleetCompilesEachKeyExactlyOnce: every source of a mixed corpus
// compiled through every node, twice, must run exactly one compile per
// key fleet-wide (owner-side singleflight), every response for a key
// must carry the identical artifact, and the second round must be served
// from cache on whichever node it enters.
func TestFleetCompilesEachKeyExactlyOnce(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	corpus := fleetCorpus()

	shaOf := map[string]string{} // key → artifact digest
	for round := 0; round < 2; round++ {
		for i, src := range corpus {
			for _, n := range nodes {
				var resp CompileResponse
				code, _ := doJSON(t, "POST", n.url+"/compile", CompileRequest{Source: src}, &resp, nil)
				if code != http.StatusOK {
					t.Fatalf("round %d: compile of source %d via %s: status %d", round, i, n.url, code)
				}
				if prev, seen := shaOf[resp.Key]; seen && prev != resp.ObjectSHA256 {
					t.Fatalf("divergent artifacts across the fleet for key %s: %s vs %s", resp.Key, prev, resp.ObjectSHA256)
				}
				shaOf[resp.Key] = resp.ObjectSHA256
				if round == 1 && !resp.Cached {
					t.Fatalf("warm round: source %d via %s missed the fleet cache", i, n.url)
				}
			}
		}
	}
	if len(shaOf) != len(corpus) {
		t.Fatalf("%d sources mapped to %d keys", len(corpus), len(shaOf))
	}
	var computes, forwardHits int64
	for _, n := range nodes {
		computes += n.server().CacheStats().Computes
		forwardHits += n.server().FabricStats().ForwardHits
	}
	if computes != int64(len(shaOf)) {
		t.Fatalf("fleet ran %d compiles for %d unique keys, want exactly one each", computes, len(shaOf))
	}
	if forwardHits == 0 {
		t.Fatal("fabric never forwarded — nodes not sharded?")
	}
}

// TestFleetOwnerDeathDegradesToLocalCompile: killing a key's owner —
// mid-compile, with requests for that key in flight against a survivor —
// must not surface errors: the forwarding node compiles locally, its
// breaker opens, and after restart the breaker re-closes via health
// probes.
func TestFleetOwnerDeathDegradesToLocalCompile(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	urls := fleetURLs(nodes)
	ownerIdx := 1
	src := sourceOwnedBy(t, urls, urls[ownerIdx], 0)
	caller := nodes[2]

	// Hold the owner inside the compile the survivor forwarded to it, so
	// the kill lands while all eight requests are in flight.
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	nodes[ownerIdx].server().compileHook = func() {
		once.Do(func() { close(started) })
		<-release
	}
	body, err := json.Marshal(CompileRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(caller.url+"/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	<-started
	nodes[ownerIdx].kill()
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d in flight across the owner's death: %v", i, err)
		}
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
		return peerView(caller, urls[ownerIdx]).Breaker == fabric.BreakerOpen
	})

	// Restart: health probes act as the half-open probe and re-close.
	nodes[ownerIdx].restart()
	waitCond(t, "breaker closed after restart", func() bool {
		p := peerView(caller, urls[ownerIdx])
		return p.Breaker == fabric.BreakerClosed && p.Healthy
	})

	// With the owner back, a fresh key owned by it forwards again.
	src2 := sourceOwnedBy(t, urls, urls[ownerIdx], 10000)
	if src2 == src {
		t.Fatal("sourceOwnedBy returned the same source")
	}
	code, _ := doJSON(t, "POST", caller.url+"/compile", CompileRequest{Source: src2}, nil, nil)
	if code != http.StatusOK {
		t.Fatalf("compile after recovery: status %d", code)
	}
	if got := nodes[ownerIdx].server().CacheStats().Computes; got != 1 {
		t.Fatalf("restarted owner computes = %d, want 1 (forwarding resumed)", got)
	}
}

// TestFleetPartitionDegradesThenHeals: an application-level partition —
// one host's /artifact/ traffic fails while its /healthz still answers —
// must degrade fresh keys that host owns to local compiles, never to
// errors, and forwarding must resume once the partition heals.
func TestFleetPartitionDegradesThenHeals(t *testing.T) {
	var cutHost atomic.Value // host:port whose artifact traffic fails; "" = healed
	cutHost.Store("")
	partition := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if h := cutHost.Load().(string); h != "" && req.URL.Host == h && strings.HasPrefix(req.URL.Path, "/artifact/") {
			return nil, fmt.Errorf("injected partition: connect refused to %s", h)
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	nodes := startFleet(t, 3, func(i int, cfg *Config) { cfg.Fabric.Transport = partition })
	urls := fleetURLs(nodes)
	victim := nodes[2]
	cutHost.Store(strings.TrimPrefix(victim.url, "http://"))

	seen := map[string]bool{}
	fresh := func(seedBase int64) string {
		src := sourceOwnedBy(t, urls, victim.url, seedBase)
		if seen[src] {
			t.Fatal("sourceOwnedBy returned the same source twice")
		}
		seen[src] = true
		return src
	}
	for i := 0; i < 4; i++ {
		caller := nodes[i%2]
		code, _ := doJSON(t, "POST", caller.url+"/compile", CompileRequest{Source: fresh(60000 + 1000*int64(i))}, nil, nil)
		if code != http.StatusOK {
			t.Fatalf("partitioned compile %d via %s: status %d", i, caller.url, code)
		}
	}
	var fallbacks int64
	for _, caller := range nodes[:2] {
		fallbacks += caller.server().metrics().FallbackLocal
		if !peerView(caller, victim.url).Healthy {
			t.Fatalf("%s sees the partitioned host as unhealthy; its /healthz should still answer", caller.url)
		}
	}
	if fallbacks == 0 {
		t.Fatal("partition never exercised the local-compile fallback")
	}
	if got := victim.server().CacheStats().Computes; got != 0 {
		t.Fatalf("partitioned host compiled %d keys; its artifact traffic should not have arrived", got)
	}

	// Heal: health probes re-close whatever the failed forwards opened,
	// and the next fresh key is compiled by its owner again.
	cutHost.Store("")
	caller := nodes[0]
	waitCond(t, "breaker closed after heal", func() bool {
		return peerView(caller, victim.url).Breaker == fabric.BreakerClosed
	})
	before := caller.server().FabricStats().ForwardHits
	code, _ := doJSON(t, "POST", caller.url+"/compile", CompileRequest{Source: fresh(70000)}, nil, nil)
	if code != http.StatusOK {
		t.Fatalf("compile after heal: status %d", code)
	}
	if got := victim.server().CacheStats().Computes; got != 1 {
		t.Fatalf("healed owner computes = %d, want 1 (forwarding resumed)", got)
	}
	if after := caller.server().FabricStats().ForwardHits; after != before+1 {
		t.Fatalf("forward_hits %d → %d after heal, want one more", before, after)
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
