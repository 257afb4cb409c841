package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"softpipe/internal/cache"
	"softpipe/internal/service"
	"softpipe/internal/workloads"
)

// Frozen serve-mixed sizes (scale 1).
const (
	hotRandomSources = 12   // seeded hot sources beside the 20 paper sources
	requestsPerPass  = 1600 // split evenly between the two clients
	warmShare        = 0.60 // /compile of a hot source: cache, canonicaliser and JSON only
	coldShare        = 0.15 // /compile of a never-seen source: the compiler, through admission and singleflight
	// the remaining quarter is /run of a hot source, engines alternating
	clients = 2
	// cacheBytes bounds the daemon's cache so that a run reaches the
	// steady state of a long-lived daemon — cold artifacts evicted, the hot
	// set resident — within its first seconds; with the 256 MiB default
	// memory would grow with every request a run gets through.
	cacheBytes = 24 << 20
)

type reqKind int

const (
	kindWarm reqKind = iota
	kindCold
	kindRun
	numKinds
)

var kindSpan = [numKinds]string{"http.compile_warm", "http.compile_cold", "http.run"}

// hotSource is one member of the hot set with what its first (missing)
// compile answered, against which every later answer is held.
type hotSource struct {
	name   string
	src    string
	fixed  bool
	key    string
	sha    string
	instrs int
	// cycles is what /run answered first; 0 until then.
	cycles int64
}

type request struct {
	kind   reqKind
	hot    int // index into the hot set (warm, run)
	engine string
	path   string
	body   []byte
}

// outcome is what a client reports for one request.
type outcome struct {
	start time.Time
	dur   time.Duration
	bytes int
	err   error
}

// serveWL is serve-mixed: an in-process compile daemon behind real
// loopback sockets, loaded closed-loop by two clients on two keep-alive
// connections — clients of a compile daemon wait for their reply.
type serveWL struct {
	srv   *service.Server
	ts    *httptest.Server
	conns [clients]*http.Client
	hot   []*hotSource
	slots []request
	rng   *rand.Rand
	cold  int64 // next never-seen source
	// lat holds per-kind latencies (ms) of the timed section; base is
	// /metrics as the warm-up pass left it.
	lat       [numKinds][]float64
	base      *service.Metrics
	respBytes int64
	requests  int64
	mu        sync.Mutex // guards the hot set's first-answer fields during a pass
}

func (w *serveWL) setup(seed int64, scale float64) error {
	srv, err := service.New(service.Config{CacheBytes: cacheBytes})
	if err != nil {
		return err
	}
	w.srv = srv
	w.ts = httptest.NewServer(srv)
	for i := range w.conns {
		w.conns[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	w.rng = rand.New(rand.NewSource(seed))
	// Cold sources come from a seed range the hot draws cannot reach.
	w.cold = 1<<41 + seed<<20

	paper := paperSources(nil)
	for _, u := range paper[:scaled(len(paper), scale)] {
		w.hot = append(w.hot, &hotSource{name: u.name, src: u.src, fixed: true})
	}
	for _, s := range drawPairs(sourcePool[:2*hotRandomSources], w.rng, scale) {
		w.hot = append(w.hot, &hotSource{name: fmt.Sprintf("source%d", s), src: workloads.RandomSource(s)})
	}
	// Pre-fill: the first compile of every hot source is the miss whose
	// artifact every later hit must reproduce.
	for _, h := range w.hot {
		var resp service.CompileResponse
		if _, err := w.post(w.conns[0], "/compile", mustJSON(service.CompileRequest{Source: h.src}), &resp); err != nil {
			return fmt.Errorf("pre-fill %s: %w", h.name, err)
		}
		h.key, h.sha, h.instrs = resp.Key, resp.ObjectSHA256, resp.Instrs
	}
	w.plan(scaled(requestsPerPass, scale))
	return nil
}

func (w *serveWL) close() {
	if w.ts != nil {
		for _, c := range w.conns {
			c.CloseIdleConnections()
		}
		w.ts.Close()
		w.srv.Close()
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs of strings and numbers always marshal
	}
	return b
}

// post sends one request and decodes a 200 reply into out; any other
// status (a 429 included) is an error.
func (w *serveWL) post(c *http.Client, path string, body []byte, out any) (int, error) {
	resp, err := c.Post(w.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(data), fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, data)
	}
	return len(data), json.Unmarshal(data, out)
}

// plan draws the pass's request slots once: the three kinds in their
// exact shares, in seeded order, over seeded hot sources.  Every pass
// sends the same slots; only the cold sources are new each time.
func (w *serveWL) plan(n int) {
	nWarm, nCold := int(float64(n)*warmShare), int(float64(n)*coldShare)
	w.slots = make([]request, n)
	for i := range w.slots {
		q := &w.slots[i]
		switch {
		case i < nWarm:
			*q = request{kind: kindWarm, hot: w.rng.Intn(len(w.hot)), path: "/compile"}
			q.body = mustJSON(service.CompileRequest{Source: w.hot[q.hot].src})
		case i < nWarm+nCold:
			*q = request{kind: kindCold, path: "/compile"}
		default:
			*q = request{kind: kindRun, hot: w.rng.Intn(len(w.hot)), path: "/run", engine: []string{"interp", "compiled"}[i%2]}
			q.body = mustJSON(service.RunRequest{Source: w.hot[q.hot].src, Engine: q.engine})
		}
	}
	w.rng.Shuffle(n, func(i, j int) { w.slots[i], w.slots[j] = w.slots[j], w.slots[i] })
}

func (w *serveWL) pass(r *run, tr *tracer) {
	reqs := w.slots
	for i := range reqs {
		if reqs[i].kind == kindCold {
			reqs[i].body = mustJSON(service.CompileRequest{Source: workloads.RandomSource(w.cold)})
			w.cold++
		}
	}
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += clients {
				outs[i] = w.do(w.conns[c], &reqs[i])
			}
		}(c)
	}
	wg.Wait()
	for i, o := range outs {
		r.observe(o.dur, o.err)
		if w.base != nil {
			k := reqs[i].kind
			w.lat[k] = append(w.lat[k], float64(o.dur)/1e6)
			w.respBytes += int64(o.bytes)
			w.requests++
		}
		tr.add(kindSpan[reqs[i].kind], o.start, o.dur, int32(i%clients))
	}
	if w.base == nil {
		w.base = w.metrics()
	}
}

// do sends one request, times it from send to decoded reply, and checks
// the reply.
func (w *serveWL) do(c *http.Client, q *request) outcome {
	o := outcome{start: time.Now()}
	switch q.kind {
	case kindRun:
		var resp service.RunResponse
		o.bytes, o.err = w.post(c, q.path, q.body, &resp)
		o.dur = time.Since(o.start)
		if o.err == nil {
			o.err = w.checkRun(w.hot[q.hot], q.engine, &resp)
		}
	default:
		var resp service.CompileResponse
		o.bytes, o.err = w.post(c, q.path, q.body, &resp)
		o.dur = time.Since(o.start)
		if o.err == nil {
			o.err = w.checkCompile(q, &resp)
		}
	}
	return o
}

func (w *serveWL) checkCompile(q *request, resp *service.CompileResponse) error {
	if q.kind == kindCold {
		if resp.Cached {
			return fmt.Errorf("never-seen source answered from the cache (key %s)", resp.Key)
		}
		return nil
	}
	h := w.hot[q.hot]
	if !resp.Cached {
		return fmt.Errorf("%s: hot source missed the cache", h.name)
	}
	if resp.ObjectSHA256 != h.sha {
		return fmt.Errorf("%s: object_sha256 of a hit differs from the miss that filled it", h.name)
	}
	return nil
}

func (w *serveWL) checkRun(h *hotSource, engine string, resp *service.RunResponse) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if h.cycles == 0 {
		h.cycles = resp.Cycles
	}
	if resp.Cycles != h.cycles {
		return fmt.Errorf("%s: /run on %s answered %d cycles, an earlier run %d", h.name, engine, resp.Cycles, h.cycles)
	}
	return nil
}

func (w *serveWL) metrics() *service.Metrics {
	resp, err := w.conns[0].Get(w.ts.URL + "/metrics")
	if err != nil {
		return &service.Metrics{}
	}
	defer resp.Body.Close()
	var m service.Metrics
	_ = json.NewDecoder(resp.Body).Decode(&m) // a torn reply reads as zero counters, which the error counters then expose
	return &m
}

func (w *serveWL) check(r *run) (cycles, words, seeded int64) {
	m := w.metrics()
	r.violation(m.Panics == 0, "server recovered %d panics", m.Panics)
	for _, h := range w.hot {
		// Every hot source is run once more on each engine, so the totals
		// cover the whole set whatever the request draw reached.
		for _, eng := range []string{"interp", "compiled"} {
			var resp service.RunResponse
			_, err := w.post(w.conns[0], "/run", mustJSON(service.RunRequest{Key: h.key, Engine: eng}), &resp)
			if err == nil {
				err = w.checkRun(h, eng, &resp)
			}
			r.violation(err == nil, "%s: %v", h.name, err)
		}
		if h.fixed {
			cycles += h.cycles
			words += int64(h.instrs)
		} else {
			seeded += h.cycles
		}
	}
	return
}

// clientLatencies reports the client-side latency of each request kind
// over every request of the timed section.
func (w *serveWL) clientLatencies(add func(name, unit string, v float64, samples int)) {
	for k := range w.lat {
		sort.Float64s(w.lat[k])
	}
	add("serve_cold_p50_ms", "ms", quantile(w.lat[kindCold], 0.50), len(w.lat[kindCold]))
	add("serve_warm_p50_ms", "ms", quantile(w.lat[kindWarm], 0.50), len(w.lat[kindWarm]))
	if len(w.lat[kindWarm]) >= 1000 {
		add("serve_warm_p99_ms", "ms", quantile(w.lat[kindWarm], 0.99), len(w.lat[kindWarm]))
	}
	add("serve_run_p50_ms", "ms", quantile(w.lat[kindRun], 0.50), len(w.lat[kindRun]))
}

func (w *serveWL) layers(tr *tracer, out map[string]float64) {
	w.clientLatencies(func(name, _ string, v float64, _ int) {
		out["service."+strings.TrimPrefix(name, "serve_")] = v
	})

	m := w.metrics()
	hits, misses := m.Cache.Hits-w.base.Cache.Hits, m.Cache.Misses-w.base.Cache.Misses
	out["cache.hit_share"] = float64(hits) / float64(hits+misses)
	out["cache.computes"] = float64(m.Cache.Computes - w.base.Cache.Computes)
	out["cache.coalesced"] = float64(m.Cache.Coalesced - w.base.Cache.Coalesced)
	out["cache.evictions"] = float64(m.Cache.Evictions - w.base.Cache.Evictions)
	out["cache.bytes"] = float64(m.Cache.Bytes)
	out["service.server_compile_p50_ms"] = m.Latency.Compile.P50MS
	out["service.server_run_p50_ms"] = m.Latency.Run.P50MS
	out["service.rejected_429"] = float64(m.Rejected - w.base.Rejected)
	out["service.errors"] = float64(m.Errors - w.base.Errors)
	out["service.panics"] = float64(m.Panics)
	out["service.resp_bytes_per_req"] = float64(w.respBytes) / float64(w.requests)
	out["service.rps"] = float64(w.requests) / (m.UptimeS - w.base.UptimeS)

	// The HTTP floor: a round trip that does no work.
	var floor []float64
	for i := 0; i < 400; i++ {
		t0 := time.Now()
		resp, err := w.conns[0].Get(w.ts.URL + "/healthz")
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		floor = append(floor, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	out["service.http_floor_us"] = median(floor)

	// What a hit costs without HTTP: the canonicaliser on the hot
	// sources, and GetOrFill hits on a stand-alone cache holding
	// artifacts of the hot set's sizes.
	var srcs []string
	for _, h := range w.hot {
		srcs = append(srcs, h.src)
	}
	out["lang.canon_us_per_src"] = canonMicros(srcs)
	out["cache.get_hit_us"] = w.cacheHitMicros()
	out["service.warm_overhead_us"] = out["service.warm_p50_ms"]*1e3 - out["service.http_floor_us"] - out["lang.canon_us_per_src"] - out["cache.get_hit_us"]
}

func (w *serveWL) cacheHitMicros() float64 {
	c, err := cache.New(cache.Config{})
	if err != nil {
		return 0
	}
	var keys []cache.Key
	for _, h := range w.hot {
		resp, err := w.conns[0].Get(w.ts.URL + "/artifact/" + h.key)
		if err != nil {
			continue
		}
		data, _ := io.ReadAll(resp.Body) // a short read only shrinks the stand-in artifact
		resp.Body.Close()
		k := cache.KeyOf(h.key)
		c.Put(k, data)
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return 0
	}
	const reps = 2000
	fill := func() ([]byte, bool, error) { return nil, false, fmt.Errorf("unexpected miss") }
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		_, _, _ = c.GetOrFill(context.Background(), keys[i%len(keys)], fill) // every key was just Put
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / reps
}
