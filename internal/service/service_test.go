package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"softpipe/internal/cache"
	"softpipe/internal/sim"
	"softpipe/internal/workloads"
)

const sumSource = `
program sumk;
const n = 32;
var a, b: array [0..31] of real;
    s: real;
    k: int;
begin
  s := 0.0;
  for k := 0 to n-1 do
    a[k] := b[k]*0.5 + 3.0;
  for k := 0 to n-1 do
    s := s + a[k];
end.
`

// heavySource is a many-loop program so a 1ms deadline reliably trips
// the compiler's between-loop and between-candidate-II context checks
// before compilation can finish.
func heavySource() string { return workloads.HeavySource(40) }

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// post sends a JSON body and decodes the JSON response.
func post(t *testing.T, s *Server, path string, body, out any) (code int, hdr http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: undecodable response %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec.Code, rec.Header()
}

func get(t *testing.T, s *Server, path string, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: undecodable response %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// TestCompileReducedLoopEstMFLOPS: an inner loop pipelined through loop
// reduction (the enclosing body overlaps its prolog and epilog) reports
// the same steady-state estimate as one emitted on the spot: 2 flops an
// iteration at II = 1 on the 5 MHz warp cell is 10 MFLOPS, not 0.
func TestCompileReducedLoopEstMFLOPS(t *testing.T) {
	s := newTestServer(t, Config{})
	const nest = `
program nestscale;
var a, c: array [0..11] of array [0..39] of real;
    s: real;
    i, j: int;
begin
  s := 1.5;
  for i := 0 to 11 do
    for j := 0 to 39 do
      c[i][j] := a[i][j]*s + 2.0;
end.
`
	var resp CompileResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: nest}, &resp); code != http.StatusOK {
		t.Fatalf("compile: status %d", code)
	}
	var inner *LoopStats
	for i := range resp.Loops {
		if resp.Loops[i].Pipelined {
			inner = &resp.Loops[i]
		} else if !strings.Contains(resp.Loops[i].Reason, "reduced inner loops") {
			t.Fatalf("outer loop did not go through loop reduction: %+v", resp.Loops[i])
		}
	}
	if inner == nil {
		t.Fatalf("no pipelined loop in %+v", resp.Loops)
	}
	if inner.II != 1 || inner.Flops != 2 || inner.EstMFLOPS != 10 {
		t.Errorf("inner loop II=%d flops=%d est_mflops=%v, want 1, 2, 10", inner.II, inner.Flops, inner.EstMFLOPS)
	}
	// The reply says how the 40 iterations were split, and the split adds up.
	if n := inner.Stages - 1 + int(inner.Passes)*inner.Unroll + int(inner.Tail); inner.Passes == 0 || inner.Flat || n != 40 {
		t.Errorf("inner loop: %d prolog iterations + %d passes × unroll %d + tail %d = %d, want 40 (flat=%v)",
			inner.Stages-1, inner.Passes, inner.Unroll, inner.Tail, n, inner.Flat)
	}
}

func TestCompileColdThenWarm(t *testing.T) {
	s := newTestServer(t, Config{})
	var cold CompileResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: sumSource}, &cold); code != http.StatusOK {
		t.Fatalf("cold compile: status %d", code)
	}
	if cold.Cached {
		t.Fatal("cold compile reported cached")
	}
	if cold.Instrs == 0 || len(cold.Loops) != 2 {
		t.Fatalf("implausible report: instrs=%d loops=%d", cold.Instrs, len(cold.Loops))
	}
	// First loop (the constant fill) should pipeline with sensible stats.
	l0 := cold.Loops[0]
	if !l0.Pipelined || l0.II < l0.MII || l0.Flops == 0 || l0.EstMFLOPS <= 0 {
		t.Fatalf("loop 0 stats implausible: %+v", l0)
	}
	if l0.Explain == "" {
		t.Fatal("explain text missing from compile response")
	}

	// Warm request: must be a hit and bit-identical (same artifact digest).
	var warm CompileResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: sumSource}, &warm); code != http.StatusOK {
		t.Fatalf("warm compile: status %d", code)
	}
	if !warm.Cached {
		t.Fatal("warm compile was not served from cache")
	}
	if warm.ObjectSHA256 != cold.ObjectSHA256 || warm.Key != cold.Key {
		t.Fatalf("warm response differs from cold: %s vs %s", warm.ObjectSHA256, cold.ObjectSHA256)
	}
	// Reformatted source (different whitespace) must map to the same key.
	var reformatted CompileResponse
	noisy := strings.ReplaceAll(sumSource, "\n", "\n  ")
	if code, _ := post(t, s, "/compile", CompileRequest{Source: noisy}, &reformatted); code != http.StatusOK {
		t.Fatal("reformatted compile failed")
	}
	if !reformatted.Cached || reformatted.Key != cold.Key {
		t.Fatal("canonicalization failed: reformatted source missed the cache")
	}
	// Different options must NOT share the artifact.
	var baseline CompileResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: sumSource, Options: CompileOptions{Baseline: true}}, &baseline); code != http.StatusOK {
		t.Fatal("baseline compile failed")
	}
	if baseline.Cached || baseline.Key == cold.Key {
		t.Fatal("options did not partition the key space")
	}
}

func TestConcurrentIdenticalCompileOnce(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 8})
	const n = 16
	var wg sync.WaitGroup
	codes := make([]int, n)
	shas := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp CompileResponse
			codes[i], _ = post(t, s, "/compile", CompileRequest{Source: sumSource}, &resp)
			shas[i] = resp.ObjectSHA256
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if shas[i] != shas[0] {
			t.Fatalf("request %d: divergent artifact digest", i)
		}
	}
	if st := s.CacheStats(); st.Computes != 1 {
		t.Fatalf("%d concurrent identical requests ran %d compiles, want 1", n, st.Computes)
	}
}

func TestCompileDeadlineReturns504(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp errorResponse
	code, _ := post(t, s, "/compile", CompileRequest{Source: heavySource(), TimeoutMS: 1}, &resp)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (resp %+v)", code, resp)
	}
	if !resp.Timeout {
		t.Fatal("timeout flag not set on deadline error")
	}
}

func TestCompileErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	var e errorResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: "program oops; begin x := ; end."}, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("parse error: status %d", code)
	}
	if code, _ := post(t, s, "/compile", CompileRequest{Source: sumSource, Machine: "cray"}, &e); code != http.StatusBadRequest {
		t.Fatalf("unknown machine: status %d", code)
	}
	req := httptest.NewRequest("POST", "/compile", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", rec.Code)
	}
}

// TestCompileBoundsUnrollInnerTrip: full unrolling multiplies the work of
// a compile before any deadline is consulted, and the expansions of a
// nest multiply each other, so a cap on each loop's trip count bounds
// nothing.  A request cannot ask for unrolling (unroll_inner_trip is
// refused, TestRequestsRefuseAblationFields); its source can, and three
// nested 64-trip `unroll` loops — 262,144 copies of the body unbounded —
// compile well inside their deadline, the loops the compiler kept saying
// why.
func TestCompileBoundsUnrollInnerTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp CompileResponse
	start := time.Now()
	if code, _ := post(t, s, "/compile", CompileRequest{Source: deepUnrollSource, TimeoutMS: 5000}, &resp); code != http.StatusOK {
		t.Fatalf("nested unroll directives: status %d after %v", code, time.Since(start))
	}
	kept := 0
	for _, l := range resp.Loops {
		if strings.Contains(l.Explain, "note: unroll directive not honoured: ") {
			kept++
		}
	}
	if len(resp.Loops) != 2 || kept != 2 {
		t.Errorf("want the outer two loops kept, each saying why; got %+v", resp.Loops)
	}
}

// deepUnrollSource asks for 64·64·64 copies of its body.
const deepUnrollSource = `program deep;
var a: array [0..63] of real;
    i, j, k: int;
begin
  unroll for i := 0 to 63 do
    unroll for j := 0 to 63 do
      unroll for k := 0 to 63 do
        a[k] := a[k] + 1.0;
end.
`

func TestCompileTraceOnlyOnActualCompile(t *testing.T) {
	s := newTestServer(t, Config{})
	var cold CompileResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: sumSource, Trace: true}, &cold); code != http.StatusOK {
		t.Fatal("traced compile failed")
	}
	if len(cold.TraceJSON) == 0 {
		t.Fatal("no trace on a traced cold compile")
	}
	var events struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(cold.TraceJSON, &events); err != nil || len(events.TraceEvents) == 0 {
		t.Fatalf("trace is not Chrome trace_event JSON: %v", err)
	}
	var warm CompileResponse
	post(t, s, "/compile", CompileRequest{Source: sumSource, Trace: true}, &warm)
	if len(warm.TraceJSON) != 0 {
		t.Fatal("cache hit fabricated a compile trace")
	}
}

func TestRunBySourceAndByKey(t *testing.T) {
	s := newTestServer(t, Config{})
	var run RunResponse
	if code, _ := post(t, s, "/run", RunRequest{Source: sumSource}, &run); code != http.StatusOK {
		t.Fatalf("run by source: status %d", code)
	}
	if got := run.Scalars["s"]; got != 96 { // 32 × 3.0
		t.Fatalf("s = %v, want 96", got)
	}
	if run.Cycles == 0 || run.Flops == 0 || run.MFLOPS <= 0 {
		t.Fatalf("implausible run stats: %+v", run)
	}
	var byKey RunResponse
	if code, _ := post(t, s, "/run", RunRequest{Key: run.Key}, &byKey); code != http.StatusOK {
		t.Fatalf("run by key: status %d", code)
	}
	if !byKey.Cached || byKey.Scalars["s"] != 96 {
		t.Fatalf("run by key: %+v", byKey)
	}
	var e errorResponse
	if code, _ := post(t, s, "/run", RunRequest{Key: strings.Repeat("ab", 32)}, &e); code != http.StatusNotFound {
		t.Fatalf("unknown key: status %d", code)
	}
	if code, _ := post(t, s, "/run", RunRequest{}, &e); code != http.StatusBadRequest {
		t.Fatalf("empty run request: status %d", code)
	}
}

// TestRunNonFiniteState: a program whose observable state is NaN (0/0 on
// zero-filled inputs, as the Planckian kernel does) must still answer 200
// with decodable JSON — encoding/json rejects raw NaN, which used to turn
// into an empty 200 body.
func TestRunNonFiniteState(t *testing.T) {
	s := newTestServer(t, Config{})
	const nanSource = `
program nanrun;
var x, y: array [0..7] of real;
    s: real;
    k: int;
begin
  for k := 0 to 7 do
    x[k] := x[k] / y[k];
  s := x[0];
end.
`
	var run RunResponse
	code, _ := post(t, s, "/run", RunRequest{Source: nanSource}, &run)
	if code != http.StatusOK {
		t.Fatalf("NaN-state run: status %d", code)
	}
	if v := float64(run.Scalars["s"]); !math.IsNaN(v) {
		t.Fatalf("s = %v, want NaN", v)
	}
}

func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	s.sem <- struct{}{} // occupy the only worker slot

	// First surplus request parks in the bounded queue.
	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	queuedDone := make(chan int, 1)
	go func() {
		req := httptest.NewRequest("POST", "/compile", strings.NewReader("{}")).WithContext(queuedCtx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		queuedDone <- rec.Code
	}()
	for s.queued.Load() != 1 {
		time.Sleep(time.Millisecond)
	}

	// Second surplus request overflows the queue: 429 + Retry-After.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/compile", strings.NewReader("{}")))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// A queued client that gives up gets 503, not a hang.
	cancelQueued()
	if code := <-queuedDone; code != http.StatusServiceUnavailable {
		t.Fatalf("abandoned queued request: status %d, want 503", code)
	}
	<-s.sem

	var m Metrics
	if get(t, s, "/metrics", &m); m.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", m.Rejected)
	}
}

func TestPanicRecovery(t *testing.T) {
	s := newTestServer(t, Config{})
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	if s.panics.Load() != 1 {
		t.Fatal("panic not counted")
	}
	// The daemon still serves.
	if code := get(t, s, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", code)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s := newTestServer(t, Config{})
	var h map[string]any
	if code := get(t, s, "/healthz", &h); code != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, h)
	}
	s.SetDraining(true)
	if code := get(t, s, "/healthz", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", code)
	}
	s.SetDraining(false)
	if code := get(t, s, "/healthz", nil); code != http.StatusOK {
		t.Fatal("drain flag did not clear")
	}
}

func TestMetricsShape(t *testing.T) {
	s := newTestServer(t, Config{})
	var cold CompileResponse
	post(t, s, "/compile", CompileRequest{Source: sumSource}, &cold)
	post(t, s, "/compile", CompileRequest{Source: sumSource}, nil)
	var m Metrics
	if code := get(t, s, "/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Requests.Compile != 2 {
		t.Fatalf("requests.compile = %d", m.Requests.Compile)
	}
	if m.Cache.HitRate != 0.5 || m.Cache.Computes != 1 {
		t.Fatalf("cache metrics %+v", m.Cache)
	}
	if m.Latency.Compile.Count != 2 || m.Latency.Compile.P99MS < m.Latency.Compile.P50MS {
		t.Fatalf("latency digest %+v", m.Latency.Compile)
	}
	if m.UptimeS < 0 || m.InFlight != 0 || m.QueueDepth != 0 {
		t.Fatalf("gauges %+v", m)
	}
	// cache.bytes is the entry's charge, fixed when the miss filled it: the
	// first run builds its program and charges nothing more.
	if m.Cache.Bytes <= 0 || m.Cache.Entries != 1 {
		t.Fatalf("after one miss: cache.bytes=%d entries=%d", m.Cache.Bytes, m.Cache.Entries)
	}
	post(t, s, "/run", RunRequest{Key: cold.Key}, nil)
	var after Metrics
	get(t, s, "/metrics", &after)
	if after.Cache.Bytes != m.Cache.Bytes || after.Cache.Entries != 1 {
		t.Fatalf("after the first run: cache.bytes %d -> %d entries=%d",
			m.Cache.Bytes, after.Cache.Bytes, after.Cache.Entries)
	}
	// The top-level fields, and nothing else.
	var fields map[string]json.RawMessage
	get(t, s, "/metrics", &fields)
	var names []string
	for name := range fields {
		names = append(names, name)
	}
	slices.Sort(names)
	if want := []string{"array", "cache", "errors", "in_flight", "latency_ms", "panics",
		"queue_depth", "rejected", "requests", "uptime_s"}; !slices.Equal(names, want) {
		t.Fatalf("/metrics fields %v, want %v", names, want)
	}
}

// TestArtifactGetIsFetchOnly pins GET /artifact/{key}: the bytes of a
// key /compile returned, hashing to its object_sha256; 404 for a key not
// resident and 400 for one that does not parse; and never a compile.
func TestArtifactGetIsFetchOnly(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp CompileResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: sumSource}, &resp); code != http.StatusOK {
		t.Fatal("compile failed")
	}
	computes := s.CacheStats().Computes
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/artifact/"+resp.Key, nil))
	if sum := sha256.Sum256(rec.Body.Bytes()); rec.Code != http.StatusOK || hex.EncodeToString(sum[:]) != resp.ObjectSHA256 {
		t.Fatalf("GET /artifact: status %d, bytes hash to %x, /compile said %s", rec.Code, sum, resp.ObjectSHA256)
	}
	var miss errorResponse
	if code := get(t, s, "/artifact/"+cache.KeyOf("never compiled").String(), &miss); code != http.StatusNotFound || miss.Error == "" {
		t.Fatalf("unknown key: status %d %+v", code, miss)
	}
	if code := get(t, s, "/artifact/not-a-key", &miss); code != http.StatusBadRequest {
		t.Fatalf("malformed key: status %d", code)
	}
	if got := s.CacheStats().Computes; got != computes {
		t.Fatalf("GET /artifact compiled: computes %d -> %d", computes, got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 1; i <= 100; i++ {
		h.observe(time.Duration(i) * time.Millisecond)
	}
	s := h.summary()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// Log buckets guarantee ~±50% (growth 1.5) bounds, not exactness.
	check := func(name string, got, want float64) {
		if got < want/1.6 || got > want*1.6 {
			t.Fatalf("%s = %.2fms, want ≈ %.0fms", name, got, want)
		}
	}
	check("p50", s.P50MS, 50)
	check("p95", s.P95MS, 95)
	check("p99", s.P99MS, 99)
	if s.MaxMS < 99 || s.MeanMS < 45 || s.MeanMS > 56 {
		t.Fatalf("max=%.2f mean=%.2f", s.MaxMS, s.MeanMS)
	}
}

// TestRunMatchesStepOnly: /run, which takes the fast path, must answer with
// the cycles, flops and scalar state of the step-only reference run of
// the same artifact (Livermore k7, whose kernel the fast path engages).
func TestRunMatchesStepOnly(t *testing.T) {
	s := newTestServer(t, Config{})
	var fast RunResponse
	if code, _ := post(t, s, "/run", RunRequest{Source: livermoreSource(t, 7)}, &fast); code != http.StatusOK {
		t.Fatalf("run: status %d", code)
	}
	e := resident(t, s, fast.Key)
	if p, err := e.program(); err != nil || p.Blocks() == 0 {
		t.Fatalf("no fast-path block to compare (%v)", err)
	}
	st, ref, err := sim.Run(e.bins[0], e.m)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cycles != ref.Cycles || fast.Flops != ref.Flops || len(fast.Scalars) != len(st.Scalars) {
		t.Fatalf("fast path diverges: %d cycles/%d flops/%d scalars, step-only %d/%d/%d",
			fast.Cycles, fast.Flops, len(fast.Scalars), ref.Cycles, ref.Flops, len(st.Scalars))
	}
	for k, v := range st.Scalars {
		if fast.Scalars[k] != JSONFloat(v) {
			t.Fatalf("scalar %s: fast path %v, step-only %v", k, fast.Scalars[k], v)
		}
	}
}

// TestRunBatch: batch mode runs N independent lanes over one compiled
// artifact and reports per-lane state plus aggregate throughput.
func TestRunBatch(t *testing.T) {
	s := newTestServer(t, Config{})
	var ref RunResponse
	if code, _ := post(t, s, "/run", RunRequest{Source: sumSource}, &ref); code != http.StatusOK {
		t.Fatalf("reference run: status %d", code)
	}
	var batch RunResponse
	if code, _ := post(t, s, "/run", RunRequest{Source: sumSource, Batch: 4}, &batch); code != http.StatusOK {
		t.Fatalf("batch run: status %d", code)
	}
	if len(batch.Lanes) != 4 {
		t.Fatalf("batch shape: lanes=%d", len(batch.Lanes))
	}
	for i, lane := range batch.Lanes {
		if lane.Error != "" {
			t.Fatalf("lane %d errored: %s", i, lane.Error)
		}
		if lane.Cycles != ref.Cycles || lane.Scalars["s"] != ref.Scalars["s"] {
			t.Fatalf("lane %d diverges from single run: %d cycles s=%v (want %d, s=%v)",
				i, lane.Cycles, lane.Scalars["s"], ref.Cycles, ref.Scalars["s"])
		}
	}
	if batch.Cycles != 4*ref.Cycles || batch.Flops != 4*ref.Flops {
		t.Fatalf("batch totals: %d cycles/%d flops, want 4×(%d/%d)",
			batch.Cycles, batch.Flops, ref.Cycles, ref.Flops)
	}
	if batch.BatchRunsPerSec <= 0 {
		t.Fatalf("batch_runs_per_sec = %v, want > 0", batch.BatchRunsPerSec)
	}
	var e errorResponse
	if code, _ := post(t, s, "/run", RunRequest{Source: sumSource, Batch: 2, Cells: 4}, &e); code != http.StatusBadRequest {
		t.Fatalf("batch with cells: status %d", code)
	}
}

// TestCompileEffortSharesCache: the request's effort is accepted and
// ignored.  "exact" and "heuristic" hit the default's cache entry, and the
// default reports which loops it proved optimal.
func TestCompileEffortSharesCache(t *testing.T) {
	s := newTestServer(t, Config{})
	var heur, exact, canon CompileResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: sumSource}, &heur); code != http.StatusOK {
		t.Fatalf("default compile: status %d", code)
	}
	if code, _ := post(t, s, "/compile", CompileRequest{Source: sumSource,
		Options: CompileOptions{Effort: "exact"}}, &exact); code != http.StatusOK {
		t.Fatalf("exact compile: status %d", code)
	}
	if !exact.Cached || exact.Key != heur.Key {
		t.Fatal("effort \"exact\" missed the default's cache entry")
	}
	var proved bool
	for _, l := range heur.Loops {
		proved = proved || l.Pipelined && l.Proved
	}
	if !proved {
		t.Fatal("the default proved no loop optimal")
	}
	// "heuristic" is the default spelled out: same cache entry.
	if code, _ := post(t, s, "/compile", CompileRequest{Source: sumSource,
		Options: CompileOptions{Effort: "heuristic"}}, &canon); code != http.StatusOK {
		t.Fatalf("canonical compile: status %d", code)
	}
	if !canon.Cached || canon.Key != heur.Key {
		t.Fatal("explicit heuristic effort missed the default's cache entry")
	}
	// Unknown efforts are a client error, rejected before keying.
	if code, _ := post(t, s, "/compile", CompileRequest{Source: sumSource,
		Options: CompileOptions{Effort: "maximal"}}, nil); code != http.StatusBadRequest {
		t.Fatal("invalid effort accepted")
	}
}
