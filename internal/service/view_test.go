package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sync"
	"testing"

	"softpipe/internal/workloads"
)

// livermoreSource returns the W2 text of Livermore kernel id.
func livermoreSource(t testing.TB, id int) string {
	t.Helper()
	for _, k := range workloads.Livermore() {
		if k.ID == id {
			return k.Source
		}
	}
	t.Fatalf("no Livermore kernel %d", id)
	return ""
}

// sendRaw posts an encoded body through the handler.  It reports nothing
// itself, so goroutines and benchmarks can use it.
func sendRaw(s *Server, path string, raw []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
	return rec.Code, rec.Body.Bytes()
}

// mustJSON encodes a request struct (strings and numbers: it marshals).
func mustJSON(body any) []byte {
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return raw
}

// rawPost sends a JSON body and returns the status and the raw reply.
func rawPost(s *Server, path string, body any) (int, []byte) {
	return sendRaw(s, path, mustJSON(body))
}

var elapsedLine = regexp.MustCompile(`"(elapsed_ms|batch_runs_per_sec)": [^\n]*\n`)

// stable is a reply body without the fields that time the request.
func stable(body []byte) string { return string(elapsedLine.ReplaceAll(body, nil)) }

func decodes(t *testing.T, s *Server) int64 {
	t.Helper()
	var m Metrics
	if code := get(t, s, "/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	return m.ArtifactDecodes
}

// TestWarmHitParsesNothing pins what a hit costs: the miss that compiled
// the artifact answers from the compile result, every later /compile from
// the entry's view, and the artifact's bytes are parsed once — by the
// first /run — however many requests follow, on either engine.  Every warm
// reply is byte-identical to the one before it.
func TestWarmHitParsesNothing(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{CacheDir: dir})
	src := livermoreSource(t, 7)

	var miss CompileResponse
	code, missBody := rawPost(s, "/compile", CompileRequest{Source: src})
	if code != http.StatusOK || json.Unmarshal(missBody, &miss) != nil || miss.Cached {
		t.Fatalf("miss: status %d cached=%v", code, miss.Cached)
	}
	if n := decodes(t, s); n != 0 {
		t.Fatalf("a local miss answered by /compile parsed its artifact %d times", n)
	}

	want := map[string]string{}
	for i := 0; i < 50; i++ {
		code, body := rawPost(s, "/compile", CompileRequest{Source: src})
		if code != http.StatusOK {
			t.Fatalf("warm compile %d: status %d", i, code)
		}
		if i == 0 {
			var warm CompileResponse
			if err := json.Unmarshal(body, &warm); err != nil || !warm.Cached || warm.ObjectSHA256 != miss.ObjectSHA256 {
				t.Fatalf("warm compile: cached=%v sha %s, miss had %s (%v)", warm.Cached, warm.ObjectSHA256, miss.ObjectSHA256, err)
			}
			// The hit differs from the miss in the cached flag alone.
			if got := stable(bytes.Replace(missBody, []byte(`"cached": false`), []byte(`"cached": true`), 1)); got != stable(body) {
				t.Fatalf("hit body differs from the miss's:\n%s\nvs\n%s", stable(body), got)
			}
			want["compile"] = stable(body)
		} else if stable(body) != want["compile"] {
			t.Fatalf("warm compile %d answered differently:\n%s\nvs\n%s", i, stable(body), want["compile"])
		}
		eng := []string{"interp", "compiled"}[i%2]
		code, body = rawPost(s, "/run", RunRequest{Source: src, Engine: eng})
		if code != http.StatusOK {
			t.Fatalf("run %d on %s: status %d: %s", i, eng, code, body)
		}
		if want[eng] == "" {
			want[eng] = stable(body)
		} else if stable(body) != want[eng] {
			t.Fatalf("run %d on %s answered differently:\n%s\nvs\n%s", i, eng, stable(body), want[eng])
		}
	}
	if n := decodes(t, s); n != 1 {
		t.Fatalf("artifact_decodes = %d after one miss, 50 warm /compile and 50 /run; want 1 (the first run)", n)
	}
	// The engines' replies differ in the engine label alone.
	if a, b := want["interp"], want["compiled"]; regexp.MustCompile(`"engine": "[a-z]+"`).ReplaceAllString(a, "") !=
		regexp.MustCompile(`"engine": "[a-z]+"`).ReplaceAllString(b, "") {
		t.Fatalf("engines answer differently:\n%s\nvs\n%s", a, b)
	}

	// A new daemon over the same disk tier: the bytes come back revalidated
	// and are decoded once for the view, binaries included, so the runs
	// that follow parse nothing.
	s2 := newTestServer(t, Config{CacheDir: dir})
	code, body := rawPost(s2, "/compile", CompileRequest{Source: src})
	if code != http.StatusOK || stable(body) != want["compile"] {
		t.Fatalf("after restart: status %d, body\n%s\nwant\n%s", code, stable(body), want["compile"])
	}
	for _, eng := range []string{"interp", "compiled", "interp"} {
		if code, body := rawPost(s2, "/run", RunRequest{Key: miss.Key, Engine: eng}); code != http.StatusOK || stable(body) != want[eng] {
			t.Fatalf("after restart, run on %s: status %d, body\n%s\nwant\n%s", eng, code, stable(body), want[eng])
		}
	}
	if n := decodes(t, s2); n != 1 {
		t.Fatalf("artifact_decodes = %d after a disk-tier hit and three runs; want 1", n)
	}
	if st := s2.CacheStats(); st.DiskHits != 1 || st.Computes != 0 {
		t.Fatalf("restart stats: %+v", st)
	}
}

// warmCompileAllocsCeiling is twice what a warm /compile of Livermore k7
// allocates through the handler (request and recorder included); before
// entries carried a view the same request made 1,666 allocations.
const warmCompileAllocsCeiling = 2 * 608

func TestWarmCompileAllocs(t *testing.T) {
	s := newTestServer(t, Config{})
	raw := mustJSON(CompileRequest{Source: livermoreSource(t, 7)})
	do := func() {
		if code, _ := sendRaw(s, "/compile", raw); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	do() // the miss
	if got := testing.AllocsPerRun(50, do); got > warmCompileAllocsCeiling {
		t.Fatalf("a warm /compile makes %.0f allocations, ceiling %d", got, warmCompileAllocsCeiling)
	}
}

// TestConcurrentRunsShareOneDecode: concurrent first runs of one entry —
// both engines, a batch and a homogeneous array among them — wait for one
// decode of its bytes and one sim.Program per engine, then share them
// read-only (run under -race in CI).
func TestConcurrentRunsShareOneDecode(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 8, MaxQueue: 256})
	src := livermoreSource(t, 7)
	var miss CompileResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: src}, &miss); code != http.StatusOK {
		t.Fatalf("compile: status %d", code)
	}
	before := decodes(t, s)

	const n = 32
	engines := []string{"interp", "compiled"}
	resps := make([]RunResponse, 2*n+2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	run := func(i int, req RunRequest) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			code, body := rawPost(s, "/run", req)
			if err := json.Unmarshal(body, &resps[i]); err != nil || code != http.StatusOK {
				t.Errorf("run %d: status %d: %v: %s", i, code, err, body)
			}
		}()
	}
	for i := 0; i < 2*n; i++ {
		run(i, RunRequest{Source: src, Engine: engines[i%2]})
	}
	run(2*n, RunRequest{Key: miss.Key, Batch: 3})
	run(2*n+1, RunRequest{Key: miss.Key, Cells: 2})
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	ref := resps[0]
	for i, r := range resps[:2*n] {
		if r.Cycles != ref.Cycles || r.Flops != ref.Flops || fmt.Sprint(r.Scalars) != fmt.Sprint(ref.Scalars) {
			t.Fatalf("run %d (%s): %d cycles %v, run 0 had %d cycles %v", i, r.Engine, r.Cycles, r.Scalars, ref.Cycles, ref.Scalars)
		}
		if r.Engine != engines[i%2] || !r.Cached {
			t.Fatalf("run %d: engine %q cached=%v", i, r.Engine, r.Cached)
		}
	}
	batch := resps[2*n]
	if len(batch.Lanes) != 3 || batch.Cycles != 3*ref.Cycles {
		t.Fatalf("batch: %d lanes, %d cycles, want 3 lanes of %d", len(batch.Lanes), batch.Cycles, ref.Cycles)
	}
	for i, l := range batch.Lanes {
		if l.Error != "" || fmt.Sprint(l.Scalars) != fmt.Sprint(ref.Scalars) {
			t.Fatalf("lane %d: %+v, want scalars %v", i, l, ref.Scalars)
		}
	}
	if arr := resps[2*n+1]; arr.Cycles < ref.Cycles || fmt.Sprint(arr.Scalars) != fmt.Sprint(ref.Scalars) {
		t.Fatalf("array run: %d cycles %v, single cell had %d cycles %v", arr.Cycles, arr.Scalars, ref.Cycles, ref.Scalars)
	}
	if n := decodes(t, s) - before; n != 1 {
		t.Fatalf("artifact_decodes rose by %d over %d concurrent runs of one entry; want 1", n, len(resps))
	}
}

// TestPartitionedRunsShareOneDecode: a partitioned key's cell binaries are
// decoded by its first run and shared by the rest; its key, given to a
// plain /run, is refused instead of running one cell's fragment alone.
func TestPartitionedRunsShareOneDecode(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 4, MaxQueue: 64})
	req := RunRequest{Source: saxpySrc, Cells: 2, Partition: true}
	var cold RunResponse
	if code, _ := post(t, s, "/run", req, &cold); code != http.StatusOK || cold.Cached {
		t.Fatalf("cold partitioned run: status %d cached=%v", code, cold.Cached)
	}
	resps := make([]RunResponse, 8)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := rawPost(s, "/run", req)
			if err := json.Unmarshal(body, &resps[i]); err != nil || code != http.StatusOK {
				t.Errorf("run %d: status %d: %v: %s", i, code, err, body)
			}
		}(i)
	}
	wg.Wait()
	cold.Cached, cold.ElapsedMS = true, 0
	for i, r := range resps {
		r.ElapsedMS = 0
		if fmt.Sprintf("%+v", r) != fmt.Sprintf("%+v", cold) {
			t.Fatalf("warm partitioned run %d:\n%+v\nthe cold run answered\n%+v", i, r, cold)
		}
	}
	if n := decodes(t, s); n != 1 {
		t.Fatalf("artifact_decodes = %d over nine partitioned runs of one key; want 1", n)
	}
	var e errorResponse
	if code, _ := post(t, s, "/run", RunRequest{Key: cold.Key}, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("plain /run of a partitioned key: status %d (%s), want 422", code, e.Error)
	}
}

// TestViewChargeCoversHeap holds the view's charges to the heap they stand
// for: over the Livermore kernels and a dozen seeded sources, what the
// cache is charged for headers, decoded binaries and both engines'
// programs is within a third of what the Go heap grew by.
func TestViewChargeCoversHeap(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var srcs []string
	for _, k := range workloads.Livermore() {
		srcs = append(srcs, k.Source)
	}
	for seed := int64(100); seed < 112; seed++ {
		srcs = append(srcs, workloads.RandomSource(seed))
	}
	s := newTestServer(t, Config{})
	// One request of each kind first, so that what the packages set up on
	// first use is not counted.
	post(t, s, "/run", RunRequest{Source: sumSource, Engine: "compiled"}, nil)
	post(t, s, "/run", RunRequest{Source: sumSource}, nil)

	heap0, bytes0 := heap(), s.CacheStats().Bytes
	for _, src := range srcs {
		for _, eng := range []string{"interp", "compiled"} {
			if code, body := rawPost(s, "/run", RunRequest{Source: src, Engine: eng}); code != http.StatusOK {
				t.Fatalf("run: status %d: %s", code, body)
			}
		}
	}
	grew, charged := heap()-heap0, s.CacheStats().Bytes-bytes0
	t.Logf("%d entries: heap grew %d bytes, cache charged %d (%.2f×)", len(srcs), grew, charged, float64(charged)/float64(grew))
	if 3*charged < 2*grew || 3*charged > 4*grew {
		t.Fatalf("cache charged %d bytes for entries that grew the heap by %d", charged, grew)
	}
	runtime.KeepAlive(s)
}
