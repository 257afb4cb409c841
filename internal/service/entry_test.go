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
	"sync/atomic"
	"testing"

	"softpipe/internal/cache"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/vliw"
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

// countPrograms counts the sim.Programs entries build for the rest of the
// test.
func countPrograms(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	decodeProgram = func(p *vliw.Program, m *machine.Machine) (*sim.Program, error) {
		n.Add(1)
		return sim.Decode(p, m)
	}
	t.Cleanup(func() { decodeProgram = sim.Decode })
	return &n
}

// resident returns the entry the cache holds for a key a reply named.
func resident(t *testing.T, s *Server, key string) *entry {
	t.Helper()
	k, err := cache.ParseKey(key)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s.cache.Get(k)
	if !ok {
		t.Fatalf("key %s not resident", key)
	}
	return v.(*entry)
}

// TestWarmHitParsesNothing pins what a hit costs: the miss that compiled
// the entry answers from the compile result, every later /compile from
// the entry, nothing is parsed, and one sim.Program is built — by the
// first /run — however many requests follow.  Every warm reply is
// byte-identical to the one before it.
func TestWarmHitParsesNothing(t *testing.T) {
	s := newTestServer(t, Config{})
	src := livermoreSource(t, 7)
	programs := countPrograms(t)

	var miss CompileResponse
	code, missBody := rawPost(s, "/compile", CompileRequest{Source: src})
	if code != http.StatusOK || json.Unmarshal(missBody, &miss) != nil || miss.Cached {
		t.Fatalf("miss: status %d cached=%v", code, miss.Cached)
	}
	if n := programs.Load(); n != 0 {
		t.Fatalf("a miss answered by /compile built %d sim.Programs", n)
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
		code, body = rawPost(s, "/run", RunRequest{Source: src})
		if code != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, code, body)
		}
		if want["run"] == "" {
			want["run"] = stable(body)
		} else if stable(body) != want["run"] {
			t.Fatalf("run %d answered differently:\n%s\nvs\n%s", i, stable(body), want["run"])
		}
	}
	if n := programs.Load(); n != 1 {
		t.Fatalf("%d sim.Programs built after one miss, 50 warm /compile and 50 /run; want 1 (the first run)", n)
	}
}

// warmCompileAllocsCeiling is twice what a warm /compile of Livermore k7
// allocates through the handler (request and recorder included); when a
// hit parsed the cached JSON the same request made 1,666 allocations.
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
// a batch and a homogeneous array among them — wait for one sim.Program,
// then share it read-only (run under -race in CI).
func TestConcurrentRunsShareOneDecode(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 8, MaxQueue: 256})
	src := livermoreSource(t, 7)
	var miss CompileResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: src}, &miss); code != http.StatusOK {
		t.Fatalf("compile: status %d", code)
	}
	programs := countPrograms(t)

	const n = 32
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
		run(i, RunRequest{Source: src})
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
			t.Fatalf("run %d: %d cycles %v, run 0 had %d cycles %v", i, r.Cycles, r.Scalars, ref.Cycles, ref.Scalars)
		}
		if !r.Cached {
			t.Fatalf("run %d: not cached", i)
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
	if n := programs.Load(); n != 1 {
		t.Fatalf("%d concurrent runs of one entry built %d sim.Programs; want 1", len(resps), n)
	}
	if e := resident(t, s, miss.Key); e.prog == nil {
		t.Fatal("the entry does not hold the program its runs built")
	}
}

// TestPartitionedRunsShareOneDecode: every run of a partitioned key steps
// the cell binaries its compile made, shared read-only, and none builds a
// single-cell sim.Program; its key, given to a plain /run, is refused
// instead of running one cell's fragment alone.
func TestPartitionedRunsShareOneDecode(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 4, MaxQueue: 64})
	programs := countPrograms(t)
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
	if n := programs.Load(); n != 0 {
		t.Fatalf("nine partitioned runs of one key built %d sim.Programs; want 0", n)
	}
	if e := resident(t, s, cold.Key); e.cells != 2 || len(e.bins) != 2 || e.prog != nil {
		t.Fatalf("partitioned entry: cells=%d binaries=%d program=%v", e.cells, len(e.bins), e.prog != nil)
	}
	var e errorResponse
	if code, _ := post(t, s, "/run", RunRequest{Key: cold.Key}, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("plain /run of a partitioned key: status %d (%s), want 422", code, e.Error)
	}
}

// TestRunDecodesOneProgram: /run by one key with engine interp, with
// compiled and with no engine builds one sim.Program for the entry, all
// three replies are the same, and the runs charge the cache nothing: the
// program was charged when the entry was filled.
func TestRunDecodesOneProgram(t *testing.T) {
	s := newTestServer(t, Config{})
	programs := countPrograms(t)
	var miss CompileResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: livermoreSource(t, 7)}, &miss); code != http.StatusOK {
		t.Fatalf("compile: status %d", code)
	}
	bytes0 := s.CacheStats().Bytes
	var want string
	for _, eng := range []string{"interp", "compiled", ""} {
		code, body := rawPost(s, "/run", RunRequest{Key: miss.Key, Engine: eng})
		if code != http.StatusOK {
			t.Fatalf("run with engine %q: status %d: %s", eng, code, body)
		}
		if want == "" {
			want = stable(body)
		} else if stable(body) != want {
			t.Fatalf("run with engine %q answered differently:\n%s\nvs\n%s", eng, stable(body), want)
		}
	}
	if n := programs.Load(); n != 1 {
		t.Fatalf("three runs of one key built %d sim.Programs; want 1", n)
	}
	if grew := s.CacheStats().Bytes - bytes0; grew != 0 {
		t.Fatalf("three runs of one key grew the cache's charge by %d bytes; want 0", grew)
	}
}

// TestViewChargeCoversHeap holds entries' charges to the heap they stand
// for: over the Livermore kernels and a dozen seeded sources, each run
// once, what the cache is charged for headers, binaries and programs is
// within a third of what the Go heap grew by.
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
	post(t, s, "/run", RunRequest{Source: sumSource}, nil)

	heap0, bytes0 := heap(), s.CacheStats().Bytes
	for _, src := range srcs {
		if code, body := rawPost(s, "/run", RunRequest{Source: src}); code != http.StatusOK {
			t.Fatalf("run: status %d: %s", code, body)
		}
	}
	grew, charged := heap()-heap0, s.CacheStats().Bytes-bytes0
	t.Logf("%d entries: heap grew %d bytes, cache charged %d (%.2f×)", len(srcs), grew, charged, float64(charged)/float64(grew))
	if 3*charged < 2*grew || 3*charged > 4*grew {
		t.Fatalf("cache charged %d bytes for entries that grew the heap by %d", charged, grew)
	}
	runtime.KeepAlive(s)
}
