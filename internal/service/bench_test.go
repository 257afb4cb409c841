package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// The handler-level cost of a request, without sockets: one command
// (`go test -run '^$' -bench . ./internal/service`) for the numbers the
// serve-mixed workload of benchmark/ measures end to end.  Each benchmark
// runs Livermore k7 (a large artifact) and saxpy (a small one).

var benchSources = []struct {
	name string
	src  func(testing.TB) string
}{
	{"k7", func(t testing.TB) string { return livermoreSource(t, 7) }},
	{"saxpy", func(testing.TB) string { return saxpySrc }},
}

// serve sends one prepared request through the handler.
func serve(b *testing.B, s *Server, path string, body []byte) {
	if code, reply := sendRaw(s, path, body); code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, code, reply)
	}
}

func newBenchServer(b *testing.B) *Server {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkWarmCompile: /compile of a source whose artifact is resident.
func BenchmarkWarmCompile(b *testing.B) {
	for _, bs := range benchSources {
		b.Run(bs.name, func(b *testing.B) {
			s := newBenchServer(b)
			body := mustJSON(CompileRequest{Source: bs.src(b)})
			serve(b, s, "/compile", body) // the miss
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(b, s, "/compile", body)
			}
		})
	}
}

// BenchmarkWarmRun: /run of a resident artifact that has run before.
func BenchmarkWarmRun(b *testing.B) {
	for _, bs := range benchSources {
		b.Run(bs.name, func(b *testing.B) {
			s := newBenchServer(b)
			body := mustJSON(RunRequest{Source: bs.src(b)})
			serve(b, s, "/run", body) // the miss and the first run
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(b, s, "/run", body)
			}
		})
	}
}

// BenchmarkColdCompile: /compile of a source the daemon has not seen (the
// program is renamed for every request, which changes its canonical text
// and so its key).
func BenchmarkColdCompile(b *testing.B) {
	for _, bs := range benchSources {
		b.Run(bs.name, func(b *testing.B) {
			s := newBenchServer(b)
			bodies := make([][]byte, b.N)
			for i := range bodies {
				src := strings.Replace(bs.src(b), "program ", fmt.Sprintf("program n%d", i), 1)
				bodies[i] = mustJSON(CompileRequest{Source: src})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(b, s, "/compile", bodies[i])
			}
			b.StopTimer()
			if st := s.CacheStats(); st.Computes != int64(b.N) {
				b.Fatalf("%d compiles for %d requests", st.Computes, b.N)
			}
		})
	}
}
