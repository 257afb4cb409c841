package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRequestsRefuseAblationFields: the paper's ablation switches and the
// inner-loop unroll threshold (the source's `unroll` directive asks for
// that per loop) are not request options, so every source-carrying
// endpoint answers one with a 400 that names it, compiles nothing and
// panics nowhere.
func TestRequestsRefuseAblationFields(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, name := range []string{"disable_mve", "disable_hier", "disable_loop_reduction", "binary_search", "policy_lcm", "unroll_inner_trip"} {
		for _, path := range []string{"/compile", "/run", "/sweep"} {
			code, reply := rawPost(s, path, map[string]any{"source": sumSource, "options": map[string]bool{name: true}})
			var e errorResponse
			if err := json.Unmarshal(reply, &e); err != nil {
				t.Fatalf("%s: undecodable reply %q: %v", path, reply, err)
			}
			if code != http.StatusBadRequest || !strings.Contains(e.Error, `"`+name+`"`) {
				t.Errorf("%s with options.%s: %d %q, want 400 naming the field", path, name, code, e.Error)
			}
		}
	}
	var m Metrics
	get(t, s, "/metrics", &m)
	if m.Panics != 0 || s.CacheStats().Computes != 0 {
		t.Errorf("refused requests: %d panics, %d compiles, want 0 and 0", m.Panics, s.CacheStats().Computes)
	}
}

// FuzzRequestFront: the front of every source-carrying request (decodeJSON
// into a CompileRequest, then resolveJob) never panics on arbitrary bytes,
// and every refusal is a structured 400 or 422.  Tier-1 runs the seeds;
//
//	go test -fuzz FuzzRequestFront -fuzztime 60s ./internal/service
//
// explores.
func FuzzRequestFront(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.w2"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no W2 sources to seed from (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		for _, req := range []CompileRequest{
			{Source: string(src), Machine: "wide2"},
			{Source: string(src), Machine: "gen:fa2,fm2,mem2,lat7/7/3,fr62,rot"},
			{Source: string(src), Options: CompileOptions{Effort: "psychic"}},
		} {
			f.Add(mustJSON(req))
		}
		f.Add(mustJSON(map[string]any{"source": string(src), "options": map[string]int{"unroll_inner_trip": 4}}))
		f.Add(mustJSON(map[string]any{"source": string(src), "options": map[string]bool{"disable_mve": true}}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req CompileRequest
		err := decodeJSON(httptest.NewRequest("POST", "/compile", bytes.NewReader(data)), &req, maxRequestBytes)
		if err == nil {
			_, err = resolveJob(req.Source, req.Machine, req.Options, 0)
		}
		var re *requestError
		if err != nil && (!errors.As(err, &re) || re.status != http.StatusBadRequest && re.status != http.StatusUnprocessableEntity) {
			t.Fatalf("unstructured refusal %T: %v", err, err)
		}
	})
}
