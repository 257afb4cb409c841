package service

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// TestObjectDigestPinned pins the wire form of three cache entries: the
// object_sha256 /compile replies, and the digest of what GET
// /artifact/{key} serves, which must be the same.  The values were
// recorded when entries were stored as their JSON; an entry that now
// holds the compiled object must marshal to exactly those bytes.
func TestObjectDigestPinned(t *testing.T) {
	saxpy, err := os.ReadFile("../../testdata/saxpy.w2")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	served := func(key string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/artifact/"+key, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /artifact/%s: status %d", key, rec.Code)
		}
		sum := sha256.Sum256(rec.Body.Bytes())
		return hex.EncodeToString(sum[:])
	}

	for _, c := range []struct {
		name string
		req  CompileRequest
		want string
	}{
		{"saxpy/warp", CompileRequest{Source: string(saxpy)}, "e8180d074a34ff4159cd6865b0c506f222d537031cb642903dd75dbc8e58c173"},
		{"k7/exact", CompileRequest{Source: livermoreSource(t, 7), Options: CompileOptions{Effort: "exact"}}, "05fd967f1941d922d94090caf69c6eeee5677e7faadf9040c98e4821104b1e18"},
	} {
		var resp CompileResponse
		if code, _ := post(t, s, "/compile", c.req, &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", c.name, code)
		}
		if resp.ObjectSHA256 != c.want {
			t.Errorf("%s: object_sha256 %s, pinned %s", c.name, resp.ObjectSHA256, c.want)
		}
		if got := served(resp.Key); got != c.want {
			t.Errorf("%s: GET /artifact hashes to %s, pinned %s", c.name, got, c.want)
		}
	}

	// A partitioned entry is reached through /run; its digest is read off
	// the bytes GET /artifact serves.
	var run RunResponse
	if code, _ := post(t, s, "/run", RunRequest{Source: string(saxpy), Cells: 2, Partition: true}, &run); code != http.StatusOK {
		t.Fatalf("partitioned run: status %d", code)
	}
	if got, want := served(run.Key), "73fdf2cced286bb9bb2cb377cbe13d8694a07fa4527ffa0022ad620dac0f4411"; got != want {
		t.Errorf("saxpy/cells=2: GET /artifact hashes to %s, pinned %s", got, want)
	}
}
