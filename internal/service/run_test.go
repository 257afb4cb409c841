package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestRunBoundsCells and TestRunBoundsBatch: cells and batch size
// allocations straight from the request body, so one past the limit must
// be a 400 that names the limit — on every path that would allocate —
// not an array of the client's choosing.  One past (not 1e9) keeps a
// regression a failed assertion instead of an out-of-memory kill.
func TestRunBoundsCells(t *testing.T) {
	over := maxRunCells + 1
	checkRunRejected(t, fmt.Sprint(maxRunCells), map[string]RunRequest{
		"plain":     {Source: sumSource, Cells: over},
		"batch":     {Source: sumSource, Cells: over, Batch: 2},
		"partition": {Source: saxpySrc, Cells: over, Partition: true},
	})
}

func TestRunBoundsBatch(t *testing.T) {
	over := maxRunBatch + 1
	checkRunRejected(t, fmt.Sprint(maxRunBatch), map[string]RunRequest{
		"batch":        {Source: sumSource, Batch: over},
		"batch_inputs": {Source: sumSource, BatchInputs: make([][]float64, over)},
		"partition":    {Source: saxpySrc, Cells: 2, Partition: true, Batch: over},
	})
}

// checkRunRejected posts each request to a fresh server and requires a
// 400 whose message contains `mention`, with nothing compiled.
func checkRunRejected(t *testing.T, mention string, reqs map[string]RunRequest) {
	t.Helper()
	for name, req := range reqs {
		s := newTestServer(t, Config{})
		var e errorResponse
		if code, _ := post(t, s, "/run", req, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		} else if !strings.Contains(e.Error, mention) {
			t.Errorf("%s: error %q does not mention %s", name, e.Error, mention)
		}
		if got := s.CacheStats().Computes; got != 0 {
			t.Errorf("%s: rejected request still compiled (%d computes)", name, got)
		}
	}
}

// TestRunValidatesBeforeCompile: a request that is malformed on its face
// must be turned away before its source is compiled — fresh source, too
// many cells (or batch on an array) answers 400 and /metrics
// cache.computes does not move.
func TestRunValidatesBeforeCompile(t *testing.T) {
	s := newTestServer(t, Config{})
	for name, req := range map[string]RunRequest{
		"too many cells":   {Source: sumSource, Cells: maxRunCells + 1},
		"batch with cells": {Source: sumSource, Batch: 2, Cells: 4},
	} {
		if code, _ := post(t, s, "/run", req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		var m Metrics
		if code := get(t, s, "/metrics", &m); code != http.StatusOK {
			t.Fatalf("/metrics: status %d", code)
		}
		if m.Cache.Computes != 0 {
			t.Errorf("%s: the 400 cost %d compile(s)", name, m.Cache.Computes)
		}
	}
	// The same source, well-formed, does compile: the zero above was not
	// a counter that never moves.
	if code, _ := post(t, s, "/run", RunRequest{Source: sumSource}, nil); code != http.StatusOK {
		t.Fatalf("well-formed run: status %d", code)
	}
	if got := s.CacheStats().Computes; got != 1 {
		t.Fatalf("well-formed run: %d computes, want 1", got)
	}
}
