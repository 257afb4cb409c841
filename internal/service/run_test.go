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

// TestRunFaultAnswers422: a run the simulator stops on a fault answers
// 422 with the simulator's text: here saxpy stores y[i+100] into its
// 200-word y.
func TestRunFaultAnswers422(t *testing.T) {
	const oob = `
program saxpy;
const n = 200;
var x, y: array [0..199] of real;
    a: real;
    i: int;
begin
  a := 3.0;
  for i := 0 to n-1 do
    y[i+100] := y[i] + a * x[i];
end.
`
	s := newTestServer(t, Config{})
	var e errorResponse
	if code, _ := post(t, s, "/run", RunRequest{Source: oob}, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%+v)", code, e)
	}
	if !strings.HasPrefix(e.Error, "sim: ") || !strings.Contains(e.Error, "y[200] out of bounds (size 200)") || e.Timeout {
		t.Fatalf("error %+v, want the simulator's out-of-bounds text", e)
	}
}

// TestRunDeadlineAnswers504: a run whose deadline ends mid-simulation
// answers 504 with the timeout flag.  The program is compiled first with
// no deadline and run by key, so only the simulator sees the deadline.
// Its 10,000,000 inner iterations take at least as many cycles, 2 s at
// Warp's 5 MHz: 2,000 times the 1 ms deadline.
func TestRunDeadlineAnswers504(t *testing.T) {
	const spin = `
program spin;
var x: array [0..999] of real;
    s: real;
    i, j: int;
begin
  s := 0.0;
  for j := 0 to 9999 do
    for i := 0 to 999 do
      s := s + x[i];
end.
`
	s := newTestServer(t, Config{})
	var c CompileResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: spin}, &c); code != http.StatusOK {
		t.Fatalf("compile: status %d", code)
	}
	var e errorResponse
	if code, _ := post(t, s, "/run", RunRequest{Key: c.Key, TimeoutMS: 1}, &e); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%+v)", code, e)
	}
	if !e.Timeout || !strings.Contains(e.Error, "sim: run aborted at cycle") {
		t.Fatalf("error %+v, want the simulator's deadline abort", e)
	}
}
