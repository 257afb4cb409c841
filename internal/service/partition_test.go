package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

const saxpySrc = `
program saxpy;
const n = 64;
var x, y: array [0..63] of real;
    a: real;
    i: int;
begin
  a := 3.0;
  for i := 0 to n-1 do
    y[i] := y[i] + a * x[i];
end.
`

const decaySrc = `
program decay;
const n = 200;
var x, y: array [0..199] of real;
    s: real;
    i: int;
begin
  s := 0.0;
  for i := 0 to n-1 do begin
    s := s * 0.5 + x[i] * 2.0;
    y[i] := s;
  end;
end.
`

// TestRunPartitioned: partition=true must cut the program across the
// cells, report per-cell II and stall stats, cache the partitioned
// artifact under its own key, and feed the /metrics array aggregates.
func TestRunPartitioned(t *testing.T) {
	s := newTestServer(t, Config{})

	var cold RunResponse
	req := RunRequest{Source: saxpySrc, Cells: 2, Partition: true}
	if code, _ := post(t, s, "/run", req, &cold); code != http.StatusOK {
		t.Fatalf("partitioned run: status %d", code)
	}
	if cold.Cached {
		t.Fatal("cold partitioned run reported cached")
	}
	if len(cold.CellStats) != 2 {
		t.Fatalf("cell stats: %+v", cold.CellStats)
	}
	for _, cs := range cold.CellStats {
		if cs.II <= 0 {
			t.Errorf("cell %d: II=%d", cs.Cell, cs.II)
		}
	}
	if len(cold.CutWidths) != 1 || cold.CutWidths[0] <= 0 {
		t.Errorf("cut widths: %v", cold.CutWidths)
	}

	// Same request again: the partitioned artifact must be a cache hit,
	// and its key must differ from the single-cell artifact's.
	var warm RunResponse
	if code, _ := post(t, s, "/run", req, &warm); code != http.StatusOK {
		t.Fatalf("warm partitioned run: status %d", code)
	}
	if !warm.Cached || warm.Key != cold.Key {
		t.Fatalf("warm run not served from cache: cached=%v key=%s vs %s", warm.Cached, warm.Key, cold.Key)
	}
	var single RunResponse
	if code, _ := post(t, s, "/run", RunRequest{Source: saxpySrc}, &single); code != http.StatusOK {
		t.Fatal("single-cell run failed")
	}
	if single.Key == cold.Key {
		t.Fatal("partitioned artifact shares the single-cell cache key")
	}

	// Both engines must agree on the partitioned run's observable state.
	var comp RunResponse
	req.Engine = "compiled"
	if code, _ := post(t, s, "/run", req, &comp); code != http.StatusOK {
		t.Fatal("compiled partitioned run failed")
	}
	if comp.Cycles != cold.Cycles || comp.Flops != cold.Flops {
		t.Fatalf("engines disagree: interp %d/%d, compiled %d/%d", cold.Cycles, cold.Flops, comp.Cycles, comp.Flops)
	}
	for k, v := range cold.Scalars {
		if comp.Scalars[k] != v {
			t.Fatalf("engines disagree on scalar %s: %v vs %v", k, v, comp.Scalars[k])
		}
	}

	// A recurrence-bound consumer (II 14) behind a load-only producer
	// (II 1): the producer runs ahead, so values wait in the queue.  The
	// saxpy cut no longer queues — both cells issue at II 1 from their
	// first iteration now that no remainder runs unpipelined.
	if code, _ := post(t, s, "/run", RunRequest{Source: decaySrc, Cells: 2, Partition: true}, new(RunResponse)); code != http.StatusOK {
		t.Fatal("queueing partitioned run failed")
	}

	var m Metrics
	if code := get(t, s, "/metrics", &m); code != http.StatusOK {
		t.Fatal("metrics failed")
	}
	if m.Array.Runs != 4 || m.Array.Cells != 8 {
		t.Fatalf("array aggregates: %+v", m.Array)
	}
	if m.Array.MaxInQueue <= 0 {
		t.Fatalf("array max queue occupancy not recorded: %+v", m.Array)
	}
}

// TestRunPartitionedRejects: the request-shape guards.
func TestRunPartitionedRejects(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  RunRequest
		code int
	}{
		{"cells=1", RunRequest{Source: saxpySrc, Cells: 1, Partition: true}, http.StatusBadRequest},
		{"no source", RunRequest{Key: "deadbeef", Cells: 2, Partition: true}, http.StatusBadRequest},
		{"with batch", RunRequest{Source: saxpySrc, Cells: 2, Partition: true, Batch: 4}, http.StatusBadRequest},
		{"bad engine", RunRequest{Source: saxpySrc, Cells: 2, Partition: true, Engine: "quantum"}, http.StatusBadRequest},
		{"unpartitionable shape", RunRequest{Source: sumSource, Cells: 2, Partition: true}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if code, _ := post(t, s, "/run", c.req, nil); code != c.code {
			t.Errorf("%s: status %d, want %d", c.name, code, c.code)
		}
	}
}

// TestRunPartitionedDeadlineStopsPlanner: a request whose context is
// already done is turned away by the planner's split search — 504 with
// the planner's error, not a full plan followed by a cell compile
// noticing — and gives its admission slot back.
func TestRunPartitionedDeadlineStopsPlanner(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	raw, err := json.Marshal(RunRequest{Source: saxpySrc, Cells: 2, Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/run", bytes.NewReader(raw)).WithContext(ctx))
	var resp errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("undecodable response %q: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusGatewayTimeout || !resp.Timeout {
		t.Fatalf("status %d timeout=%v, want 504 (resp %+v)", rec.Code, resp.Timeout, resp)
	}
	if !strings.Contains(resp.Error, "split search aborted") {
		t.Errorf("error %q does not come from the planner", resp.Error)
	}
	if len(s.sem) != 0 || s.inflight.Load() != 0 {
		t.Fatalf("slot not released: %d held, %d in flight", len(s.sem), s.inflight.Load())
	}
	// The slot is usable and the failure was not cached.
	if code, _ := post(t, s, "/run", RunRequest{Source: saxpySrc, Cells: 2, Partition: true}, nil); code != http.StatusOK {
		t.Fatalf("run after the aborted one: status %d", code)
	}
}
