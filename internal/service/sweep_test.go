package service

import (
	"net/http"
	"testing"

	"softpipe/internal/machine"
)

// TestSweepEndpoint compiles one program across an explicit grid and
// checks the per-cell stats and the cache partitioning contract: every
// cell is an ordinary /compile artifact, so a later /compile on one of
// the grid points must hit the entry the sweep filled.
func TestSweepEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	req := SweepRequest{
		Source:   sumSource,
		Machines: []string{"warp", "gen:fa2,fm2,mem2", "gen:fa2,fm2,mem2,rot"},
	}
	var resp SweepResponse
	if code, _ := post(t, s, "/sweep", req, &resp); code != http.StatusOK {
		t.Fatalf("sweep: status %d", code)
	}
	if len(resp.Machines) != 3 {
		t.Fatalf("got %d cells, want 3", len(resp.Machines))
	}
	fps := map[string]bool{}
	for _, c := range resp.Machines {
		if c.Error != "" {
			t.Fatalf("%s: unexpected cell error: %s", c.Machine, c.Error)
		}
		if c.Key == "" || c.Fingerprint == "" || c.Instrs == 0 || len(c.Loops) != 2 {
			t.Fatalf("%s: implausible cell %+v", c.Machine, c)
		}
		if c.Cached {
			t.Fatalf("%s: cold sweep cell reported cached", c.Machine)
		}
		if fps[c.Fingerprint] {
			t.Fatalf("%s: fingerprint shared with another grid point", c.Machine)
		}
		fps[c.Fingerprint] = true
	}
	// Cells echo the canonical spelling of the requested grid point.
	if resp.Machines[2].Machine != "gen:fa2,fm2,mem2,lat7/7/3,fr62,rot" || !resp.Machines[2].Rotating {
		t.Fatalf("rotating grid point mislabeled: %+v", resp.Machines[2])
	}
	if resp.Machines[1].Rotating {
		t.Fatal("non-rotating grid point labeled rotating")
	}

	// The sweep filled the same cache /compile reads: a direct compile on
	// a grid point is a warm hit with the sweep's key.
	var warm CompileResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: sumSource, Machine: "gen:fa2,fm2,mem2"}, &warm); code != http.StatusOK {
		t.Fatal("grid-point compile failed")
	}
	if !warm.Cached || warm.Key != resp.Machines[1].Key {
		t.Fatalf("grid-point compile missed the sweep's artifact: cached=%v key=%s want %s",
			warm.Cached, warm.Key, resp.Machines[1].Key)
	}
	// And the whole sweep re-served warm.
	var again SweepResponse
	if code, _ := post(t, s, "/sweep", req, &again); code != http.StatusOK {
		t.Fatal("warm sweep failed")
	}
	for _, c := range again.Machines {
		if !c.Cached {
			t.Fatalf("%s: warm sweep cell not served from cache", c.Machine)
		}
	}
}

// TestSweepDefaultGrid: an empty machine list sweeps machine.DefaultGrid.
func TestSweepDefaultGrid(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp SweepResponse
	if code, _ := post(t, s, "/sweep", SweepRequest{Source: sumSource}, &resp); code != http.StatusOK {
		t.Fatal("default-grid sweep failed")
	}
	grid := machine.DefaultGrid()
	if len(resp.Machines) != len(grid) {
		t.Fatalf("got %d cells, want the %d-point default grid", len(resp.Machines), len(grid))
	}
	for i, c := range resp.Machines {
		if c.Machine != grid[i].Name() {
			t.Fatalf("cell %d is %s, want %s", i, c.Machine, grid[i].Name())
		}
		if c.Error != "" {
			t.Fatalf("%s: %s", c.Machine, c.Error)
		}
	}
}

// TestSweepRejections: request-level poison is rejected up front, before
// any cell compiles.
func TestSweepRejections(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  SweepRequest
		want int
	}{
		{"unknown machine", SweepRequest{Source: sumSource, Machines: []string{"warp", "hypercube"}}, http.StatusBadRequest},
		{"bad source", SweepRequest{Source: "program ("}, http.StatusUnprocessableEntity},
		{"bad options", SweepRequest{Source: sumSource, Options: CompileOptions{Effort: "psychic"}}, http.StatusBadRequest},
		{"oversize grid", SweepRequest{Source: sumSource, Machines: make([]string, maxSweepMachines+1)}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		for i := range tc.req.Machines {
			if tc.req.Machines[i] == "" {
				tc.req.Machines[i] = "warp"
			}
		}
		if code, _ := post(t, s, "/sweep", tc.req, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
}

// TestCompileGenMachine: the /compile surface accepts the generator
// grammar through the unified parser and echoes the canonical name.
func TestCompileGenMachine(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp CompileResponse
	if code, _ := post(t, s, "/compile", CompileRequest{Source: sumSource, Machine: "gen:fa2,fm2,mem2,rot"}, &resp); code != http.StatusOK {
		t.Fatalf("gen compile: status %d", code)
	}
	if resp.Machine != "gen:fa2,fm2,mem2,lat7/7/3,fr62,rot" {
		t.Fatalf("canonical machine name: got %q", resp.Machine)
	}
	for _, l := range resp.Loops {
		if l.Pipelined && l.Unroll > 1 {
			t.Fatalf("loop %d: unroll %d on a rotating machine", l.LoopID, l.Unroll)
		}
	}
}
