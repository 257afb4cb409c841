package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"softpipe/internal/machine"
)

// maxSweepMachines bounds one sweep request's grid: a sweep is one
// admission-control slot, so its cost must stay proportionate to a
// single compile times a small constant.
const maxSweepMachines = 64

// SweepRequest is the body of POST /sweep: one program compiled across
// a grid of machines.  Each (source, machine) cell goes through the
// same content-addressed cache as /compile — the machine fingerprint is
// part of the key, so the grid partitions the cache per machine and a
// later sweep (or a plain /compile on one of the grid points) hits the
// artifacts this sweep filled.
type SweepRequest struct {
	// Source is W2 program text, canonicalized before keying exactly as
	// in /compile.
	Source string `json:"source"`
	// Machines lists grid-point names in the machine.Parse grammar
	// (warp, scalar, wideN, gen:...).  Empty means the default
	// generator grid (machine.DefaultGrid), which pairs every
	// configuration with its rotating-register-file twin.
	Machines []string       `json:"machines,omitempty"`
	Options  CompileOptions `json:"options,omitempty"`
	// TimeoutMS bounds the whole sweep; the deadline is threaded
	// through every cell's II search.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepCell is one machine's compile outcome within a sweep.  A cell
// that cannot compile on its machine (schedule infeasible, register
// file too small, ...) reports Error instead of failing the whole
// sweep; only malformed requests (bad source, unknown machine name,
// invalid options) reject the request outright.
type SweepCell struct {
	// Machine is the canonical machine name; Fingerprint is the cache
	// partition the cell's artifact lives in.
	Machine     string `json:"machine"`
	Fingerprint string `json:"machine_fp"`
	Rotating    bool   `json:"rotating,omitempty"`
	// Key/Cached/Instrs/FRegs/IRegs/Loops mirror CompileResponse.
	Key    string      `json:"key,omitempty"`
	Cached bool        `json:"cached,omitempty"`
	Instrs int         `json:"instrs,omitempty"`
	FRegs  int         `json:"fregs,omitempty"`
	IRegs  int         `json:"iregs,omitempty"`
	Loops  []LoopStats `json:"loops,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// SweepResponse is the body of a successful POST /sweep.
type SweepResponse struct {
	Machines  []SweepCell `json:"machines"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req SweepRequest
	if err := decodeJSON(r, &req, maxRequestBytes); err != nil {
		s.writeRequestError(w, err)
		return
	}
	names := req.Machines
	if len(names) == 0 {
		for _, g := range machine.DefaultGrid() {
			names = append(names, g.Name())
		}
	}
	if len(names) > maxSweepMachines {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("sweep of %d machines exceeds the limit of %d", len(names), maxSweepMachines))
		return
	}
	// Reject whole-request poison before compiling anything: an unknown
	// machine name anywhere in the grid, unparseable source, or invalid
	// options would fail every cell identically, so they are client
	// errors, not a sweep of failures.
	ms := make([]*machine.Machine, len(names))
	for i, n := range names {
		m, err := resolveMachine(n)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		ms[i] = m
	}
	canon, err := canonicalSource(req.Source)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	jobs := make([]*job, len(ms))
	for i, m := range ms {
		if jobs[i], err = newJob(canon, m, req.Options, 0); err != nil {
			s.writeRequestError(w, err)
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()

	resp := SweepResponse{Machines: make([]SweepCell, len(ms))}
	for i, m := range ms {
		cell := SweepCell{
			Machine:     m.Name,
			Fingerprint: m.Fingerprint(),
			Rotating:    m.RotatingRegs,
		}
		e, hit, err := s.compileCached(ctx, jobs[i], nil)
		switch {
		case err == nil:
			cell.Key = jobs[i].key.String()
			cell.Cached = hit
			cell.Instrs = len(e.bins[0].Instrs)
			cell.FRegs = e.fregs
			cell.IRegs = e.iregs
			cell.Loops = e.loops
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			// The sweep's deadline blew: the cells already compiled are
			// not worth a 504-with-body protocol of their own, and the
			// client's retry hits their cache entries anyway.
			s.writeRequestError(w, err)
			return
		default:
			// Per-machine infeasibility is a sweep result, not a failure.
			cell.Error = err.Error()
		}
		resp.Machines[i] = cell
	}
	resp.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1e3
	s.reply(w, http.StatusOK, resp)
}
