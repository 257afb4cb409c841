package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"softpipe/internal/cache"
	"softpipe/internal/fabric"
)

// forwardPayload is the body of a peer POST /artifact/{key}: everything
// the owning node needs to reproduce the compile, already canonicalized,
// so the owner recomputes the key and refuses mismatches instead of
// trusting the path.
type forwardPayload struct {
	Canon   string         `json:"canon"`
	Machine string         `json:"machine"`
	Options CompileOptions `json:"options"`
}

// fillArtifact is the shared leader path for a local cache miss: consult
// the fabric (forward to the key's owner) when another node owns the
// key, and degrade to a local compile when the owner is unreachable.
// The owner answering that the compile itself fails is terminal — a
// local retry would fail identically, so the error is surfaced as-is.
func (s *Server) fillArtifact(ctx context.Context, j *job, compile func() ([]byte, error)) (data []byte, computed bool, err error) {
	key := j.key
	if s.fabric != nil && !s.fabric.Owns(key) {
		payload, merr := json.Marshal(forwardPayload{Canon: j.canon, Machine: j.m.Name, Options: j.wire})
		if merr == nil {
			data, ferr := s.fabric.Forward(ctx, key, payload)
			switch {
			case ferr == nil:
				return data, false, nil
			case fabric.IsTerminal(ferr):
				return nil, false, decodePeerError(ferr)
			case ctx.Err() != nil:
				return nil, false, ctx.Err()
			}
			// Owner unreachable: the fleet degrades to independent
			// single-node caches rather than to errors.
			s.fallbacks.Add(1)
			s.logf("fabric rid=%s: owner %s unreachable for %s, compiling locally: %v",
				fabric.RequestIDFrom(ctx), s.fabric.OwnerOf(key), key.String()[:12], ferr)
		}
	}
	data, err = compile()
	return data, true, err
}

// decodePeerError maps an owner's terminal answer back onto the same
// requestError shape a local compile failure would have produced, so
// clients cannot tell (and need not care) which node ran the compile.
func decodePeerError(err error) error {
	te, ok := err.(*fabric.TerminalError)
	if !ok {
		return err
	}
	var body errorResponse
	if json.Unmarshal([]byte(te.Body), &body) == nil && body.Error != "" {
		return &requestError{te.Status, fmt.Errorf("%s", body.Error)}
	}
	return &requestError{te.Status, te}
}

// handleArtifactPost is the owner side of a forward: recompute the key
// from the payload, refuse mismatches, then compile-or-get through the
// same cache (and singleflight) as local traffic — which is what makes
// a fleet-wide stampede on one key compile exactly once.  The response
// body is the raw artifact bytes.
func (s *Server) handleArtifactPost(w http.ResponseWriter, r *http.Request) {
	key, err := cache.ParseKey(r.PathValue("key"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var p forwardPayload
	if err := decodeJSON(r, &p, maxRequestBytes); err != nil {
		s.writeRequestError(w, err)
		return
	}
	m, err := resolveMachine(p.Machine)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	j, err := newJob(p.Canon, m, p.Options, 0)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	if j.key != key {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("key mismatch: body hashes to %s, path says %s (divergent builds in the fleet?)", j.key.String()[:12], key.String()[:12]))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	// Owners never re-forward: they compile.  A request can cross the
	// fleet at most once by construction.
	v, hit, err := s.fillLocal(ctx, j)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	s.writeArtifact(w, v.data, hit)
}

// handleArtifactGet is the fetch-only peer path (run-by-key): cached
// bytes or 404, never a compile.
func (s *Server) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	key, err := cache.ParseKey(r.PathValue("key"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	data, ok := s.cache.Get(key)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("no cached artifact for key %s", key))
		return
	}
	s.writeArtifact(w, data, true)
}

func (s *Server) writeArtifact(w http.ResponseWriter, data []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(fabric.HeaderCompiled, map[bool]string{true: "0", false: "1"}[hit])
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// FabricStats exposes the fabric snapshot (nil when not in a fleet).
func (s *Server) FabricStats() *fabric.Stats {
	if s.fabric == nil {
		return nil
	}
	st := s.fabric.Snapshot()
	return &st
}
