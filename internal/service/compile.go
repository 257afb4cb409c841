package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"softpipe"
	"softpipe/internal/cache"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/vliw"
)

const maxRequestBytes = 4 << 20

// CompileOptions is the wire form of the request-visible subset of
// softpipe.Options — JSON field names and nothing else.  The service
// reads it in exactly one place, resolve; the cache key, the compiler
// call and the sweep grid all work from the resolved softpipe.Options.
// The source asks for full unrolling per loop (`unroll`); it is keyed there.
type CompileOptions struct {
	Baseline bool `json:"baseline,omitempty"`
	// Verify runs the independent object-code verifier as part of the
	// compile; a verified artifact is cached like any other.
	Verify bool `json:"verify,omitempty"`
	// Effort is accepted ("", "heuristic", "exact"; else 400) and keyed,
	// but selects nothing (softpipe.Options.Effort) until ROADMAP item 3.
	Effort string `json:"effort,omitempty"`
}

// resolve turns the wire options into the compiler's, rejecting values
// that have no canonical form.  Ctx and Tracer are per request and set
// by the caller that compiles.
func (o CompileOptions) resolve() (softpipe.Options, error) {
	eff, err := softpipe.ParseEffort(o.Effort)
	if err != nil {
		return softpipe.Options{}, err
	}
	return softpipe.Options{
		Baseline:      o.Baseline,
		VerifyEmitted: o.Verify,
		Effort:        eff,
	}, nil
}

// optionsKey renders resolved options as a stable string for cache
// keying.  Field order is fixed; adding a field here is a
// cache-invalidating change by construction (v1 → v2 added effort).
// Rendering the resolved form is what makes "" and "heuristic" share an
// artifact.  Every softpipe.Options field is either rendered here or on
// the exempt list of TestOptionsKeyCoversOptions, with the reason.
func optionsKey(o softpipe.Options) string {
	b := func(v bool) byte {
		if v {
			return '1'
		}
		return '0'
	}
	return fmt.Sprintf("v2:base=%c;verify=%c;effort=%s",
		b(o.Baseline), b(o.VerifyEmitted), o.Effort)
}

// CompileRequest is the body of POST /compile.
type CompileRequest struct {
	// Source is W2 program text.  It is canonicalized (parse +
	// pretty-print) before keying, so formatting differences do not
	// fragment the cache.
	Source string `json:"source"`
	// Machine names the target: "warp" (default), "scalar", "wideN"
	// (e.g. "wide4"), or a generator point "gen:..." (e.g.
	// "gen:fa2,fm2,mem2,rot") — the machine.Parse grammar.
	Machine string         `json:"machine,omitempty"`
	Options CompileOptions `json:"options,omitempty"`
	// TimeoutMS bounds the compile; the deadline is threaded through the
	// II search, so a blown deadline returns 504 instead of hanging.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace requests the compile-phase Chrome trace (trace_event JSON) in
	// the response.  Traces are per-request and never cached, so a cache
	// hit returns no trace.
	Trace bool `json:"trace,omitempty"`
}

// LoopStats is the per-loop slice of the compile report the service
// returns, including the steady-state rate estimate the paper's tables
// are built from.
type LoopStats struct {
	LoopID    int    `json:"loop_id"`
	TripCount int64  `json:"trip_count"`
	Pipelined bool   `json:"pipelined"`
	Reason    string `json:"reason,omitempty"`
	MII       int    `json:"mii"`
	ResMII    int    `json:"res_mii"`
	RecMII    int    `json:"rec_mii"`
	II        int    `json:"ii"`
	MetLower  bool   `json:"met_lower"`
	// Proved reports that II is optimal (every smaller interval refuted)
	// and FellBack that the search ran out of its node budget and kept
	// the heuristic schedule.
	Proved   bool `json:"proved,omitempty"`
	FellBack bool `json:"fell_back,omitempty"`
	Unroll   int  `json:"unroll,omitempty"`
	Stages   int  `json:"stages,omitempty"`
	// Passes, Tail and Flat say how a pipelined loop's compile-time trip
	// count was split: Stages-1 iterations start in the prolog, Unroll in
	// each of Passes kernel passes and Tail in the epilog; a Flat loop was
	// too short for a kernel pass and has no kernel.
	Passes int64 `json:"passes,omitempty"`
	Tail   int64 `json:"tail,omitempty"`
	Flat   bool  `json:"flat,omitempty"`
	// Hoisted counts the arm-private operations lifted out of the loop's
	// reduced conditionals (0 when the whole-arm form was kept; Explain
	// says why).
	Hoisted int `json:"hoisted,omitempty"`
	// Rotated counts the setup operations of an outer body that run one
	// iteration early, in the previous iteration's inner-loop epilog.
	Rotated int `json:"rotated,omitempty"`
	Flops   int `json:"flops"`
	// EstMFLOPS is the steady-state kernel rate Flops·ClockMHz/II; zero
	// for unpipelined loops.
	EstMFLOPS float64 `json:"est_mflops"`
	// Explain is the loop's explain report (schedule.Explain.Format): for
	// each candidate interval below the accepted one, which operation and
	// which resource or dependence edge killed it, or why the loop is not
	// pipelined.
	Explain string `json:"explain,omitempty"`
}

// CompileResponse is the body of a successful POST /compile.
type CompileResponse struct {
	// Key is the content address of the artifact (hex SHA-256); POST /run
	// accepts it in place of source.
	Key string `json:"key"`
	// Cached reports whether this request was served without running the
	// compiler (a cache hit, or coalesced onto a concurrent identical
	// compile).
	Cached bool `json:"cached"`
	// ObjectSHA256 is the digest of the artifact's wire form, the bytes
	// GET /artifact/{key} serves — cold and warm responses for the same
	// key carry the same digest, which the load harness asserts.
	ObjectSHA256 string      `json:"object_sha256"`
	Machine      string      `json:"machine"`
	Instrs       int         `json:"instrs"`
	FRegs        int         `json:"fregs"`
	IRegs        int         `json:"iregs"`
	Loops        []LoopStats `json:"loops"`
	ElapsedMS    float64     `json:"elapsed_ms"`
	// TraceJSON is the Chrome trace of this compile when Trace was set
	// and the request actually compiled.
	TraceJSON json.RawMessage `json:"trace,omitempty"`
}

// artifact is the wire form of a single-cell entry (entry.wire): what GET
// /artifact/{key} serves and object_sha256 names, as deterministic JSON
// (encoding/json sorts map keys, so vliw.Program's init maps serialize
// stably and every marshal of one entry is the same bytes).
type artifact struct {
	// MachineName and MachineFP name the target this artifact was
	// compiled for; the fingerprint puts the machine model into the bytes
	// and so into object_sha256.
	MachineName string      `json:"machine"`
	MachineFP   string      `json:"machine_fp"`
	Binary      any         `json:"binary"` // a vliw.Program's Wire
	FRegs       int         `json:"fregs"`
	IRegs       int         `json:"iregs"`
	Loops       []LoopStats `json:"loops"`
}

// resolveMachine maps a request's machine name to a model through the
// single parser (machine.Parse); m.Name is the canonical name, so
// equivalent spellings of a gen: point share one artifact name.
func resolveMachine(name string) (*machine.Machine, error) {
	if name == "" {
		name = "warp"
	}
	return machine.Parse(name)
}

// canonicalSource parses and pretty-prints W2 text, so the cache key
// depends on program structure, not whitespace.  A parse error is the
// client's: 422.
func canonicalSource(src string) (string, error) {
	ast, err := lang.Parse(src)
	if err != nil {
		return "", &requestError{http.StatusUnprocessableEntity, err}
	}
	return lang.Format(ast), nil
}

// job is one compile, resolved and keyed: what every path that fills the
// cache (/compile, /run, /sweep) works from.
type job struct {
	canon string
	m     *machine.Machine
	// opts is what the request's options resolved to, and what the key is
	// computed from.
	opts softpipe.Options
	// cells > 0 marks a partitioned compile across that many cells.
	cells int
	key   cache.Key
}

// newJob resolves the options and keys the compile.  cells > 0 keys a
// partitioned compile: the cell count is appended, so requests differing
// only in width never share an artifact.  Invalid options are a 400.
func newJob(canon string, m *machine.Machine, wire CompileOptions, cells int) (*job, error) {
	opts, err := wire.resolve()
	if err != nil {
		return nil, &requestError{http.StatusBadRequest, err}
	}
	okey := optionsKey(opts)
	if cells > 0 {
		okey = fmt.Sprintf("%s;cells=%d", okey, cells)
	}
	return &job{canon, m, opts, cells, cache.KeyOf(canon, m.Fingerprint(), okey)}, nil
}

// resolveJob is the front of every source-carrying request: canonicalise
// (422), resolve the machine (400), resolve the options (400), key.
func resolveJob(src, machineName string, wire CompileOptions, cells int) (*job, error) {
	canon, err := canonicalSource(src)
	if err != nil {
		return nil, err
	}
	m, err := resolveMachine(machineName)
	if err != nil {
		return nil, &requestError{http.StatusBadRequest, err}
	}
	return newJob(canon, m, wire, cells)
}

// compile runs the compiler and fills the cache entry from the result.
func (j *job) compile(ctx context.Context, tracer *softpipe.Tracer) (*entry, error) {
	opts := j.opts
	opts.Ctx, opts.Tracer = ctx, tracer
	if j.cells > 0 {
		return j.compilePartitioned(opts)
	}
	obj, err := softpipe.CompileSource(j.canon, j.m, opts)
	if err != nil {
		return nil, err
	}
	e := &entry{
		key:   j.key,
		m:     j.m,
		bins:  []*vliw.Program{obj.Binary},
		fregs: obj.Report.FRegsUsed,
		iregs: obj.Report.IRegsUsed,
	}
	for _, lr := range obj.Report.Loops {
		ls := LoopStats{
			LoopID:    lr.LoopID,
			TripCount: lr.TripCount,
			Pipelined: lr.Pipelined,
			Reason:    lr.Reason,
			MII:       lr.MII,
			ResMII:    lr.ResMII,
			RecMII:    lr.RecMII,
			II:        lr.II,
			MetLower:  lr.MetLower,
			Unroll:    lr.Unroll,
			Stages:    lr.Stages,
			Passes:    lr.Passes,
			Tail:      lr.Tail,
			Flat:      lr.Flat,
			Hoisted:   lr.Hoisted,
			Rotated:   lr.Rotated,
			Flops:     lr.Flops,
			Explain:   lr.Explain.Format(),
		}
		if lr.Pipelined {
			ls.Proved = lr.Proved
			ls.FellBack = lr.FellBack
		}
		if lr.Pipelined && lr.II > 0 {
			ls.EstMFLOPS = float64(lr.Flops) * j.m.ClockMHz / float64(lr.II)
		}
		e.loops = append(e.loops, ls)
	}
	return e, nil
}

// compileCached is GetOrCompute of j.compile: the one way entries reach
// the cache.  The entry is sealed, and so charged, as it is filled.
func (s *Server) compileCached(ctx context.Context, j *job, tracer *softpipe.Tracer) (*entry, bool, error) {
	v, hit, err := s.cache.GetOrCompute(ctx, j.key, func() (any, int64, error) {
		if s.compileHook != nil {
			s.compileHook()
		}
		e, err := j.compile(ctx, tracer)
		if err != nil {
			return nil, 0, err
		}
		charge, err := e.seal()
		return e, charge, err
	})
	if err != nil {
		return nil, false, classifyCompileErr(err)
	}
	return v.(*entry), hit, nil
}

// requestError pairs an HTTP status with the underlying cause.
type requestError struct {
	status int
	err    error
}

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }

// classifyCompileErr maps compiler failures to HTTP statuses: deadline →
// 504, everything else (parse, validation, infeasible schedule, verifier
// rejection) → 422.
func classifyCompileErr(err error) *requestError {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return &requestError{http.StatusGatewayTimeout, err}
	}
	return &requestError{http.StatusUnprocessableEntity, err}
}

func (s *Server) writeRequestError(w http.ResponseWriter, err error) {
	var re *requestError
	if errors.As(err, &re) {
		s.fail(w, re.status, re.err)
		return
	}
	s.fail(w, http.StatusInternalServerError, err)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req CompileRequest
	if err := decodeJSON(r, &req, maxRequestBytes); err != nil {
		s.writeRequestError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()

	var tracer *softpipe.Tracer
	if req.Trace {
		tracer = softpipe.NewTracer("compile")
	}
	j, err := resolveJob(req.Source, req.Machine, req.Options, 0)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	e, hit, err := s.compileCached(ctx, j, tracer)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	resp := CompileResponse{
		Key:          j.key.String(),
		Cached:       hit,
		ObjectSHA256: e.sha,
		Machine:      e.m.Name,
		Instrs:       len(e.bins[0].Instrs),
		FRegs:        e.fregs,
		IRegs:        e.iregs,
		Loops:        e.loops,
		ElapsedMS:    float64(time.Since(t0).Microseconds()) / 1e3,
	}
	if tracer != nil && !hit {
		var buf bytes.Buffer
		if err := tracer.WriteJSON(&buf); err == nil {
			resp.TraceJSON = json.RawMessage(buf.Bytes())
		}
	}
	s.reply(w, http.StatusOK, resp)
}
