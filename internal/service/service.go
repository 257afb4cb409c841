// Package service exposes the softpipe compiler as an HTTP daemon:
// compile-as-a-service over the content-addressed cache in internal/cache.
//
// Endpoints:
//
//	POST /compile  W2 source → compiled object stats (per-loop II/MII/
//	               MFLOPS, explain text for every loop), served from the
//	               cache when the canonicalized source, machine fingerprint
//	               and options match a previous compile.
//	POST /run      compile (or look up) and simulate, returning cycles,
//	               flops, MFLOPS and observable state.
//	POST /sweep    compile one program across a machine grid (default:
//	               the rotating/MVE generator grid), returning per-machine
//	               loop stats; cells share the /compile cache, partitioned
//	               by machine fingerprint.
//	GET  /healthz  liveness (503 while draining).
//	GET  /metrics  JSON counters: cache hit rate, in-flight, queue depth,
//	               latency percentiles per endpoint.
//
// The server applies admission control (a bounded queue in front of a
// worker semaphore; overload answers 429 with Retry-After), per-request
// deadlines threaded as a context through the compiler so the II search
// aborts when the client gives up, and panic recovery so one poisoned
// request cannot take the daemon down.
package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"softpipe/internal/cache"
	"softpipe/internal/fabric"
)

// Config tunes a Server.  The zero value is serviceable.
type Config struct {
	// MaxConcurrent bounds simultaneously executing compile/run requests
	// (default: GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a worker slot; beyond it the
	// server answers 429 with Retry-After (default 64).
	MaxQueue int
	// CacheBytes bounds the in-memory artifact cache (default 256 MiB).
	CacheBytes int64
	// CacheDir, when non-empty, enables the on-disk cache tier; entries
	// loaded from it are revalidated (decode + machine fingerprint +
	// static resource legality via internal/verify) before use.
	CacheDir string
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 60s); MaxTimeout caps client-supplied deadlines
	// (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Logf, when non-nil, receives one line per served request and per
	// recovered panic.
	Logf func(format string, args ...any)
	// Fabric, when non-nil with at least one peer besides Self, joins
	// this node to a sharded compile fleet (see internal/fabric): local
	// misses on keys owned by another node are forwarded there, and any
	// forwarding failure degrades to a local compile.  Nil keeps the
	// single-node behavior bit-for-bit.
	Fabric *fabric.Config
}

// Server is the HTTP handler.  Create one with New; it is safe for
// concurrent use and for http.Server's background goroutines.
type Server struct {
	cfg    Config
	cache  *cache.Cache
	fabric *fabric.Fabric // nil when not in a fleet
	mux    *http.ServeMux
	start  time.Time

	sem      chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool

	reqCompile  atomic.Int64
	reqRun      atomic.Int64
	reqSweep    atomic.Int64
	reqArtifact atomic.Int64 // peer forwards landing here
	errors      atomic.Int64 // 4xx/5xx responses
	rejected    atomic.Int64 // 429s from admission control
	panics      atomic.Int64
	fallbacks   atomic.Int64 // local compiles of keys another node owns
	decodes     atomic.Int64 // times a request path parsed artifact bytes

	// Partitioned-array /run aggregates (see noteArrayRun).
	arrRuns     atomic.Int64
	arrCells    atomic.Int64
	arrStalls   atomic.Int64
	arrMaxQueue atomic.Int64

	// ridPrefix + ridSeq generate request IDs for requests that arrive
	// without one; retrySeq + retryOffset drive the jittered Retry-After
	// hints (see retryAfterMS).
	ridPrefix   string
	ridSeq      atomic.Int64
	retrySeq    atomic.Int64
	retryOffset int64

	latCompile  histogram
	latRun      histogram
	latSweep    histogram
	latArtifact histogram

	// compileHook, when non-nil, runs at the start of every local
	// compile.  Test seam: fault-injection tests use it to panic or
	// stall mid-compile.
	compileHook func()
}

// New builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	s := &Server{cfg: cfg, start: time.Now(), sem: make(chan struct{}, cfg.MaxConcurrent)}
	var seed [6]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("service: seeding ids: %w", err)
	}
	s.ridPrefix = hex.EncodeToString(seed[:4])
	s.retryOffset = int64(seed[4])<<8 | int64(seed[5])
	c, err := cache.New(cache.Config{
		MaxBytes: cfg.CacheBytes,
		Dir:      cfg.CacheDir,
		Validate: validateArtifact,
	})
	if err != nil {
		return nil, err
	}
	s.cache = c
	if cfg.Fabric != nil {
		f, err := fabric.New(*cfg.Fabric)
		if err != nil {
			return nil, err
		}
		if f.Enabled() {
			s.fabric = f
		} else {
			f.Close() // a one-node "fleet" is just a node
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /compile", s.admit(s.handleCompile, &s.reqCompile, &s.latCompile))
	s.mux.HandleFunc("POST /run", s.admit(s.handleRun, &s.reqRun, &s.latRun))
	s.mux.HandleFunc("POST /sweep", s.admit(s.handleSweep, &s.reqSweep, &s.latSweep))
	// POST /artifact/{key} is the peer forward path: it compiles, so it
	// shares admission control with client traffic.  GET is fetch-only
	// (cache lookup) and stays cheap and unadmitted, like /metrics.
	s.mux.HandleFunc("POST /artifact/{key}", s.admit(s.handleArtifactPost, &s.reqArtifact, &s.latArtifact))
	s.mux.HandleFunc("GET /artifact/{key}", s.handleArtifactGet)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Close releases background resources (the fabric health prober).  It
// does not drain in-flight requests; pair it with http.Server.Shutdown.
func (s *Server) Close() {
	if s.fabric != nil {
		s.fabric.Close()
	}
}

// ServeHTTP implements http.Handler with request-ID propagation and
// panic recovery: every request gets an X-Request-ID (the client's if it
// sent one, generated otherwise) echoed on the response, stamped into
// error bodies and logs, and carried on forwarded peer requests — so one
// failure can be traced across the fleet.  A handler panic becomes a 500
// (when nothing was written yet) and a counter, never a dead daemon.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := r.Header.Get(fabric.HeaderRequestID)
	if rid == "" {
		rid = fmt.Sprintf("%s-%06x", s.ridPrefix, s.ridSeq.Add(1))
	}
	w.Header().Set(fabric.HeaderRequestID, rid)
	r = r.WithContext(fabric.WithRequestID(r.Context(), rid))
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			s.logf("panic serving %s %s rid=%s: %v\n%s", r.Method, r.URL.Path, rid, v, debug.Stack())
			s.fail(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", v))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// SetDraining flips the drain flag: /healthz starts answering 503 so load
// balancers stop routing here, while in-flight requests finish normally.
// cmd/softpiped sets it on SIGTERM before http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// CacheStats exposes the artifact cache counters (tests and /metrics).
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// admit wraps a worker endpoint with admission control: a fast-path
// semaphore acquire, a bounded wait queue behind it, and 429+Retry-After
// once the queue is full.  It also records the request count and latency.
func (s *Server) admit(h http.HandlerFunc, count *atomic.Int64, lat *histogram) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		count.Add(1)
		select {
		case s.sem <- struct{}{}:
		default:
			if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
				s.queued.Add(-1)
				s.rejected.Add(1)
				ms := s.retryAfterMS()
				// Retry-After is whole seconds by spec; the millisecond
				// hint carries the actual jitter so well-behaved clients
				// desynchronize instead of re-stampeding together.
				w.Header().Set("Retry-After", strconv.FormatInt((ms+999)/1000, 10))
				w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(ms, 10))
				s.fail(w, http.StatusTooManyRequests, fmt.Errorf("server saturated: %d in flight, %d queued", s.inflight.Load(), s.queued.Load()))
				return
			}
			select {
			case s.sem <- struct{}{}:
				s.queued.Add(-1)
			case <-r.Context().Done():
				s.queued.Add(-1)
				s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("client gave up while queued: %v", r.Context().Err()))
				return
			}
		}
		s.inflight.Add(1)
		t0 := time.Now()
		defer func() {
			lat.observe(time.Since(t0))
			s.inflight.Add(-1)
			<-s.sem
		}()
		h(w, r)
	}
}

// retryAfterMS produces the jittered 429 backoff hint in milliseconds,
// uniform-looking over [500, 2500).  A multiplicative stride over a
// per-server random offset guarantees consecutive rejections get
// distinct hints (997 is coprime to 2000, so the sequence cycles through
// all 2000 values) — a constant hint would march every rejected client
// back onto the queue in the same instant.
func (s *Server) retryAfterMS() int64 {
	return 500 + (s.retrySeq.Add(1)*997+s.retryOffset)%2000
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{}
	if s.fabric != nil {
		// Breaker states ride on /healthz so an operator (or the fleet
		// harness) can watch a dead peer's breaker open and re-close
		// from any surviving node.
		body["fabric"] = s.fabric.Snapshot()
	}
	if s.draining.Load() {
		body["status"] = "draining"
		s.reply(w, http.StatusServiceUnavailable, body)
		return
	}
	body["status"] = "ok"
	body["uptime_s"] = time.Since(s.start).Seconds()
	s.reply(w, http.StatusOK, body)
}

// errorResponse is the body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
	// Timeout marks deadline-exceeded compiles/runs so clients can
	// distinguish "too slow" from "wrong".
	Timeout bool `json:"timeout,omitempty"`
	// RequestID echoes X-Request-ID so a logged failure is greppable
	// across every node that touched the request.
	RequestID string `json:"request_id,omitempty"`
}

// reply marshals before touching the ResponseWriter: an unencodable body
// becomes an honest 500, never a committed 200 status with an empty body.
func (s *Server) reply(w http.ResponseWriter, code int, body any) {
	data, err := json.MarshalIndent(body, "", "  ")
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		s.errors.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\": %q}\n", "encode response: "+err.Error())
		return
	}
	w.WriteHeader(code)
	_, _ = w.Write(append(data, '\n'))
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.errors.Add(1)
	rid := w.Header().Get(fabric.HeaderRequestID)
	if code >= 500 || code == http.StatusGatewayTimeout {
		s.logf("request rid=%s failed: %d %v", rid, code, err)
	}
	s.reply(w, code, errorResponse{
		Error:     err.Error(),
		Timeout:   code == http.StatusGatewayTimeout,
		RequestID: rid,
	})
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// timeout resolves a request's timeout_ms field against the configured
// default and cap.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// decodeJSON reads a bounded request body.  Any failure, an unknown field
// included, is the client's: a 400.
func decodeJSON(r *http.Request, dst any, maxBytes int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return &requestError{http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)}
	}
	return nil
}
