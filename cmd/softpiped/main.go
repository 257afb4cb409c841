// softpiped serves the softpipe compiler over HTTP: POST /compile and
// POST /run backed by a content-addressed in-memory artifact cache,
// GET /healthz, GET /metrics.  See internal/service for the API and
// README.md for usage.
//
//	softpiped [-addr :8575] [-max-concurrent N] [-max-queue N]
//	          [-cache-bytes N] [-default-timeout d] [-max-timeout d]
//	          [-drain-timeout d] [-quiet]
//
// SIGINT/SIGTERM drain gracefully: /healthz flips to 503 so load
// balancers stop routing here, in-flight requests finish (up to
// -drain-timeout), then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"softpipe/internal/service"
)

func main() {
	addr := flag.String("addr", ":8575", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "max simultaneously executing requests (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 64, "max requests waiting for a worker before 429")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "in-memory artifact cache budget")
	defaultTimeout := flag.Duration("default-timeout", 60*time.Second, "per-request deadline when the request carries none")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on client-supplied deadlines")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	quiet := flag.Bool("quiet", false, "suppress per-request logging")
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv, err := service.New(service.Config{
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		CacheBytes:     *cacheBytes,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		Logf:           logf,
	})
	if err != nil {
		log.Fatalf("softpiped: %v", err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("softpiped: listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatalf("softpiped: %v", err)
	case <-ctx.Done():
	}

	// Drain: stop advertising health, let in-flight requests finish, then
	// close the listener.
	log.Printf("softpiped: signal received, draining (max %v)", *drainTimeout)
	srv.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("softpiped: forced shutdown: %v", err)
		os.Exit(1)
	}
	log.Printf("softpiped: drained cleanly")
}
