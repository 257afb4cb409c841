package bench

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"softpipe/internal/trace"
)

// ForEach runs fn(0) … fn(n-1) on a bounded pool of worker goroutines
// and waits for them.  workers ≤ 0 sizes the pool to
// runtime.GOMAXPROCS(0).  Jobs always run on pool goroutines, never on
// the caller's: workers == 1 is one worker taking the jobs in index
// order, which is sequential but not the calling goroutine.
//
// Jobs must be independent: callers get determinism by writing job i's
// result into slot i of a pre-sized slice, never by sharing accumulators.
// On failure the first error by job index is returned and the context
// derived for the pool is canceled, so in-flight workers finish their
// current job and undispatched jobs never start.  A canceled parent ctx
// stops dispatch the same way and its error is returned.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	return forEachWorker(ctx, n, workers, func(_, i int) error { return fn(i) })
}

// ForEachTraced is ForEach with per-worker trace sinks: each worker
// goroutine records into its own child of tr (one sink per worker, no
// cross-worker interleaving within a sink) and the children are merged
// back into tr after the pool drains.  A nil tr degenerates to ForEach
// with nil tracers handed to fn.
func ForEachTraced(ctx context.Context, n, workers int, tr *trace.Tracer, fn func(i int, t *trace.Tracer) error) error {
	if tr == nil {
		return forEachWorker(ctx, n, workers, func(_, i int) error { return fn(i, nil) })
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n > 0 && workers > n {
		workers = n
	}
	sinks := make([]*trace.Tracer, workers)
	for w := range sinks {
		sinks[w] = tr.Child("worker")
	}
	err := forEachWorker(ctx, n, workers, func(w, i int) error {
		return fn(i, sinks[w])
	})
	tr.Merge(sinks...)
	return err
}

// forEachWorker is the shared pool: fn receives the worker index (stable
// per goroutine) alongside the job index.
func forEachWorker(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx = -1
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if firstIdx == -1 || i < firstIdx {
						firstErr, firstIdx = err, i
					}
					mu.Unlock()
					cancel()
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
