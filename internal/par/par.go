// Package par holds the two concurrency shapes the rest of the module
// shares. For fans independent units out over a fixed number of workers:
// APPROXER's blocks of Laplacian solves (package sketch) and APPROXCH's
// seeding passes and per-point hull distances (package hull), with the
// router's per-backend health checks besides. Every runs a function
// periodically until stopped: the router's health loop, the replica's
// tail poll and reccd's interval checkpoints.
//
// Neither keeps state between calls, so neither has a start or stop
// protocol of its own to get wrong: For returns when its work has, and the
// only handle on an Every loop is the stop func it returns.
package par

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// For calls visit(w, k) once for every k in [0, n), spread over at most
// workers goroutines; w ∈ [0, workers) names the goroutine making the call,
// so visit can use per-worker scratch. The units are handed out in
// increasing k. It returns once every call has.
func For(n, workers int, visit func(w, k int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			visit(0, k)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				visit(w, k)
			}
		}()
	}
	wg.Wait()
}

// Every calls fn every d, which must be positive, until ctx ends or stop is
// called. fn runs on a child of ctx that stop cancels, so a stop also
// cancels the call in flight. stop returns once the last call has; it may
// be called any number of times, from any goroutine.
func Every(ctx context.Context, d time.Duration, fn func(context.Context)) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fn(ctx)
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}
