package trace

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"resistecc/internal/obs"
)

// LoadOptions tune the open-loop driver.
type LoadOptions struct {
	// Concurrency bounds in-flight requests (default 64). An open-loop
	// generator that outruns the target otherwise piles up unbounded
	// goroutines; the bound converts overload into queueing delay, which the
	// latency percentiles then expose honestly.
	Concurrency int
	// AsFast ignores the trace's arrival deltas and dispatches as fast as
	// the concurrency bound allows (closed-loop capacity probing).
	AsFast bool
	// Client defaults to a 2-minute-timeout client when nil.
	Client *http.Client
}

// LoadReport summarizes one load run.
type LoadReport struct {
	// Ops counts dispatched operations; ByOp splits them per kind.
	Ops  int
	ByOp [opMax]int
	// Errors counts transport failures (connection refused, timeouts).
	Errors int
	// Rejected counts well-formed non-2xx answers below 500 — shed load
	// (429/503 is a 5xx here, see ServerErrors), conflicts, validation.
	Rejected int
	// ServerErrors counts 5xx answers — the zero-5xx capacity assertion.
	ServerErrors int
	// Duration is dispatch start to last response.
	Duration time.Duration
	// AchievedRate is Ops / Duration in ops per second.
	AchievedRate float64
	// P50, P90, P99 are per-operation latency quantiles.
	P50, P90, P99 time.Duration
}

// RunLoad drives a trace against base open-loop: a dispatcher honors each
// record's arrival delta (unless AsFast) and hands the operation to a
// bounded worker pool, so a slow target sees queueing delay rather than a
// convoy of blocked arrivals. Results are verified only for well-formedness
// (generated traces carry no digests); the report carries the error split
// and latency quantiles.
func RunLoad(ctx context.Context, recs []Record, base string, opt LoadOptions) (*LoadReport, error) {
	if opt.Concurrency <= 0 {
		opt.Concurrency = 64
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}
	ex := &HTTPExecutor{Base: base, Client: client}

	var (
		lat          obs.Latencies
		errs         atomic.Int64
		rejected     atomic.Int64
		serverErrors atomic.Int64
		wg           sync.WaitGroup
		sem          = make(chan struct{}, opt.Concurrency)
	)
	rep := &LoadReport{}
	start := time.Now()
	var cum time.Duration

dispatch:
	for _, rec := range recs {
		// A paced op's clock starts at its due time, so time spent waiting
		// for a concurrency slot counts against it; AsFast ops (zero due)
		// are timed from dispatch.
		var due time.Time
		if !opt.AsFast {
			cum += time.Duration(rec.DeltaNanos)
			due = start.Add(cum)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					break dispatch
				}
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break dispatch
		}
		rep.Ops++
		if validOp(rec.Op) {
			rep.ByOp[rec.Op]++
		}
		wg.Add(1)
		go func(rec Record, t0 time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			if t0.IsZero() {
				t0 = time.Now()
			}
			_, err := ex.Do(ctx, rec)
			lat.Observe(time.Since(t0))
			if err == nil {
				return
			}
			if se, ok := err.(*statusError); ok {
				if se.status >= 500 {
					serverErrors.Add(1)
				} else {
					rejected.Add(1)
				}
				return
			}
			errs.Add(1)
		}(rec, due)
	}
	wg.Wait()

	rep.Duration = time.Since(start)
	rep.Errors = int(errs.Load())
	rep.Rejected = int(rejected.Load())
	rep.ServerErrors = int(serverErrors.Load())
	if rep.Duration > 0 {
		rep.AchievedRate = float64(rep.Ops) / rep.Duration.Seconds()
	}
	rep.P50 = lat.Quantile(0.50)
	rep.P90 = lat.Quantile(0.90)
	rep.P99 = lat.Quantile(0.99)
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}
