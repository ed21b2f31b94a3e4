package par

import (
	"context"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resistecc/internal/testutil"
)

// TestMain fails the suite if an Every loop outlives its stop, or a For
// worker outlives the call.
func TestMain(m *testing.M) {
	os.Exit(testutil.VerifyNoLeaksMain(m))
}

// For visits every unit exactly once, names only workers in range, and
// never runs two calls on one worker at once, for worker counts below, at
// and above the number of units.
func TestForVisitsEachUnitOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {7, 1}, {7, 0}, {64, 3}, {5, 8},
	} {
		hits := make([]atomic.Int32, tc.n)
		busy := make([]atomic.Bool, max(tc.workers, 1))
		For(tc.n, tc.workers, func(w, k int) {
			if w < 0 || w >= max(tc.workers, 1) {
				t.Errorf("n=%d workers=%d: worker %d out of range", tc.n, tc.workers, w)
				return
			}
			if busy[w].Swap(true) {
				t.Errorf("n=%d workers=%d: worker %d runs two calls at once", tc.n, tc.workers, w)
			}
			hits[k].Add(1)
			busy[w].Store(false)
		})
		for k := range hits {
			if got := hits[k].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: unit %d visited %d times", tc.n, tc.workers, k, got)
			}
		}
	}
}

// Every calls fn repeatedly, and stop waits for the call in flight: no call
// starts or runs after stop returns.
func TestEveryRunsUntilStopped(t *testing.T) {
	var calls, running atomic.Int32
	stop := Every(context.Background(), time.Millisecond, func(context.Context) {
		running.Add(1)
		calls.Add(1)
		time.Sleep(time.Millisecond)
		running.Add(-1)
	})
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("fn ran %d times in 5s", calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	if running.Load() != 0 {
		t.Fatal("stop returned while fn was running")
	}
	after := calls.Load()
	time.Sleep(10 * time.Millisecond)
	if got := calls.Load(); got != after {
		t.Fatalf("fn ran %d more times after stop", got-after)
	}
}

// Stop cancels the context of the call in flight, so a call blocked on it
// ends at once instead of holding stop until it finishes on its own.
func TestEveryStopCancelsCallInFlight(t *testing.T) {
	entered := make(chan struct{})
	var once sync.Once
	stop := Every(context.Background(), time.Millisecond, func(ctx context.Context) {
		once.Do(func() { close(entered) })
		<-ctx.Done()
	})
	<-entered
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not cancel the call in flight")
	}
}

// A loop whose parent context ends stops on its own, and its stop still
// returns.
func TestEveryEndsWithParentContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	stop := Every(ctx, time.Millisecond, func(context.Context) { calls.Add(1) })
	cancel()
	stop()
	after := calls.Load()
	time.Sleep(10 * time.Millisecond)
	if got := calls.Load(); got != after {
		t.Fatalf("fn ran %d more times after the parent context ended", got-after)
	}
}

// Shutdown paths converge: a signal handler, a failing probe and a deferred
// cleanup can all call one stop, at once and more than once. No caller may
// panic or return before the loop has ended.
func TestEveryStopConcurrent(t *testing.T) {
	var calls, running atomic.Int32
	stop := Every(context.Background(), time.Millisecond, func(context.Context) {
		running.Add(1)
		calls.Add(1)
		time.Sleep(100 * time.Microsecond)
		running.Add(-1)
	})
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop()
			if running.Load() != 0 {
				t.Error("stop returned while fn was running")
			}
		}()
	}
	wg.Wait()
	stop()
}
