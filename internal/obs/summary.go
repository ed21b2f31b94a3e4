package obs

import (
	"sort"
	"sync"
	"time"
)

// Latencies is a simple exact-quantile latency sampler for bounded runs —
// load generation, replay, smoke tests — where the observation count is small
// enough (up to a few hundred thousand) that keeping every sample beats a
// histogram's bucket-resolution error. It is not for unbounded server use;
// the Registry's histograms cover that.
type Latencies struct {
	mu sync.Mutex
	ns []int64 // guarded by mu
}

// Observe records one latency sample.
func (l *Latencies) Observe(d time.Duration) {
	l.mu.Lock()
	l.ns = append(l.ns, int64(d))
	l.mu.Unlock()
}

// Quantile returns the q-th nearest-rank quantile (q in [0,1]) of the
// observed samples, or 0 with no samples. It sorts in place under the lock;
// callers query quantiles after the run, not on the hot path.
func (l *Latencies) Quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ns) == 0 {
		return 0
	}
	sort.Slice(l.ns, func(i, j int) bool { return l.ns[i] < l.ns[j] })
	if q <= 0 {
		return time.Duration(l.ns[0])
	}
	if q >= 1 {
		return time.Duration(l.ns[len(l.ns)-1])
	}
	i := int(q*float64(len(l.ns))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(l.ns) {
		i = len(l.ns) - 1
	}
	return time.Duration(l.ns[i])
}
