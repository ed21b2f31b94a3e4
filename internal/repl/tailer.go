package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"resistecc/internal/par"
	"resistecc/internal/persist"
)

// Follower is the replica-side state a Tailer drives: a restored index that
// applies mutations in writer order. A resistecc.DynamicIndex restored from
// the writer's snapshot satisfies it via a thin adapter in cmd/reccd.
type Follower interface {
	// Seq is the number of writer mutations reflected in the state (the
	// restored snapshot's sequence plus mutations applied since).
	Seq() uint64
	// Generation is the served index generation, which tracks the writer's
	// while the replica is caught up.
	Generation() uint64
	// Apply replays one writer mutation. An error means the state can no
	// longer follow incrementally; the Tailer re-bases on a snapshot.
	Apply(ctx context.Context, rec persist.Record) error
	// Restore replaces the state with a decoded writer snapshot.
	Restore(ctx context.Context, snapshot []byte) error
}

// TailerConfig configures a Tailer.
type TailerConfig struct {
	// Upstream is the writer's base URL, e.g. "http://10.0.0.1:8077".
	Upstream string
	// Follower is the replica state to drive.
	Follower Follower
	// Client is the HTTP client for fetches (nil = 30s-timeout client).
	Client *http.Client
	// Interval is the poll period (0 = 250ms).
	Interval time.Duration
	// MaxBatch is the per-fetch record cap passed to the writer (0 = 4096).
	MaxBatch int
}

// TailerStats is a point-in-time view of replication progress for health
// and metrics endpoints.
type TailerStats struct {
	// AppliedSeq is the follower's sequence; UpstreamSeq the writer's newest
	// known sequence, so Lag = UpstreamSeq − AppliedSeq.
	AppliedSeq, UpstreamSeq uint64
	// UpstreamGen is the writer's generation from the last frame.
	UpstreamGen uint64
	// Lag is UpstreamSeq − AppliedSeq (0 when caught up).
	Lag uint64
	// Resyncs counts snapshot re-bases (startup, WAL gaps, divergence).
	Resyncs uint64
	// Fetches and FetchBytes count successful tail/snapshot transfers.
	Fetches, FetchBytes uint64
	// FetchFailures counts failed or rejected transfers.
	FetchFailures uint64
	// LastContact is when the writer last answered successfully.
	LastContact time.Time
	// LastError is the most recent failure ("" after a clean poll).
	LastError string
}

// Tailer keeps a Follower converged with a writer: it polls the WAL tail,
// applies records in order, and re-bases on a fresh snapshot whenever the
// writer signals a gap (410) or the replica has diverged (caught up on
// sequence but serving a different generation — the writer rebuilt).
type Tailer struct {
	cfg TailerConfig

	mu          sync.Mutex // guards the fields below
	upstreamSeq uint64     // guarded by mu
	upstreamGen uint64     // guarded by mu
	resyncs     uint64     // guarded by mu
	fetches     uint64     // guarded by mu
	fetchBytes  uint64     // guarded by mu
	failures    uint64     // guarded by mu
	lastContact time.Time  // guarded by mu
	lastError   string     // guarded by mu

	// baseSeq/baseGen name the writer snapshot the follower was last
	// restored from: its state is that snapshot plus the records applied
	// since.
	baseSeq, baseGen uint64 // guarded by mu
}

// NewTailer validates cfg and fills defaults.
func NewTailer(cfg TailerConfig) (*Tailer, error) {
	if cfg.Upstream == "" {
		return nil, errors.New("repl: tailer needs an upstream URL")
	}
	if cfg.Follower == nil {
		return nil, errors.New("repl: tailer needs a follower")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	return &Tailer{cfg: cfg}, nil
}

// Stats returns a point-in-time progress view.
func (t *Tailer) Stats() TailerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TailerStats{
		AppliedSeq:    t.cfg.Follower.Seq(),
		UpstreamSeq:   t.upstreamSeq,
		UpstreamGen:   t.upstreamGen,
		Resyncs:       t.resyncs,
		Fetches:       t.fetches,
		FetchBytes:    t.fetchBytes,
		FetchFailures: t.failures,
		LastContact:   t.lastContact,
		LastError:     t.lastError,
	}
	if s.UpstreamSeq > s.AppliedSeq {
		s.Lag = s.UpstreamSeq - s.AppliedSeq
	}
	return s
}

// Sync runs one full catch-up pass: restore from a snapshot if the follower
// has no usable position, then drain the tail until caught up. Replicas call
// it inline at startup so they never serve before reaching the writer once.
func (t *Tailer) Sync(ctx context.Context) error {
	return t.poll(ctx)
}

// Start polls every Interval until ctx ends or stop is called. stop
// cancels the poll in flight and waits for it.
func (t *Tailer) Start(ctx context.Context) (stop func()) {
	return par.Every(ctx, t.cfg.Interval, func(ctx context.Context) { _ = t.poll(ctx) })
}

// poll runs one drain and is the one place a failure is counted: once per
// failed poll, and not at all for a poll whose ctx was cancelled (a stop or
// a shutdown is not a failure). A clean poll clears the last error.
func (t *Tailer) poll(ctx context.Context) error {
	err := t.drain(ctx)
	switch {
	case err == nil:
		t.clearError()
	case ctx.Err() == nil:
		t.recordFailure(err)
	}
	return err
}

// drain catches the follower up with the writer's tail: fetch → apply →
// repeat until caught up. At most one snapshot re-base per call keeps a
// confused writer from driving a hot resync loop; the next poll retries.
func (t *Tailer) drain(ctx context.Context) error {
	resynced := false
	// Generation 0 means the follower has never held state (the first index
	// build publishes generation 1): restore before tailing anything.
	if t.cfg.Follower.Generation() == 0 {
		if err := t.resync(ctx); err != nil {
			return err
		}
		resynced = true
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		f := t.cfg.Follower
		frame, gone, err := t.fetchTail(ctx, f.Seq()+1)
		if err != nil {
			return err
		}
		if gone {
			// The writer truncated past our position (checkpoint after a
			// rebuild, or our history predates its current snapshot).
			if resynced {
				return errors.New("repl: writer reports a WAL gap immediately after a resync")
			}
			if err := t.resync(ctx); err != nil {
				return err
			}
			resynced = true
			continue
		}
		t.recordFrame(frame)
		if n := len(frame.Records); n > 0 {
			if frame.Records[0].Seq != f.Seq()+1 {
				return fmt.Errorf("repl: writer answered from %d for position %d",
					frame.Records[0].Seq, f.Seq()+1)
			}
			for _, rec := range frame.Records {
				if err := f.Apply(ctx, rec); err != nil {
					// The follower failed to apply a mutation the writer
					// absorbed (e.g. a solver failure): re-base.
					if resynced {
						return fmt.Errorf("repl: apply failed after a resync: %w", err)
					}
					if err := t.resync(ctx); err != nil {
						return err
					}
					resynced = true
					break
				}
			}
			continue // drain: more records may be waiting
		}
		// Caught up on sequence. A generation mismatch means the writer
		// rebuilt since our base snapshot: our answers have diverged and
		// only a fresh snapshot reconverges them — but only once the writer
		// has checkpointed a snapshot other than our base, since re-basing
		// on the base again would land exactly here. Generation numbers
		// alone cannot tell: a follower that applied a record the writer
		// applied after a rebuild can hold the rebuild snapshot's number.
		if f.Seq() == frame.LastSeq && f.Generation() != frame.WriterGen &&
			!t.grewFrom(frame.SnapSeq, frame.SnapGen) && !resynced {
			if err := t.resync(ctx); err != nil {
				return err
			}
			resynced = true
			continue
		}
		return nil
	}
}

// resync re-bases the follower on the writer's current snapshot.
func (t *Tailer) resync(ctx context.Context) error {
	b, err := t.fetchSnapshot(ctx)
	if err != nil {
		return err
	}
	if err := t.cfg.Follower.Restore(ctx, b); err != nil {
		return fmt.Errorf("repl: restoring shipped snapshot: %w", err)
	}
	t.mu.Lock()
	t.resyncs++
	t.baseSeq, t.baseGen = t.cfg.Follower.Seq(), t.cfg.Follower.Generation()
	t.mu.Unlock()
	return nil
}

// grewFrom reports whether the follower was last restored from the writer
// snapshot at (seq, gen).
func (t *Tailer) grewFrom(seq, gen uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.baseSeq == seq && t.baseGen == gen
}

// fetchTail fetches one tail frame; gone=true reports a 410 WAL gap.
func (t *Tailer) fetchTail(ctx context.Context, from uint64) (persist.TailFrame, bool, error) {
	url := fmt.Sprintf("%s/v1/repl/wal?from=%d&max=%d", t.cfg.Upstream, from, t.cfg.MaxBatch)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return persist.TailFrame{}, false, err
	}
	resp, err := t.cfg.Client.Do(req)
	if err != nil {
		return persist.TailFrame{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		io.Copy(io.Discard, resp.Body)
		return persist.TailFrame{}, true, nil
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return persist.TailFrame{}, false, fmt.Errorf("repl: tail fetch: writer answered %s", resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return persist.TailFrame{}, false, err
	}
	frame, err := persist.DecodeTailFrame(b)
	if err != nil {
		return persist.TailFrame{}, false, err
	}
	t.mu.Lock()
	t.fetchBytes += uint64(len(b))
	t.mu.Unlock()
	return frame, false, nil
}

// fetchSnapshot fetches the writer's newest snapshot, raw.
func (t *Tailer) fetchSnapshot(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.cfg.Upstream+"/v1/repl/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("repl: snapshot fetch: writer answered %s", resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.fetchBytes += uint64(len(b))
	t.mu.Unlock()
	return b, nil
}

func (t *Tailer) recordFrame(f persist.TailFrame) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fetches++
	t.upstreamSeq = f.LastSeq
	t.upstreamGen = f.WriterGen
	t.lastContact = time.Now()
}

func (t *Tailer) recordFailure(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failures++
	t.lastError = err.Error()
}

func (t *Tailer) clearError() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastError = ""
}
