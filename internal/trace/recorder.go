package trace

// The Recorder lives outside the deterministic-marked files on purpose: it
// stamps wall-clock arrival deltas (time.Since), which the determinism
// analyzer rightly bans from the encode/decode path. Encoding itself stays
// in format.go, so the bytes written for a given record sequence are still
// canonical.

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// RecorderOptions tune the trace writer.
type RecorderOptions struct {
	// SyncEvery fsyncs the trace after every Nth record, the same explicit
	// checked-Sync discipline the persist store uses for its WAL; 0 keeps
	// records buffered until Close (losing at most the tail on a crash —
	// which the torn-tail scanner then discards cleanly).
	SyncEvery int
	// Buffer is the hand-off channel capacity between the hot path and the
	// writer goroutine (default 1024). When the writer falls behind (e.g.
	// during an fsync stall) Record blocks, preserving order — dropping
	// records would corrupt the replay contract.
	Buffer int
}

// Recorder appends API operations to a trace file. The hot path — Record —
// takes no lock: it stamps a monotonic timestamp and hands the operation to
// a single background writer over a channel; the writer assigns contiguous
// sequence numbers in hand-off order, computes arrival deltas, encodes and
// writes. Close drains, flushes, fsyncs and reports the first write error.
type Recorder struct {
	f     *os.File
	w     *bufio.Writer
	ch    chan recordMsg
	quit  chan struct{}
	done  chan struct{}
	start time.Time

	syncEvery int
	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error

	records  atomic.Uint64
	bytes    atomic.Uint64
	failures atomic.Uint64
	errMu    sync.Mutex
	lastErr  error // guarded by errMu
}

type recordMsg struct {
	at     time.Duration // monotonic offset from recorder start
	op     Op
	gen    uint64
	digest uint64
	args   []int64
}

// RecorderStats is a point-in-time view for /metrics.
type RecorderStats struct {
	// Records and Bytes count what reached the encoder (buffered writes
	// included; an fsync may still be pending).
	Records, Bytes uint64
	// WriteFailures counts encode-to-disk errors; recording continues (a
	// broken trace must never take serving down) and the error surfaces
	// again from Close.
	WriteFailures uint64
}

// NewRecorder creates (truncating) the trace file at path and starts the
// writer goroutine.
func NewRecorder(path string, opt RecorderOptions) (_ *Recorder, err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	if opt.Buffer <= 0 {
		opt.Buffer = 1024
	}
	r := &Recorder{
		f:         f,
		w:         bufio.NewWriterSize(f, 1<<16),
		ch:        make(chan recordMsg, opt.Buffer),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		start:     time.Now(),
		syncEvery: opt.SyncEvery,
	}
	h := header()
	if _, err = r.w.Write(h[:]); err != nil {
		return nil, err
	}
	go r.writeLoop()
	return r, nil
}

// Record captures one operation. args is copied, so handlers may pass
// request-scoped slices. Safe for concurrent use; calls after Close are
// dropped.
func (r *Recorder) Record(op Op, gen, digest uint64, args ...int64) {
	if r == nil || r.closed.Load() {
		return
	}
	msg := recordMsg{at: time.Since(r.start), op: op, gen: gen, digest: digest}
	if len(args) > 0 {
		msg.args = append(make([]int64, 0, len(args)), args...)
	}
	select {
	case r.ch <- msg:
	case <-r.quit: // closing: the trace ends here, don't block the handler
	}
}

// Stats reports recorder activity for metrics exposition.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	return RecorderStats{
		Records:       r.records.Load(),
		Bytes:         r.bytes.Load(),
		WriteFailures: r.failures.Load(),
	}
}

// Close drains buffered records, flushes and fsyncs the file, and returns
// the first error the writer hit (or the flush/sync error). Idempotent.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.closeOnce.Do(func() {
		r.closed.Store(true)
		close(r.quit)
		<-r.done

		err := r.w.Flush()
		if serr := r.f.Sync(); err == nil {
			err = serr
		}
		if cerr := r.f.Close(); err == nil {
			err = cerr
		}
		r.errMu.Lock()
		if r.lastErr != nil && err == nil {
			err = r.lastErr
		}
		r.errMu.Unlock()
		r.closeErr = err
	})
	return r.closeErr
}

func (r *Recorder) writeLoop() {
	defer close(r.done)
	var (
		seq    uint64
		lastAt time.Duration
		buf    []byte
	)
	write := func(m recordMsg) {
		seq++
		delta := m.at - lastAt
		if delta < 0 {
			// Hand-off order is the trace order; a message stamped slightly
			// before its predecessor (two goroutines racing to the channel)
			// clamps to zero rather than going back in time.
			delta = 0
		}
		lastAt = m.at
		rec := Record{
			Seq:        seq,
			DeltaNanos: uint64(delta),
			Op:         m.op,
			Gen:        m.gen,
			Digest:     m.digest,
			Args:       m.args,
		}
		buf = appendRecord(buf[:0], rec)
		if _, err := r.w.Write(buf); err != nil {
			r.fail(err)
			return
		}
		r.records.Add(1)
		r.bytes.Add(uint64(len(buf)))
		if r.syncEvery > 0 && seq%uint64(r.syncEvery) == 0 {
			if err := r.w.Flush(); err != nil {
				r.fail(err)
				return
			}
			if err := r.f.Sync(); err != nil {
				r.fail(err)
			}
		}
	}
	for {
		select {
		case m := <-r.ch:
			write(m)
		case <-r.quit:
			// Drain what the hot path already handed off, then stop.
			for {
				select {
				case m := <-r.ch:
					write(m)
				default:
					return
				}
			}
		}
	}
}

func (r *Recorder) fail(err error) {
	r.failures.Add(1)
	r.errMu.Lock()
	if r.lastErr == nil {
		r.lastErr = fmt.Errorf("trace: writing record: %w", err)
	}
	r.errMu.Unlock()
}
