package lifecycle

import (
	"context"
	"errors"
	"sync"
	"testing"

	"resistecc/internal/graph"
)

var errDisk = errors.New("disk full")

// fakeJournal records every cut it is handed, and the generation the
// manager was serving when each arrived (read through Current on the
// worker), and counts appends. Checkpoint fails with fail while it is set;
// appends always succeed.
type fakeJournal struct {
	m *Manager

	mu      sync.Mutex
	cuts    []CheckpointState
	served  []uint64 // Current().Gen when each cut arrived
	appends int
	fail    error
}

func (j *fakeJournal) AppendMutation(uint64, bool, int, int) error {
	j.mu.Lock()
	j.appends++
	j.mu.Unlock()
	return nil
}

// appended returns the number of appends so far.
func (j *fakeJournal) appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

func (j *fakeJournal) Checkpoint(cs CheckpointState) error {
	served := j.m.Current().Gen
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fail != nil {
		return j.fail
	}
	j.cuts = append(j.cuts, cs)
	j.served = append(j.served, served)
	return nil
}

func (j *fakeJournal) setFail(err error) {
	j.mu.Lock()
	j.fail = err
	j.mu.Unlock()
}

// taken returns the cuts handed so far and the generations served when
// each arrived.
func (j *fakeJournal) taken() ([]CheckpointState, []uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]CheckpointState(nil), j.cuts...), append([]uint64(nil), j.served...)
}

// attached starts a manager over g and attaches a fresh fake journal.
func attached(t *testing.T, g *graph.Graph, cfg Config) (*Manager, *fakeJournal) {
	t.Helper()
	m := newManager(t, g, cfg)
	j := &fakeJournal{m: m}
	if err := m.AttachJournal(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	return m, j
}

// TestJournalContract pins what the worker owes its journal: every cut it
// takes is one the manager serves only afterwards, a rebuild whose
// checkpoint fails publishes nothing, and a checkpoint writes only what the
// journal does not hold.
func TestJournalContract(t *testing.T) {
	ctx := context.Background()

	t.Run("rebuild cut precedes its publish", func(t *testing.T) {
		m, j := attached(t, graph.Complete(8), testConfig())
		// A reader loads Current while the fake loads it on the worker.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		defer wg.Wait()
		defer close(stop)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := uint64(0); ; {
				select {
				case <-stop:
					return
				default:
				}
				gen := m.Current().Gen
				if gen < last {
					t.Errorf("generation went back from %d to %d", last, gen)
					return
				}
				last = gen
			}
		}()
		if _, err := m.RemoveEdge(ctx, 0, 1); err != nil {
			t.Fatal(err)
		}
		m.TriggerRebuild()
		if _, err := m.RebuildAndWait(ctx); err != nil {
			t.Fatal(err)
		}
		cuts, served := j.taken()
		// The attach cut, then the two requested rebuilds.
		if len(cuts) != 3 {
			t.Fatalf("journal took %d cuts, want 3", len(cuts))
		}
		for i, cs := range cuts[1:] {
			if served[i+1] != cs.Gen-1 {
				t.Fatalf("rebuild cut at generation %d arrived while generation %d was served, want %d",
					cs.Gen, served[i+1], cs.Gen-1)
			}
		}
		if last, cur := cuts[2], m.Current(); cur.Gen != last.Gen || cur.Fast != last.Fast || m.Seq() != last.Seq {
			t.Fatalf("serving seq %d gen %d; the journal's last cut is seq %d gen %d", m.Seq(), cur.Gen, last.Seq, last.Gen)
		}
	})

	t.Run("failed checkpoint fails the rebuild", func(t *testing.T) {
		m, j := attached(t, graph.Cycle(24), testConfig())
		before := m.Current().Gen
		j.setFail(errDisk)
		if _, err := m.RebuildAndWait(ctx); !errors.Is(err, errDisk) {
			t.Fatalf("RebuildAndWait: %v, want the journal's error", err)
		}
		if st := m.Stats(); st.Generation != before || st.RebuildFailures != 1 || st.JournalFailures != 1 || st.Rebuilds != 0 {
			t.Fatalf("after a refused rebuild: %+v, want generation %d, 1 rebuild and 1 journal failure", st, before)
		}
		j.setFail(nil)
		if _, err := m.RebuildAndWait(ctx); err != nil {
			t.Fatal(err)
		}
		cuts, _ := j.taken()
		if last, gen := cuts[len(cuts)-1], m.Current().Gen; gen != before+1 || last.Gen != gen {
			t.Fatalf("healed rebuild serves generation %d, journal holds %d; want both %d", gen, last.Gen, before+1)
		}
	})

	t.Run("checkpoint skips what the journal holds", func(t *testing.T) {
		m, j := attached(t, graph.Cycle(24), testConfig())
		if _, err := m.AddEdge(ctx, 0, 12); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		cuts, _ := j.taken()
		if len(cuts) != 2 || cuts[1].Seq != 1 || cuts[1].Gen != 2 {
			t.Fatalf("journal took %+v after attach and two checkpoints, want the attach cut and one at seq 1 gen 2", cuts)
		}
	})

	t.Run("checkpoint after close", func(t *testing.T) {
		// Close races the queue send and the answer, so repeat.
		for i := 0; i < 10; i++ {
			m, j := attached(t, graph.Cycle(24), testConfig())
			if _, err := m.AddEdge(ctx, 0, 12); err != nil {
				t.Fatal(err)
			}
			m.Close()
			if err := m.Checkpoint(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Checkpoint after Close: %v, want ErrClosed", err)
			}
			if cuts, _ := j.taken(); len(cuts) != 1 {
				t.Fatalf("journal took %d cuts, want only the attach cut", len(cuts))
			}
		}
	})

	t.Run("attach", func(t *testing.T) {
		g := graph.Cycle(24)
		cfg := testConfig()
		m, j := attached(t, g, cfg)
		if cuts, _ := j.taken(); len(cuts) != 1 || cuts[0].Seq != 0 || cuts[0].Gen != 1 {
			t.Fatalf("attaching to a new manager took %+v, want one cut at seq 0 gen 1", cuts)
		}

		r, err := NewFromState(g, m.Current().Fast, Restored{Gen: 4, Seq: 9}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		rj := &fakeJournal{m: r}
		if err := r.AttachJournal(ctx, rj); err != nil {
			t.Fatal(err)
		}
		if cuts, _ := rj.taken(); len(cuts) != 0 {
			t.Fatalf("attaching at the restored position took %d cuts, want none", len(cuts))
		}

		f := newManager(t, g, cfg)
		if err := f.AttachJournal(ctx, &fakeJournal{m: f, fail: errDisk}); !errors.Is(err, errDisk) {
			t.Fatalf("attaching a failing journal: %v, want its error", err)
		}
	})
}
