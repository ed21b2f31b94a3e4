package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"resistecc"
	"resistecc/internal/graph"
	"resistecc/internal/obs"
	"resistecc/internal/persist"
	"resistecc/internal/repl"
)

// replicaFollower adapts the server's swappable engine to repl.Follower: a
// restore loads the shipped snapshot as a DynamicIndex (a replica never
// requests a rebuild, so its state is a pure function of snapshot + applied
// records — bit-identical to the writer at the same sequence), fetches the
// writer's id mapping, and swaps both in as one unit.
type replicaFollower struct {
	s        *server
	upstream string
	client   *http.Client
}

func (rf *replicaFollower) Seq() uint64 {
	if sv := rf.s.current(); sv != nil {
		return sv.dyn.Seq()
	}
	return 0
}

func (rf *replicaFollower) Generation() uint64 {
	if sv := rf.s.current(); sv != nil {
		return sv.dyn.Snapshot().Generation
	}
	return 0
}

// Apply replays one writer mutation. Records carry internal LCC ids, so no
// translation happens here. The writer logs only mutations its exact
// update absorbed, and the replica runs the same update on the same bits;
// should it fail here all the same, the error changes nothing and the
// tailer re-bases on the writer's snapshot.
func (rf *replicaFollower) Apply(ctx context.Context, rec persist.Record) error {
	sv := rf.s.current()
	if sv == nil {
		return fmt.Errorf("reccd: no engine to apply seq %d to", rec.Seq)
	}
	var err error
	if rec.Add {
		_, err = sv.dyn.AddEdge(ctx, rec.U, rec.V)
	} else {
		_, err = sv.dyn.RemoveEdge(ctx, rec.U, rec.V)
	}
	return err
}

// Restore replaces the engine with the shipped snapshot. The old engine is
// closed after the swap; snapshots already pinned by in-flight requests
// keep answering (RCU — closing an index never invalidates its snapshots).
func (rf *replicaFollower) Restore(ctx context.Context, snapshot []byte) error {
	dyn, err := resistecc.LoadSnapshotBytes(snapshot)
	if err != nil {
		return err
	}
	ids, err := rf.fetchIDs(ctx)
	if err != nil {
		dyn.Close()
		return err
	}
	old := rf.s.cur.Swap(&serving{dyn: dyn, ids: ids})
	if old != nil {
		old.dyn.Close()
	}
	return nil
}

// fetchIDs pulls the writer's id mapping, rebuilt on every restore — the
// shipped graph and the mapping must describe the same state.
func (rf *replicaFollower) fetchIDs(ctx context.Context) (*graph.IDMap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rf.upstream+"/v1/repl/ids", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rf.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("reccd: id-map fetch: writer answered %s", resp.Status)
	}
	var body struct {
		ToExternal []int64 `json:"toExternal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("reccd: decoding id map: %w", err)
	}
	return graph.NewIDMap(body.ToExternal), nil
}

// newReplicaServer builds a read replica: it blocks until one full sync
// against the writer succeeds (retrying while ctx lives), then keeps
// converging in the background. A writer on another format version fails
// the start at once: retrying cannot heal ErrVersion. The returned server serves the same /v1
// read surface as a writer; mutations answer 403.
func newReplicaServer(ctx context.Context, cfg Config) (*server, error) {
	s := &server{
		role: roleReplica,
		cfg:  cfg.Server,
		reg:  obs.NewRegistry("reccd"),
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	follower := &replicaFollower{s: s, upstream: cfg.Upstream, client: client}
	tailer, err := repl.NewTailer(repl.TailerConfig{
		Upstream: cfg.Upstream,
		Follower: follower,
		Client:   client,
		Interval: cfg.PollInterval,
	})
	if err != nil {
		return nil, err
	}
	s.tailer = tailer

	// First sync, inline: the replica must not listen before it can answer.
	start := time.Now()
	for {
		err := tailer.Sync(ctx)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, persist.ErrVersion) {
			s.close()
			return nil, fmt.Errorf("initial sync against %s: %w", cfg.Upstream, err)
		}
		log.Printf("reccd: initial sync against %s: %v; retrying", cfg.Upstream, err)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Second):
		}
	}
	s.buildTime = time.Since(start)
	sv := s.current()
	s.totalNodes = sv.dyn.Snapshot().N
	s.totalEdges = sv.dyn.Snapshot().M
	// Replicas record too: the shared query handlers hook the recorder, so a
	// replica's trace captures the read workload it served.
	if err := s.openRecorder(); err != nil {
		s.close()
		return nil, err
	}
	s.publishBuildGauges()
	s.publishLifecycleGauges()
	s.publishReplicaMetrics()
	s.stop = tailer.Start(ctx)
	return s, nil
}
