package resistecc

import (
	"context"
	"fmt"

	"resistecc/internal/graph"
	"resistecc/internal/trace"
)

// indexExecutor replays trace records directly against a DynamicIndex,
// translating the trace's external node ids through the same label mapping
// the recording server used so digests come out bit-identical.
type indexExecutor struct {
	d   *DynamicIndex
	ids *graph.IDMap
}

// TraceExecutor adapts a DynamicIndex into a trace replay target.
// toExternal maps internal node index i to its external (edge-list label)
// id, exactly as the serving layer's id map does; queries, mutations and
// digests all pass through it. The executor serializes operations the way
// the replayer issues them — it adds no locking of its own.
func TraceExecutor(d *DynamicIndex, toExternal []int64) trace.Executor {
	return &indexExecutor{d: d, ids: graph.NewIDMap(toExternal)}
}

func (e *indexExecutor) resolve(ext int64) (int, error) {
	i, ok := e.ids.Internal(ext)
	if !ok {
		return 0, fmt.Errorf("resistecc: trace references unknown node %d", ext)
	}
	return i, nil
}

func (e *indexExecutor) Do(ctx context.Context, rec trace.Record) (trace.OpResult, error) {
	switch rec.Op {
	case trace.OpQuery, trace.OpBatchQuery:
		return e.query(rec.Args)
	case trace.OpAddEdge, trace.OpRemoveEdge:
		return e.mutate(ctx, rec)
	case trace.OpRebuild:
		gen, err := e.d.RebuildAndWait(ctx)
		if err != nil {
			return trace.OpResult{}, err
		}
		return trace.OpResult{Gen: gen, Digest: trace.DigestGen(gen)}, nil
	case trace.OpCheckpoint:
		// A checkpoint runs behind the queued ops. A non-durable target
		// skips the disk write but waits for the same ops, so the generation
		// it reports is the one the recording server stamped.
		var err error
		if e.d.store != nil {
			err = e.d.Checkpoint()
		} else {
			err = e.d.WaitIdle(ctx)
		}
		if err != nil {
			return trace.OpResult{}, err
		}
		gen := e.d.Snapshot().Generation
		return trace.OpResult{Gen: gen, Digest: trace.DigestGen(gen)}, nil
	}
	return trace.OpResult{}, fmt.Errorf("resistecc: trace record %d has unknown op %d", rec.Seq, rec.Op)
}

func (e *indexExecutor) query(ext []int64) (trace.OpResult, error) {
	nodes := make([]int, len(ext))
	for i, x := range ext {
		n, err := e.resolve(x)
		if err != nil {
			return trace.OpResult{}, err
		}
		nodes[i] = n
	}
	// Pin one snapshot so the generation reported matches the generation
	// that answered, exactly like the serving handler.
	snap := e.d.Snapshot()
	buf := GetBatchBuf()
	defer buf.Release()
	out, err := snap.Index.QueryBatch(nodes, buf)
	if err != nil {
		return trace.OpResult{}, err
	}
	res := make([]trace.EccResult, len(out))
	for i, ecc := range out {
		res[i] = trace.EccResult{
			Node:     e.ids.ToExternal[ecc.Node],
			Ecc:      ecc.Value,
			Farthest: e.ids.ToExternal[ecc.Farthest],
		}
	}
	return trace.OpResult{Gen: snap.Generation, Digest: trace.DigestQuery(res)}, nil
}

func (e *indexExecutor) mutate(ctx context.Context, rec trace.Record) (trace.OpResult, error) {
	if len(rec.Args) != 2 {
		return trace.OpResult{}, fmt.Errorf("resistecc: trace mutation record %d has %d args, want 2", rec.Seq, len(rec.Args))
	}
	u, err := e.resolve(rec.Args[0])
	if err != nil {
		return trace.OpResult{}, err
	}
	v, err := e.resolve(rec.Args[1])
	if err != nil {
		return trace.OpResult{}, err
	}
	var res MutationResult
	if rec.Op == trace.OpAddEdge {
		res, err = e.d.AddEdge(ctx, u, v)
	} else {
		res, err = e.d.RemoveEdge(ctx, u, v)
	}
	if err != nil {
		return trace.OpResult{}, err
	}
	return trace.OpResult{
		Gen:    res.Generation,
		Digest: trace.DigestMutation(res.Generation, trace.ModeIncremental, 0),
	}, nil
}
