package workflow

// The worker half of the fleet's "one executor path" invariant: a remote
// worker executes exactly the StageStream transforms the local pool would,
// by rebuilding the stage's stream from its materialized input and the
// coordinator-pinned options (StageEnv.RemoteOptions) and re-running Split
// locally. Split is deterministic given (input dataset, pinned options) —
// the shard plan is pinned, region widths are pinned, and no Data Broker
// is consulted — so the worker's shards are byte-identical to the
// coordinator's and a dispatch needs to name only a shard index.

import (
	"context"
	"fmt"
)

// ErrNotStreaming reports a remote dispatch against a stage whose executor
// has no stream — such stages (filters, merges, passthroughs) always run
// on the coordinator.
var ErrNotStreaming = fmt.Errorf("workflow: stage is not streaming-capable")

// StagePrep is a prepared stage stream on a worker: the stream plus its
// local re-Split, reusable across every shard of the same (workflow,
// stage, input, options) dispatch — workers cache it so per-stage setup
// (aligner index build, region partitioning) is paid once, not per shard.
// RunShard is safe for concurrent use with distinct shard indices.
type StagePrep struct {
	env    *StageEnv
	stream StageStream
	shards []StreamShard
}

// PrepareStageShards resolves the named workflow's stage, rebuilds its
// stream over the materialized input with the given (coordinator-pinned)
// options, and re-Splits it. Scheduling-only options are ignored: the prep
// never observes or re-dispatches remotely.
func (e *Engine) PrepareStageShards(workflow string, stageIdx int, in *Dataset, opts RunOptions) (*StagePrep, error) {
	w, err := e.catalogue.Get(workflow)
	if err != nil {
		return nil, err
	}
	if stageIdx < 0 || stageIdx >= len(w.Stages) {
		return nil, fmt.Errorf("workflow %s: stage index %d out of range [0,%d)",
			workflow, stageIdx, len(w.Stages))
	}
	st := w.Stages[stageIdx]
	exec, ok := e.execs.Lookup(st.Tool, st.Name)
	if !ok {
		return nil, fmt.Errorf("workflow %s: %w for stage %q (tool %s)",
			workflow, ErrNoExecutor, st.Name, st.Tool)
	}
	sx, ok := exec.(StreamingExecutor)
	if !ok {
		return nil, fmt.Errorf("%w: workflow %s stage %q (tool %s)",
			ErrNotStreaming, workflow, st.Name, st.Tool)
	}
	if in == nil {
		return nil, ErrNilDataset
	}
	if in.Type != st.Consumes {
		return nil, fmt.Errorf("%w: workflow %s stage %q consumes %s, dataset is %s",
			ErrTypeMismatch, workflow, st.Name, st.Consumes, in.Type)
	}
	opts.ShardPool = nil
	opts.StageObserver = nil
	opts.ShardObserver = nil
	sr := StageResult{Stage: st.Name, Tool: st.Tool}
	env := &StageEnv{engine: e, stage: st, index: stageIdx, opts: opts, result: &sr}
	stream, ok, err := sx.Stream(env, in)
	if err != nil {
		return nil, fmt.Errorf("workflow %s: stage %q: %w", workflow, st.Name, err)
	}
	if !ok {
		return nil, fmt.Errorf("%w: workflow %s stage %q declined to stream",
			ErrNotStreaming, workflow, st.Name)
	}
	shards, err := stream.Split()
	if err != nil {
		return nil, fmt.Errorf("workflow %s: stage %q split: %w", workflow, st.Name, err)
	}
	return &StagePrep{env: env, stream: stream, shards: shards}, nil
}

// NumShards returns the local re-Split's width — a dispatch whose shard
// index falls outside it signals coordinator/worker divergence.
func (p *StagePrep) NumShards() int { return len(p.shards) }

// RunShard transforms shard i, returning its output and the input record
// count (the coordinator's telemetry unit for the shard).
func (p *StagePrep) RunShard(ctx context.Context, i int) (StreamShard, int, error) {
	if i < 0 || i >= len(p.shards) {
		return StreamShard{}, 0, fmt.Errorf("workflow: shard index %d out of range [0,%d)",
			i, len(p.shards))
	}
	out, err := p.stream.Transform(ctx, i, p.shards[i])
	if err != nil {
		return StreamShard{}, 0, err
	}
	return out, p.shards[i].Records, nil
}
