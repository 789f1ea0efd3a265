package workflow

import (
	"context"
	"errors"
	"time"
)

// ErrNoWorkers is returned by a ShardPool that currently has no remote
// capacity. The engine treats it as "run this stage on the local pool
// instead" rather than failing the stage, so a coordinator with an empty
// roster degrades to exactly the single-process behavior.
var ErrNoWorkers = errors.New("workflow: shard pool has no workers")

// ShardPool executes one streaming stage's shard transforms on behalf of
// the engine — the seam a distributed worker fleet (internal/fleet) plugs
// into via RunOptions.ShardPool. The engine Splits the stage locally and
// hands the pool the resulting shards; implementations must return outs
// indexed 1:1 with shards, call env.LogShard exactly once per completed
// shard with the remotely observed execution time (so fleet runs feed the
// same Data Broker telemetry as local ones), and honor ctx cancellation.
// Returning an error wrapping ErrNoWorkers makes the engine fall back to
// the local pool for this stage; any other error fails the stage.
//
// Remote and local shard pools share one executor path: a pool executes
// the same StageStream transforms runStreamBarrier would (a worker
// rebuilds the stream via Engine.RunStageShard from the stage's input and
// pinned options) — there is no separate remote Execute.
type ShardPool interface {
	RunShards(ctx context.Context, env *StageEnv, shards []StreamShard) ([]StreamShard, error)
}

// StreamShard is one unit of a stage's scatter: a stage-specific payload
// plus the record count the engine uses for shard telemetry and cost
// estimation.
type StreamShard struct {
	// Records counts the payload's records (reads, spectra, alignments ...).
	Records int
	// Data is the stage-specific payload: Split's output type is the
	// Transform input type, and Transform's output type is Gather's input.
	// Types that cross the fleet wire are registered in wire.go.
	Data any
}

// StreamingExecutor is the optional StageExecutor extension that exposes a
// stage's Split/Transform/Gather shape, so its shard transforms can run on
// the local pool or on remote fleet workers. Executors that do not
// implement it (filters, merges, pass-throughs) always run whole on the
// coordinator.
type StreamingExecutor interface {
	StageExecutor
	// Stream prepares one run's stream over the stage's materialized
	// input. ok=false only makes PrepareStageShards refuse remote dispatch
	// (ErrNotStreaming); no executor returns it, and the result stays
	// because bench/ decorates this signature.
	Stream(env *StageEnv, in *Dataset) (st StageStream, ok bool, err error)
}

// StageStream is one stage's scatter, per-shard transform, and gather.
type StageStream interface {
	// Split scatters the stage's input into shards. Implementations size
	// record scatters through env.RecordShardSize, so the Data Broker's
	// plan and advice land on the stage result. Given the same input and
	// pinned options, Split must return the same shards, so a fleet
	// worker's re-Split matches the coordinator's.
	Split() ([]StreamShard, error)
	// Transform processes shard i. Concurrent calls with distinct i must
	// be safe; the caller times each call and logs it as the stage's shard
	// telemetry, so implementations must not call env.LogShard themselves.
	// Long per-record loops must poll ctx periodically so a cancellation
	// stops mid-shard, not only between shards.
	Transform(ctx context.Context, i int, in StreamShard) (StreamShard, error)
	// Gather assembles the stage's output shards (indexed by shard, all
	// present) into its output dataset. The merge must be deterministic in
	// the shard index order so local and remote execution produce
	// identical outputs.
	Gather(shards []StreamShard) (*Dataset, error)
}

// PassthroughExecutor marks executors that return their input unchanged;
// kept only for bench/, its only reader.
type PassthroughExecutor interface {
	StageExecutor
	// StreamPassthrough is a marker method; implementations do nothing.
	StreamPassthrough()
}

// runStreamBarrier executes a stage stream: split, transform every shard,
// gather. Streaming executors implement Execute with it, so there is one
// per-shard implementation. The transforms run on the stage-local pool or,
// when the run carries a remote ShardPool, on fleet workers — same Split,
// same Gather, same telemetry — with a per-stage fallback to the local
// pool when the fleet has no capacity.
func runStreamBarrier(ctx context.Context, env *StageEnv, st StageStream) (*Dataset, error) {
	shards, err := st.Split()
	if err != nil {
		return nil, err
	}
	if pool := env.opts.ShardPool; pool != nil && env.remoteable() {
		outs, rerr := pool.RunShards(ctx, env, shards)
		if rerr == nil {
			env.result.Shards = len(shards)
			return st.Gather(outs)
		}
		if !errors.Is(rerr, ErrNoWorkers) {
			return nil, rerr
		}
		// No remote capacity right now: run this stage on the local pool.
	}
	outs := make([]StreamShard, len(shards))
	err = env.Pool(ctx, len(shards), func(i int) error {
		start := time.Now()
		out, err := st.Transform(ctx, i, shards[i])
		if err != nil {
			return err
		}
		env.LogShard(shards[i].Records, time.Since(start))
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st.Gather(outs)
}
