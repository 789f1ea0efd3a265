package workflow

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrNoWorkers is returned by a ShardPool that currently has no remote
// capacity. The engine treats it as "run this stage on the local pool
// instead" rather than failing the stage, so a coordinator with an empty
// roster degrades to exactly the single-process behavior.
var ErrNoWorkers = errors.New("workflow: shard pool has no workers")

// ErrNotStreaming reports a stream request against a stage whose executor
// has no stream — such stages (filters, merges, passthroughs) always run
// whole on the coordinator.
var ErrNotStreaming = errors.New("workflow: stage is not streaming-capable")

// ShardPool executes one streaming stage's shard transforms on behalf of
// the engine — the seam a distributed worker fleet (internal/fleet) plugs
// into via RunOptions.ShardPool. The engine Splits the stage and hands the
// pool the resulting shards; implementations must return outs and each
// shard's observed transform time, both indexed 1:1 with shards, and honor
// ctx cancellation. The engine logs those times as the stage's shard
// telemetry, exactly as it logs the local pool's. Returning an error
// wrapping ErrNoWorkers makes the engine run the stage on its local pool
// instead; any other error fails the stage.
//
// A remote pool runs the same StageStream transforms as the local pool: a
// worker rebuilds the stream with Engine.PrepareStageShards from the
// stage's input and pinned options, and calls StagePrep.RunShard.
type ShardPool interface {
	RunShards(ctx context.Context, env *StageEnv, shards []StreamShard) ([]StreamShard, []time.Duration, error)
}

// StreamShard is one unit of a stage's scatter: a stage-specific payload
// plus the record count the engine uses for shard telemetry and cost
// estimation.
type StreamShard struct {
	// Records counts the payload's records (reads, spectra, alignments ...).
	Records int
	// Data is the stage-specific payload: Split's output type is the
	// Transform input type, and Transform's output type is Gather's input.
	// Types that cross the fleet wire each have an entry in wire.go's payloads.
	Data any
}

// chunkShards makes one shard of each chunk, counting its records.
func chunkShards[T any](chunks [][]T) []StreamShard {
	shards := make([]StreamShard, len(chunks))
	for i, c := range chunks {
		shards[i] = StreamShard{Records: len(c), Data: c}
	}
	return shards
}

// shardData returns the shards' payloads, each of type T, in shard order.
// A payload of another type — a remote worker's well-formed answer of the
// wrong kind, or none — is an error naming the shard, so the stage fails
// and the process lives.
func shardData[T any](shards []StreamShard) ([]T, error) {
	data := make([]T, len(shards))
	for i, sh := range shards {
		d, ok := sh.Data.(T)
		if !ok {
			return nil, fmt.Errorf("workflow: shard %d's output is %T, want %T", i, sh.Data, d)
		}
		data[i] = d
	}
	return data, nil
}

// StreamingExecutor is the StageExecutor extension for scattering stages:
// Engine.Run calls Stream and drives the stage's Split/Transform/Gather
// itself, on the local pool or on remote fleet workers, and never calls
// Execute. Executors that do not implement it (filters, merges,
// pass-throughs) run whole through Execute on the coordinator.
type StreamingExecutor interface {
	StageExecutor
	// Stream prepares one run's stream over the stage's materialized
	// input. ok=false fails the stage with ErrNotStreaming; no executor
	// returns it, and the result stays because bench/ decorates this
	// signature.
	Stream(env *StageEnv, in *Dataset) (st StageStream, ok bool, err error)
}

// streamer is a scattering stage: it implements only Stream.
type streamer interface {
	Stream(env *StageEnv, in *Dataset) (StageStream, bool, error)
}

// streamOnly registers a streamer as a StreamingExecutor. Its Execute
// exists to satisfy StageExecutor — the registry's entry type — and is
// never called by the engine, so no streaming stage can own a second,
// local-only execution path.
type streamOnly struct{ streamer }

func (s streamOnly) Execute(context.Context, *StageEnv, *Dataset) (*Dataset, error) {
	return nil, fmt.Errorf("workflow: %T is a stage stream; only Engine.Run executes it", s.streamer)
}

// StageStream is one stage's scatter, per-shard transform, and gather.
type StageStream interface {
	// Split scatters the stage's input into shards. Implementations size
	// every scatter through env.ShardPlan over the stage's own records, so
	// the Data Broker's plan and advice land on the stage result. Given the same input and
	// pinned options, Split must return the same shards, so a fleet
	// worker's re-Split matches the coordinator's.
	Split() ([]StreamShard, error)
	// Transform processes shard i. Concurrent calls with distinct i must
	// be safe; the engine times each call and logs it as the stage's shard
	// telemetry. Long per-record loops must poll ctx periodically so a
	// cancellation stops mid-shard, not only between shards.
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

// StagePrep is a stage's prepared stream: the stream plus its Split. The
// engine drives one per streaming stage; a fleet worker builds one with
// PrepareStageShards and caches it, so per-stage setup (aligner index
// build, region partitioning) is paid once, not per shard. RunShard is
// safe for concurrent use with distinct shard indices.
type StagePrep struct {
	env    *StageEnv
	stream StageStream
	shards []StreamShard
}

// prepare opens the stage's stream over its input and Splits it.
func (env *StageEnv) prepare(sx StreamingExecutor) (*StagePrep, error) {
	stream, ok, err := sx.Stream(env, env.input)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: Stream declined", ErrNotStreaming)
	}
	shards, err := stream.Split()
	if err != nil {
		return nil, fmt.Errorf("split: %w", err)
	}
	return &StagePrep{env: env, stream: stream, shards: shards}, nil
}

// runStream drives one streaming stage: prepare, transform every shard on
// the run's ShardPool — or on the local pool when there is none or it has
// no workers — log each shard once, and gather.
func (env *StageEnv) runStream(ctx context.Context, sx StreamingExecutor) (*Dataset, error) {
	p, err := env.prepare(sx)
	if err != nil {
		return nil, err
	}
	var outs []StreamShard
	var elapsed []time.Duration
	err = ErrNoWorkers
	if pool := env.opts.ShardPool; pool != nil {
		outs, elapsed, err = pool.RunShards(ctx, env, p.shards)
	}
	if errors.Is(err, ErrNoWorkers) {
		outs, elapsed, err = p.runLocal(ctx)
	}
	if err != nil {
		return nil, err
	}
	env.result.Shards = len(p.shards)
	for i, s := range p.shards {
		env.logShard(s.Records, elapsed[i])
	}
	return p.stream.Gather(outs)
}

// runLocal transforms every shard on the engine's bounded worker pool.
func (p *StagePrep) runLocal(ctx context.Context) ([]StreamShard, []time.Duration, error) {
	outs := make([]StreamShard, len(p.shards))
	elapsed := make([]time.Duration, len(p.shards))
	err := p.env.pool(ctx, len(p.shards), func(i int) (err error) {
		outs[i], elapsed[i], err = p.RunShard(ctx, i)
		return err
	})
	return outs, elapsed, err
}

// NumShards is how many shards the stage's Split cut.
func (p *StagePrep) NumShards() int { return len(p.shards) }

// RunShard transforms shard i, returning its output and its transform
// time — the stage's shard telemetry.
func (p *StagePrep) RunShard(ctx context.Context, i int) (StreamShard, time.Duration, error) {
	if i < 0 || i >= len(p.shards) {
		return StreamShard{}, 0, fmt.Errorf("workflow: shard index %d out of range [0,%d)",
			i, len(p.shards))
	}
	start := time.Now()
	out, err := p.stream.Transform(ctx, i, p.shards[i])
	return out, time.Since(start), err
}

// PrepareStageShards is a fleet worker's half of the one-executor-path
// invariant: it binds the named workflow's stage exactly as Engine.Run
// does and prepares its stream over the materialized input with the given
// (coordinator-pinned, StageEnv.RemoteOptions) options. Split is
// deterministic given (input, pinned options) — the shard plan is pinned
// and no Data Broker is consulted — so the worker's
// shards are byte-identical to the coordinator's and a dispatch names only
// a shard index. Scheduling-only options are ignored: the prep never
// observes or re-dispatches.
func (e *Engine) PrepareStageShards(workflow string, stageIdx int, in *Dataset, opts RunOptions) (*StagePrep, error) {
	w, err := e.catalogue.Get(workflow)
	if err != nil {
		return nil, err
	}
	if stageIdx < 0 || stageIdx >= len(w.Stages) {
		return nil, fmt.Errorf("workflow %s: stage index %d out of range [0,%d)",
			workflow, stageIdx, len(w.Stages))
	}
	opts.ShardPool = nil
	opts.StageObserver = nil
	opts.ShardObserver = nil
	exec, env, err := e.bindStage(w, stageIdx, in, opts)
	if err != nil {
		return nil, err
	}
	sx, ok := exec.(StreamingExecutor)
	if !ok {
		return nil, fmt.Errorf("%w: workflow %s stage %q (tool %s)",
			ErrNotStreaming, workflow, env.stage.Name, env.stage.Tool)
	}
	p, err := env.prepare(sx)
	if err != nil {
		return nil, fmt.Errorf("workflow %s: stage %q: %w", workflow, env.stage.Name, err)
	}
	return p, nil
}
