package workflow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"scan/internal/align"
	"scan/internal/knowledge"
	"scan/internal/memo"
	"scan/internal/proteome"
	"scan/internal/shard"
	"scan/internal/variant"
)

// Engine executes catalogued workflows: it walks a workflow's stage chain,
// binds each stage to a registered StageExecutor, and provides every stage
// with the platform substrate — the Data Broker's shard-size advice, a
// bounded context-aware worker pool, and per-shard run logging back into
// the knowledge base. The engine holds no per-run state and is safe for
// concurrent Run calls; across runs it keeps only the kernel indexes of
// the latest reference payloads (refIndexMax).
type Engine struct {
	catalogue *Registry
	execs     *ExecutorRegistry
	kb        *knowledge.Base
	workers   int
	// aligners and peptideIndexes remember the seed index and the
	// fragment-ion index built over reference payloads, so a job over a
	// reference an earlier job used does not rebuild its index.
	aligners       memo.Memo[any, *align.Aligner]
	peptideIndexes memo.Memo[any, *proteome.Index]
}

// refIndexMax bounds each of an engine's reference-index memos: a job over
// another reference replaces the one index it remembers, so the memo holds
// at most the index any job over that reference holds while it runs. A
// key is the payload's identity (keyOf: its first element and length)
// alone, since every stage builds its index with the kernel's default
// config. A key holds the payload's storage, so no other slice takes its
// identity while remembered. Payloads are never mutated (the registry's
// zero-copy rule), so one key means one index.
const refIndexMax = 1

// EngineOptions configures an Engine.
type EngineOptions struct {
	// Catalogue is the workflow registry RunByName resolves against
	// (default: DefaultCatalogue()).
	Catalogue *Registry
	// Executors binds stage names/tools to implementations
	// (default: DefaultExecutors()).
	Executors *ExecutorRegistry
	// KB is consulted for shard sizing and receives per-shard run logs.
	// With a nil KB, stages that need shard advice fail and no telemetry
	// is recorded.
	KB *knowledge.Base
	// Workers bounds the per-stage worker pool (default: GOMAXPROCS).
	Workers int
}

// recordsPerUnit converts payload records into the knowledge base's
// abstract input-size units (the paper's GB).
const recordsPerUnit = 1000

// NewEngine builds an engine.
func NewEngine(opts EngineOptions) *Engine {
	if opts.Catalogue == nil {
		opts.Catalogue = DefaultCatalogue()
	}
	if opts.Executors == nil {
		opts.Executors = DefaultExecutors()
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		catalogue:      opts.Catalogue,
		execs:          opts.Executors,
		kb:             opts.KB,
		workers:        opts.Workers,
		aligners:       memo.Memo[any, *align.Aligner]{Max: refIndexMax},
		peptideIndexes: memo.Memo[any, *proteome.Index]{Max: refIndexMax},
	}
}

// Catalogue returns the registry RunByName resolves workflow names in.
func (e *Engine) Catalogue() *Registry { return e.catalogue }

// RunOptions tunes one workflow execution.
type RunOptions struct {
	// Caller configures variant-calling stages (zero value: defaults).
	Caller variant.Config
	// ShardRecords, when positive, overrides the Data Broker's sizing: every
	// scattering stage cuts its own records (reads, alignments, spectra,
	// frame rows or nodes) into shards of exactly ShardRecords.
	ShardRecords int
	// StageObserver, when non-nil, is invoked synchronously after each
	// stage completes, with that stage's StageResult (name, tool, scatter
	// width, elapsed time, shard plan). It is the engine's progress
	// surface: scand streams these callbacks to API clients as per-stage
	// events. The callback runs on the engine's goroutine, once per stage
	// in catalogue order, so it must not block on the run it is observing.
	StageObserver func(StageResult)
	// ShardObserver, when non-nil, is invoked for every completed shard
	// with the stage's tool name, the records the shard processed and its
	// wall time — the same observation the engine logs to the knowledge
	// base. It runs on the engine's goroutine once the stage's shards have
	// all completed (on the local pool or the ShardPool), so it must be
	// cheap: scand points it at per-family latency histograms.
	ShardObserver func(tool string, records int, elapsed time.Duration)
	// Barrier is kept only for bench/, which sets it; nothing reads it.
	//
	// Deprecated: every run executes stage by stage behind a barrier.
	Barrier bool
	// ShardPool, when non-nil, executes streaming stages' shard transforms
	// remotely (the distributed worker fleet, internal/fleet) instead of on
	// the engine's local goroutine pool. Each stage's input materializes
	// before its shards dispatch, so a worker can rebuild the stage's
	// stream from that input alone. The local pool stays the default and
	// the equivalence reference; a pool reporting ErrNoWorkers (a fleet
	// with no live workers) falls back to it per stage.
	ShardPool ShardPool
}

// StageResult reports one executed stage.
type StageResult struct {
	// Stage and Tool identify the catalogue stage that ran.
	Stage string
	Tool  string
	// Shards is the scatter width (0 for unscattered stages): the plan's
	// NumShards, or fewer where a stage cuts a reference into regions or
	// bins and it has fewer bases or bins.
	Shards int
	// Elapsed is the stage wall-clock time.
	Elapsed time.Duration
	// Plan is the shard plan over the stage's records (zero for
	// unscattered stages).
	Plan shard.Plan
	// Advice is the Data Broker recommendation that sized the plan (zero
	// when ShardRecords overrode it).
	Advice knowledge.Advice
	// Records counts the input records the stage processed across its
	// shards (0 for pass-through stages) — the local-vs-remote equivalence
	// invariant alongside Output.
	Records int
}

// Result is one workflow execution's outcome.
type Result struct {
	// Workflow is the executed workflow's name.
	Workflow string
	// Output is the final stage's dataset.
	Output *Dataset
	// Stages reports every executed stage in order.
	Stages []StageResult
}

// RecordScatter returns the first stage that scattered — every scattering
// stage carries the plan the Data Broker sized it by — so callers report
// one canonical shard plan regardless of how many stages scattered.
func (r *Result) RecordScatter() (StageResult, bool) {
	for _, sr := range r.Stages {
		if sr.Plan.NumShards > 0 {
			return sr, true
		}
	}
	return StageResult{}, false
}

// Errors returned by the engine.
var (
	ErrTypeMismatch = errors.New("workflow: data type mismatch")
	ErrNoExecutor   = errors.New("workflow: no executor registered")
	ErrNilDataset   = errors.New("workflow: nil dataset")
)

// CanRun reports whether every stage of the workflow has a registered
// executor; the error names the first stage that does not.
func (e *Engine) CanRun(w Workflow) error {
	for _, st := range w.Stages {
		if _, ok := e.execs.Lookup(st.Tool, st.Name); !ok {
			return fmt.Errorf("%w for stage %q (tool %s)", ErrNoExecutor, st.Name, st.Tool)
		}
	}
	return nil
}

// RunByName resolves name in the engine's catalogue and executes it.
func (e *Engine) RunByName(ctx context.Context, name string, in *Dataset, opts RunOptions) (*Result, error) {
	w, err := e.catalogue.Get(name)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, w, in, opts)
}

// Run drives the dataset through the workflow's stage chain. Each stage's
// input type is checked against the catalogue declaration before its
// executor runs, and the executor's output type afterwards, so a
// mis-registered executor cannot silently corrupt the chain.
//
// Stages run one at a time, each behind a barrier: a stage's scatter
// starts only once the previous stage's output is whole. Parallelism is
// per stage, across its shards (see doc.go). Run alone drives a
// StreamingExecutor's stream: it calls Stream, Split, every shard's
// Transform (locally or on the ShardPool) and Gather, never Execute.
func (e *Engine) Run(ctx context.Context, w Workflow, in *Dataset, opts RunOptions) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Workflow: w.Name}
	ds := in
	for i, st := range w.Stages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		exec, env, err := e.bindStage(w, i, ds, opts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var out *Dataset
		if sx, ok := exec.(StreamingExecutor); ok {
			out, err = env.runStream(ctx, sx)
		} else {
			out, err = exec.Execute(ctx, env, ds)
		}
		if err != nil {
			return nil, fmt.Errorf("workflow %s: stage %q: %w", w.Name, st.Name, err)
		}
		if out == nil {
			return nil, fmt.Errorf("workflow %s: stage %q: %w from executor",
				w.Name, st.Name, ErrNilDataset)
		}
		if out.Type != st.Produces {
			return nil, fmt.Errorf("%w: workflow %s stage %q produced %s, catalogue declares %s",
				ErrTypeMismatch, w.Name, st.Name, out.Type, st.Produces)
		}
		sr := env.result
		sr.Elapsed = time.Since(start)
		sr.Records = env.records
		// logShard only buffers: a stage the broker cannot price yet has its
		// first telemetry folded in the background, for the next job's plan.
		if e.kb != nil && sr.Records > 0 {
			if _, ok := e.kb.StageRate(st.Tool, i); !ok {
				e.kb.FoldSoon()
			}
		}
		res.Stages = append(res.Stages, *sr)
		if opts.StageObserver != nil {
			opts.StageObserver(*sr)
		}
		ds = out
	}
	res.Output = ds
	return res, nil
}

// bindStage resolves stage i of w over its input: the executor lookup, the
// input type check, and a fresh environment. Run and PrepareStageShards
// share it, so a fleet worker binds a stage exactly as the coordinator did.
func (e *Engine) bindStage(w Workflow, i int, in *Dataset, opts RunOptions) (StageExecutor, *StageEnv, error) {
	st := w.Stages[i]
	exec, ok := e.execs.Lookup(st.Tool, st.Name)
	if !ok {
		return nil, nil, fmt.Errorf("workflow %s: %w for stage %q (tool %s)",
			w.Name, ErrNoExecutor, st.Name, st.Tool)
	}
	if in == nil {
		return nil, nil, ErrNilDataset
	}
	if in.Type != st.Consumes {
		return nil, nil, fmt.Errorf("%w: workflow %s stage %q consumes %s, dataset is %s",
			ErrTypeMismatch, w.Name, st.Name, st.Consumes, in.Type)
	}
	env := &StageEnv{engine: e, stage: st, index: i, opts: opts,
		result: &StageResult{Stage: st.Name, Tool: st.Tool}, workflow: w.Name, input: in}
	return exec, env, nil
}

// StageEnv is the engine-provided execution environment handed to a
// StageExecutor for one stage of one run: scatter sizing, the bounded
// worker pool, and knowledge-base telemetry.
type StageEnv struct {
	engine *Engine
	stage  Stage
	index  int
	opts   RunOptions
	result *StageResult
	// workflow and input identify the stage for remote dispatch: the
	// workflow name and the stage's materialized input dataset.
	workflow string
	input    *Dataset
	// records accumulates the stage's processed input records (logShard
	// adds to it, on the engine's goroutine); the engine copies it onto
	// the stage result once the stage completes.
	records int
}

// Options returns the run's tuning options.
func (env *StageEnv) Options() RunOptions { return env.opts }

// minShardSeconds is the least predicted work per shard for the Data Broker
// to split past its advised count: fifteen times the cost of one more shard
// (a pool slot, a logShard and its fold, its share of Split and Gather),
// which BenchmarkShardOverhead measures at 17 µs on a 2 vCPU Intel Xeon
// host. The margin covers a rate averaged over past jobs and shared cores.
const minShardSeconds = 15 * 17e-6

// ShardPlan is how every scattering stage sizes its scatter: it plans
// total of the stage's own records into shards. The run's ShardRecords
// override is taken exactly. Otherwise the Data Broker's advice for total
// records gives k = ⌈total/advised⌉ shards. When the KB has an observed
// rate for this (tool, stage), k is priced both ways: rounded up to whole
// waves of the pool (a multiple of Workers, at most total) when that
// predicts each shard at minShardSeconds or more, else cut to the most
// shards that each predict minShardSeconds (at least one). Either way they
// are cut equal. The price is linear in records (rate per record ×
// records). The plan (and advice, when consulted) is recorded on the
// stage result, and RemoteOptions pins it for fleet workers.
func (env *StageEnv) ShardPlan(total int) (shard.Plan, error) {
	var plan shard.Plan
	var err error
	if per := env.opts.ShardRecords; per > 0 {
		plan, err = shard.PlanByRecords(total, per)
	} else {
		kb := env.engine.kb
		if kb == nil {
			return shard.Plan{}, knowledge.ErrNoKnowledge
		}
		units := float64(total) / recordsPerUnit
		if env.result.Advice, err = kb.ShardAdvice(units); err != nil {
			return shard.Plan{}, fmt.Errorf("data broker: %w", err)
		}
		per = max(int(env.result.Advice.ShardSize*recordsPerUnit), 1)
		k := max((total+per-1)/per, 1)
		if rate, ok := kb.StageRate(env.stage.Tool, env.index); ok {
			w, work := env.engine.workers, rate*units
			if kw := min((k+w-1)/w*w, total); kw > k && work/float64(kw) >= minShardSeconds {
				k = kw
			} else {
				k = min(k, max(1, int(work/minShardSeconds)))
			}
		}
		plan, err = shard.PlanByShards(total, k)
	}
	if err != nil {
		return shard.Plan{}, err
	}
	env.result.Plan = plan
	return plan, nil
}

// pool runs fn(0..n-1) on the engine's bounded worker pool. A cancelled
// context stops new shards from being queued promptly (acquiring a pool
// slot selects on ctx.Done), the first shard error or the cancellation is
// returned, and pool always waits for in-flight shards before returning.
func (env *StageEnv) pool(ctx context.Context, n int, fn func(int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	sem := make(chan struct{}, env.engine.workers)
	errCh := make(chan error, n)
	var wg sync.WaitGroup
queue:
	for i := 0; i < n; i++ {
		// Checked before the select: with a free pool slot AND a
		// cancelled context both select cases are ready and Go picks
		// randomly, so the explicit check is what makes the stop
		// deterministic rather than probabilistic.
		if ctx.Err() != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break queue // stop queueing; drain in-flight shards below
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errCh <- fn(i)
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// logShard feeds one shard's observed execution back into the knowledge
// base, keyed by the stage's tool and position in the workflow — the
// feedback loop that grows per-stage performance profiles. Observations go
// through the knowledge base's batched ingestion buffer (LogRunAsync), so
// concurrent jobs do not serialize on the graph's write lock; they are
// folded in batches and are guaranteed visible after knowledge.Base.Flush
// or any flushing read (Query, FitStageModel, Export). Telemetry must
// never fail an analysis, so errors (and a nil knowledge base) are
// ignored.
func (env *StageEnv) logShard(records int, elapsed time.Duration) {
	env.records += records
	if env.opts.ShardObserver != nil {
		env.opts.ShardObserver(env.stage.Tool, records, elapsed)
	}
	if env.engine.kb == nil {
		return
	}
	_ = env.engine.kb.LogRunAsync(knowledge.RunLog{
		App:       env.stage.Tool,
		Stage:     env.index,
		InputSize: float64(records) / recordsPerUnit,
		Threads:   1,
		ETime:     elapsed.Seconds(),
	})
}

// Workflow returns the running workflow's name.
func (env *StageEnv) Workflow() string { return env.workflow }

// StageIndex returns the stage's position in the workflow chain.
func (env *StageEnv) StageIndex() int { return env.index }

// Input returns the stage's materialized input dataset.
func (env *StageEnv) Input() *Dataset { return env.input }

// RemoteOptions pins the run options a remote worker needs to rebuild this
// stage's stream deterministically without a knowledge base: the shard
// plan the coordinator's Split already decided, as its records per shard.
// PlanByShards cuts equal shards, so PlanByRecords over the same total
// gives the worker the same count, and its Split produces byte-identical
// shards without consulting the Data Broker. Scheduling-only fields
// (ShardPool, StageObserver) are dropped.
func (env *StageEnv) RemoteOptions() RunOptions {
	opts := RunOptions{
		Caller:       env.opts.Caller,
		ShardRecords: env.opts.ShardRecords,
	}
	if env.result.Plan.NumShards > 0 {
		opts.ShardRecords = env.result.Plan.RecordsPerShard
	}
	return opts
}

// EstimateShardCost predicts one shard's serial execution time in seconds
// from the Data Broker's fitted model for this (tool, stage) pair — the
// fleet coordinator's input to its hire economics. Returns fallback when
// the KB is nil or cannot regress the stage yet.
func (env *StageEnv) EstimateShardCost(records int, fallback float64) float64 {
	if env.engine.kb == nil {
		return fallback
	}
	units := float64(records) / recordsPerUnit
	est, err := env.engine.kb.EstimateStageCost(env.stage.Tool, env.index, units)
	if err != nil || est.Seconds <= 0 {
		return fallback
	}
	return est.Seconds
}
