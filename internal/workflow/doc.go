// Package workflow is SCAN's analysis-workflow subsystem: the catalogue of
// typed multi-stage pipelines and the engine that executes them.
//
// The catalogue (workflow.go) declares pipelines over genomic, proteomic,
// imaging and integrative data — the four data-process families of the
// paper's Figure 1 — validated for data-type compatibility and exportable
// into the knowledge base as instances of the GenomeAnalysis ontology
// class ("in our ontology we have defined over 10 different genome
// analysis workflows").
//
// The execution path layers on top of it:
//
//	catalogue (Workflow, Registry)     what stages exist, in what order,
//	                                   over which data types
//	executor registry (executor.go,    binds stage names/tools — BWA, GATK,
//	executor_families.go)              MuTect, MaxQuant, GPM, CellProfiler,
//	                                   Cytoscape — to the real
//	                                   implementations in internal/align,
//	                                   internal/variant, internal/proteome,
//	                                   internal/imaging, internal/network;
//	                                   every stage owns its tool-specific
//	                                   scatter shape (read shards,
//	                                   genomic regions, spectrum shards,
//	                                   frame-row bands, node-rank ranges)
//	engine (engine.go)                 drives a typed Dataset through the
//	                                   stage chain with per-stage
//	                                   scatter/gather: every stage's
//	                                   shard count asked of the knowledge
//	                                   base over the stage's own records
//	                                   (StageEnv.ShardPlan), rounded to
//	                                   whole pool waves when its stage
//	                                   rate prices them worth it, equal
//	                                   shards on a bounded worker pool,
//	                                   per-shard timings logged back
//	stage streams (streaming.go,       one Split/Transform/Gather per
//	wire.go)                           scattering stage, driven by the
//	                                   engine on the local pool or on
//	                                   remote fleet workers
//	platform / rpc (internal/core,     core.Platform wraps the engine for
//	internal/rpc)                      variant calling; scand exposes
//	                                   "submit workflow by name" over HTTP
//
// Adding a workload is a catalogue entry plus (at most) an executor
// registration — not a hand-rolled pipeline.
//
// # Stage streams
//
// Engine.Run executes one stage at a time, each behind a barrier; the
// parallelism is across a stage's shards. A scattering stage implements
// StreamingExecutor: it exposes its scatter/transform/gather shape as a
// StageStream, and the engine drives it — Stream, Split, every shard's
// Transform on the run's ShardPool (fleet workers) or on the engine's
// bounded worker pool when there is none or it has no workers, then
// Gather. The engine never calls a streaming executor's Execute, and it
// logs every shard exactly once, with the elapsed time the pool that ran
// it reports. A fleet worker rebuilds the same stream from the stage's
// input and the coordinator-pinned options (PrepareStageShards) and runs
// only Transform, through the same StagePrep.RunShard as the local pool.
//
// The stage contract, shared by the local pool and fleet workers:
//
//   - Split sizes its scatter through StageEnv.ShardPlan alone, over the
//     stage's own records (reads, alignments, spectra, frame rows or
//     nodes), and logs each shard in that unit. It is deterministic given
//     the stage's input and the run options StageEnv.RemoteOptions pins,
//     so a worker's re-Split yields the coordinator's shards and a
//     dispatch names only a shard index.
//   - Transform must be safe for concurrent calls with distinct shard
//     indices and must poll ctx inside long per-record loops; the engine
//     times and logs every shard.
//   - Gather must be deterministic in shard index order.
//
// A kernel index over a reference payload — the aligner's seed index, the
// proteome's fragment-ion index — comes from the engine's memo.Memo of
// its kind, built on the first Transform of the first job over that
// payload and kept, one per kind (refIndexMax), for later jobs over it.
// A stream takes its index loader once, in Stream, never per shard. An index over the job's own sample
// (the network's value index) is built once per stage, in its Split, so
// no shard's logged time holds it.
//
// # Determinism guarantee
//
// Local and remote execution produce identical results by construction:
// the engine alone drives every stage stream, so the local pool and
// fleet workers run the exact same Split/Transform/Gather code and differ
// only in where each shard runs. Because every Gather is deterministic in
// shard index order and every Transform is a pure function of its input
// shard, Result.Output and per-stage record counts are identical either
// way, and StageObserver fires exactly once per completed stage in
// catalogue order.
package workflow
