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
//	                                   scatter shape (record shards,
//	                                   genomic regions, spectrum shards,
//	                                   image tiles, node partitions)
//	engine (engine.go)                 drives a typed Dataset through the
//	                                   stage chain with per-stage
//	                                   scatter/gather: shard sizes asked
//	                                   of the knowledge base, shards run
//	                                   on a bounded context-aware worker
//	                                   pool, per-shard timings logged back
//	                                   into the knowledge base
//	pipelined executor (streaming.go,  overlaps adjacent record-scattered
//	pipeline.go)                       stages by streaming shards between
//	                                   them instead of barriering at each
//	                                   stage boundary, with dispatch order
//	                                   chosen by a knowledge-base cost
//	                                   oracle
//	platform / rpc (internal/core,     core.Platform wraps the engine for
//	internal/rpc)                      variant calling; scand exposes
//	                                   "submit workflow by name" over HTTP
//
// Adding a workload is a catalogue entry plus (at most) an executor
// registration — not a hand-rolled pipeline.
//
// # Pipelined shard streaming
//
// By default Engine.Run pipelines maximal runs of streaming-capable stages
// (RunOptions.Barrier restores strict per-stage barriers). A stage opts in
// by implementing StreamingExecutor: it exposes its scatter/transform/gather
// shape as a StageStream, and the engine overlaps adjacent stages — a
// downstream stage's shard i starts the moment the upstream stage finishes
// its shard i, on a bounded worker pool shared across every in-flight stage
// of the segment. Pass-through stages (PassthroughExecutor) let shards flow
// straight through. When more shards are ready than workers, dispatch order
// follows HEFT-style upward ranks computed from the knowledge base's cost
// oracle (internal/knowledge.ChainCosts — an O(1), unflushed read of
// per-stage regression accumulators, answering once a stage has run at two
// shard sizes): shards with the most expensive remaining downstream work
// run first.
//
// The streaming contract:
//
//   - Split runs only on the segment's first stage; Gather only on its
//     last. Intermediate stages see shards exclusively through Transform,
//     indexed 1:1 with the head's scatter.
//   - Stream receives the SEGMENT input dataset, so a downstream stage must
//     draw configuration from the accumulating context fields (Reference,
//     PeptideDB, ...), never from payload fields it would have received
//     behind a barrier.
//   - Transform must be safe for concurrent calls with distinct shard
//     indices, must poll ctx inside long per-record loops, and must not
//     call StageEnv.LogShard — the engine times and logs every pipelined
//     shard itself.
//   - Gather must be deterministic in shard index order.
//
// # Determinism guarantee
//
// Pipelined and barrier execution produce identical results: streaming
// executors implement Execute via runStreamBarrier, so both schedulers run
// the exact same Split/Transform/Gather code and differ only in when each
// shard runs (and, with RunOptions.RefineScatter, how wide the scatter
// is). Because every Gather is
// deterministic in shard index order and every Transform is a pure function
// of its input shard, Result.Output and per-stage record counts are
// identical under either scheduler, and StageObserver still fires exactly
// once per completed stage in catalogue order — the engine buffers
// out-of-order pipelined completions until every earlier stage has
// finished.
package workflow
