// Package scan is a from-scratch Go reproduction of "SCAN: A Smart
// Application Platform for Empowering Parallelizations of Big Genomic Data
// Analysis in Clouds" (Xing, Jie, Miller; ICPP 2015).
//
// The platform couples a semantic application knowledge base (triple store
// + SPARQL subset), a Data Broker that shards inputs on record boundaries,
// a reward-driven scheduler that hires workers from a hybrid private/public
// cloud, and an executable workflow engine that runs every catalogued
// analysis across the paper's four data-process families — genomic,
// proteomic, imaging and integrative.
//
// Analysis execution is layered:
//
//	internal/workflow   the workflow catalogue (the paper's "over 10
//	                    different genome analysis workflows") plus the
//	                    engine that executes them: a StageExecutor
//	                    registry binds catalogue stages (BWA, GATK,
//	                    MuTect, MaxQuant, GPM, CellProfiler, Cytoscape)
//	                    to the in-repo substrates, and Engine.Run drives
//	                    typed datasets through each stage chain with
//	                    knowledge-base-advised scatter/gather on a
//	                    bounded worker pool; each tool family owns its
//	                    scatter shape — FASTQ record shards and genomic
//	                    regions (internal/align, internal/variant),
//	                    spectrum shards (internal/proteome), overlapped
//	                    image tiles (internal/imaging), graph partitions
//	                    (internal/network)
//	internal/core       the platform facade: Platform.RunWorkflow runs
//	                    any catalogued analysis by name (the examples
//	                    run dna-variant-detection through it)
//	internal/registry   the dataset registry: a bounded store of named,
//	                    streaming-decoded uploads (FASTQ reads, MGF
//	                    spectra + peptide databases, microscopy frames,
//	                    feature tables, and reference genomes) that jobs
//	                    reference by id instead of shipping records per
//	                    submission — the registry holds the one copy and
//	                    evicts oldest unreferenced datasets when full
//	internal/rpc        scand's HTTP interface. /api/v2 is the
//	                    resource-oriented job surface: submissions carry
//	                    a synthetic dataset spec for any family
//	                    (sequencing reads, MS/MS spectra, microscopy
//	                    frames, gene measurements), inline FASTQ
//	                    records, or a reference to a registered dataset
//	                    (POST /api/v2/datasets uploads one, decoded
//	                    record-by-record off the wire), jobs expose a
//	                    structured result with the engine's per-stage
//	                    breakdown, DELETE cancels pending and running
//	                    jobs through a per-job context, listing is
//	                    filtered and paginated over a bounded store with
//	                    terminal-job retention, and GET /jobs/{id}/events
//	                    streams state transitions and stage completions
//	                    as SSE. /api/v1 (the paper-prototype RPC shape)
//	                    stays wire-compatible for old clients. scanctl is
//	                    the client: submit/watch/cancel/paged jobs plus
//	                    dataset upload/list/rm.
//
// The Data Broker's knowledge base is built for the hot path: shard
// advice is served from a materialized profile cache invalidated by a
// profile-only epoch (bumped by profile writes, imports and seeding — but
// not by run-log folds, which can never change the profile list), and
// per-shard run-log telemetry goes through a bounded buffer that a
// background flusher folds into the graph in batches — one lock
// acquisition per batch instead of per shard. knowledge.Base.Flush is the
// barrier (wired into rpc.Server.Close and core.Platform.Flush); queries,
// exports and model fitting flush automatically, so buffered observations
// are never invisible. Every family's executors log per-shard telemetry
// under their own tool names, so the broker accumulates profiles for all
// of Figure 1, not just the GATK chain.
//
// Two execution surfaces are provided: real parallel analysis on
// synthetic genomic data (internal/core on top of internal/workflow), and
// the discrete-event simulation used to regenerate the paper's evaluation
// (internal/experiment).
package scan
