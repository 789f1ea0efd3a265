// Package fleet makes the paper's "in Clouds" literal: a coordinator/worker
// subsystem that dispatches a workflow stage's shards to remote scand
// processes (`scand -role worker -join <coordinator>`) instead of the
// engine's local goroutine pool.
//
// The coordinator implements workflow.ShardPool, so it plugs into the
// engine through RunOptions.ShardPool with the local pool remaining the
// default and the equivalence reference. Remote and local pools share one
// executor path: a worker rebuilds the stage's stream from the stage's
// materialized input and coordinator-pinned options
// (workflow.Engine.PrepareStageShards) and runs the same Split and
// StagePrep.RunShard the engine's local pool does. The coordinator returns
// each shard's worker-observed time and the engine logs it, so remote
// shards feed the Data Broker exactly like local ones.
//
// The data plane is content-addressed: a stage's input ships as parts,
// one per payload field (workflow.ContextParts), each encoded by a
// deterministic binary codec (workflow.EncodeDataset) and named by its
// SHA-256 hash. The coordinator remembers the hash of each payload slice
// it has encoded, so a slice shared by stages or jobs is hashed once, and
// encodes a remembered part again only if a worker fetches it. A worker
// fetches GET /api/v2/blobs/{hash} only for parts its part cache does not
// hold, checks the bytes against the hash and caches the prepared stage
// stream, so a stage's later shards — also those that arrive while the
// first is still fetching — transfer nothing. The coordinator's hash memo
// and the worker's two caches are memo.Memo values, bounded by package
// constants (partMemoMax, workerCacheMax). Shard outputs return as raw
// codec bytes (workflow.EncodeShard) behind a JSON result envelope.
//
// Dispatch is pull-based over HTTP (register, long-poll, result) with
// per-shard timeout, bounded retry, and straggler re-dispatch: the first
// result for a shard wins and duplicates are discarded idempotently. The
// timing and retry values are constants; the coordinator's clock
// (Options.Now) drives every fleet decision, while parking a poll and the
// sweep cadence stay on the wall clock. Hire/release decisions route through scheduler.FleetAdvisor — the
// Section III-A2 scaling economics over live queue depth and Data-Broker
// fitted stage costs. See docs/FLEET.md for the protocol.
package fleet
