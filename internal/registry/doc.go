// Package registry is SCAN's dataset registry: a bounded, concurrency-safe
// store of named, uploaded datasets that jobs reference by id or name
// instead of shipping records inside every submission — the platform, not
// the client, owns data movement.
//
// Two halves:
//
//   - Streaming decoders (decode.go), one per dataset family — FASTQ reads,
//     FASTA references, MGF spectra plus their peptide database, PGM-encoded
//     microscopy frames, and feature tables. Each parses its upload
//     record-by-record off the wire, never buffering the raw body, and
//     enforces its byte and record caps mid-stream: an oversized body
//     aborts the decode after at most the cap is consumed. Every consumed
//     byte is SHA-256-hashed, so a stored dataset carries a content hash
//     alongside record and byte accounting.
//
//   - The Store (registry.go): named datasets with opaque ids, resolved by
//     either. Capacity is bounded in datasets and bytes; when an upload
//     would exceed a bound, the oldest datasets not pinned by an unfinished
//     job are evicted retention-style (mirroring the job store's
//     terminal-job eviction), and a submission naming an evicted dataset
//     gets a machine-readable not-found. Each dataset records the tenant
//     that committed it, and the commit checks that owner's Quota in the
//     same step that stores the dataset, before any dedup or eviction.
//
// Scatter/gather shape: the registry sits before the scatter — it is the
// staging area the Data Broker shards from. A job that references a dataset
// builds its workflow input around the store's slices (no per-job copy;
// the registry holds the one copy of the records), and the engine's
// stage executors scatter those records exactly as they scatter inline or
// synthetic payloads.
//
// Determinism guarantee: decoding is a pure function of the upload bytes —
// identical bodies yield identical payloads, hashes and accounting — and
// because jobs alias rather than copy the stored records, two jobs
// referencing the same dataset run over byte-identical inputs and produce
// identical results (given equal run options). Store ids are assigned
// sequentially and eviction order is insertion order, so registry behavior
// under load is reproducible too.
package registry
