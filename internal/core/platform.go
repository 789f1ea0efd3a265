// Package core assembles the SCAN platform's public face: the Data Broker
// (knowledge-base-advised sharding), a pool of SCAN workers, and the
// workflow engine that executes every catalogued analysis with the in-repo
// substrates — k-mer aligner, pileup caller and format codecs for the
// genomic family, spectral peptide matching for the proteomic, tiled cell
// segmentation for the imaging, and partitioned network construction for
// the integrative family.
//
// Two execution surfaces exist: this package runs real analyses on real
// data with goroutine workers (the paper's prototype, scaled to a
// laptop), while package experiment runs the discrete-event simulation
// used for the paper's evaluation figures.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"scan/internal/align"
	"scan/internal/blobstore"
	"scan/internal/cloud"
	"scan/internal/genomics"
	"scan/internal/knowledge"
	"scan/internal/registry"
	"scan/internal/shard"
	"scan/internal/variant"
	"scan/internal/workflow"
)

// VariantDetectionWorkflow is the catalogued workflow RunVariantCalling
// executes.
const VariantDetectionWorkflow = "dna-variant-detection"

// Options configures a Platform.
type Options struct {
	// Workers is the parallel worker count (default: GOMAXPROCS).
	Workers int
	// KB is the application knowledge base; a fresh base seeded with the
	// paper's GATK profiles is created when nil.
	KB *knowledge.Base
	// RecordsPerUnit converts the knowledge base's abstract input-size
	// units (the paper's GB) into read records for the real toolkit
	// (default 1000 records per unit).
	RecordsPerUnit int
	// Catalogue overrides the workflow catalogue (default:
	// workflow.DefaultCatalogue()). Custom deployments register extra
	// workflows on top of the default set before handing it in.
	Catalogue *workflow.Registry
	// Executors overrides the stage-executor bindings (default:
	// workflow.DefaultExecutors()). Custom deployments bind extra tools —
	// tests use it to inject stages with controlled blocking behavior when
	// proving cancellation propagates into a running workflow.
	Executors *workflow.ExecutorRegistry
	// Registry bounds the platform's dataset store (scand sizes it from
	// flags); DataDir's blob-store wiring is layered on top of it.
	Registry registry.Options
	// DataDir, when set, roots the platform's durable state: the blob store
	// and dataset manifest under <dir>/blobs + <dir>/manifest.json (uploads
	// survive restarts, oversize payloads spill to disk instead of being
	// rejected), and the knowledge base's WAL + graph snapshots under
	// <dir>/kb (RunCount and fitted stage costs survive restarts). Empty
	// keeps everything heap-resident and process-local. Use OpenPlatform to
	// surface setup errors.
	DataDir string
	// Logf receives persistence warnings from the durable subsystems
	// (default: silent).
	Logf func(format string, args ...any)
}

// Platform is the SCAN application platform: the workflow catalogue, the
// executor bindings, the engine that runs any catalogued analysis, and the
// dataset registry jobs stage uploads into.
type Platform struct {
	kb             *knowledge.Base
	catalogue      *workflow.Registry
	engine         *workflow.Engine
	datasets       *registry.Store
	workers        int
	recordsPerUnit int
}

// NewPlatform builds a platform, panicking on durable-state setup errors
// (only possible when Options.DataDir is set — use OpenPlatform there).
func NewPlatform(opts Options) *Platform {
	p, err := OpenPlatform(opts)
	if err != nil {
		panic(err)
	}
	return p
}

// OpenPlatform builds a platform, attaching the durable data plane when
// Options.DataDir is set: the dataset registry gains a disk-backed blob
// store (committed uploads and spilled payloads survive restarts; datasets
// over the memory budget spill instead of being rejected) and the knowledge
// base replays its snapshot + WAL before accepting new telemetry. The only
// error sources are that durable setup — a heap-only configuration cannot
// fail.
func OpenPlatform(opts Options) (*Platform, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	catalogue := opts.Catalogue
	if catalogue == nil {
		catalogue = workflow.DefaultCatalogue()
	}
	if opts.Executors == nil {
		opts.Executors = workflow.DefaultExecutors()
	}
	if opts.KB == nil {
		opts.KB = knowledge.New()
		opts.KB.SeedPaperProfiles()
		// Profiles for the proteomic/imaging/integrative tools, so the
		// Data Broker's advice is grounded for every catalogued family.
		opts.KB.SeedFamilyProfiles()
		opts.KB.SeedCloudOntology(cloud.DefaultTiers(50))
		opts.KB.SeedDomainLinks()
		// The full Figure 1 analysis catalogue, queryable over SPARQL.
		if err := catalogue.ExportTo(opts.KB); err != nil {
			panic(err) // static catalogue: failure is a programming error
		}
	}
	if opts.RecordsPerUnit <= 0 {
		opts.RecordsPerUnit = 1000
	}
	if opts.DataDir != "" {
		// Seeding precedes the attach: the snapshot re-imports over the
		// deterministic seed triples (a union), then the WAL replays the
		// accumulated run telemetry on top.
		if err := opts.KB.AttachStorage(knowledge.StorageOptions{
			Dir:  filepath.Join(opts.DataDir, "kb"),
			Logf: opts.Logf,
		}); err != nil {
			return nil, fmt.Errorf("core: knowledge storage: %w", err)
		}
		blobs, err := blobstore.Open(filepath.Join(opts.DataDir, "blobs"))
		if err != nil {
			return nil, fmt.Errorf("core: blob store: %w", err)
		}
		opts.Registry.Blobs = blobs
		opts.Registry.Dir = opts.DataDir
		if opts.Registry.Logf == nil {
			opts.Registry.Logf = opts.Logf
		}
	}
	engine := workflow.NewEngine(workflow.EngineOptions{
		Catalogue:      catalogue,
		Executors:      opts.Executors,
		KB:             opts.KB,
		Workers:        opts.Workers,
		RecordsPerUnit: opts.RecordsPerUnit,
	})
	return &Platform{
		kb:             opts.KB,
		catalogue:      catalogue,
		engine:         engine,
		datasets:       registry.NewStore(opts.Registry),
		workers:        opts.Workers,
		recordsPerUnit: opts.RecordsPerUnit,
	}, nil
}

// KB exposes the platform's knowledge base.
func (p *Platform) KB() *knowledge.Base { return p.kb }

// Flush folds the knowledge base's buffered run-log telemetry into the
// graph. Workflow runs log per-shard observations asynchronously (batched
// ingestion); call Flush at lifecycle boundaries — shutdown, before
// snapshotting — to guarantee nothing is still buffered. Reads through the
// knowledge base's query surface flush automatically.
func (p *Platform) Flush() { p.kb.Flush() }

// Close flushes buffered telemetry and detaches the knowledge base's
// durable storage (the WAL file handle). For a heap-only platform Close is
// just a Flush; either way the platform must not be used afterwards.
func (p *Platform) Close() {
	p.kb.Flush()
	p.kb.CloseStorage()
}

// Workers returns the configured worker count.
func (p *Platform) Workers() int { return p.workers }

// Catalogue exposes the platform's workflow catalogue.
func (p *Platform) Catalogue() *workflow.Registry { return p.catalogue }

// Datasets exposes the platform's dataset registry — the bounded store of
// named uploads jobs reference instead of shipping records per submission.
func (p *Platform) Datasets() *registry.Store { return p.datasets }

// Engine exposes the platform's workflow engine.
func (p *Platform) Engine() *workflow.Engine { return p.engine }

// RunWorkflow executes any catalogued workflow by name over the dataset.
// Cancelling ctx stops the run promptly: the engine checks it between
// stages and every stage's bounded worker pool selects on it while queueing
// shards — scand's DELETE /api/v2/jobs/{id} halts an in-flight analysis by
// cancelling the per-job context it threads into the same Engine.Run.
func (p *Platform) RunWorkflow(ctx context.Context, name string, in *workflow.Dataset, opts workflow.RunOptions) (*workflow.Result, error) {
	return p.engine.RunByName(ctx, name, in, opts)
}

// VariantCallingJob is one end-to-end analysis request: align reads to the
// reference and call variants.
type VariantCallingJob struct {
	Reference genomics.Sequence
	Reads     []genomics.Read
	// Aligner and Caller configurations; zero values use the package
	// defaults.
	Aligner align.Config
	Caller  variant.Config
	// ShardRecords overrides the knowledge base's shard-size advice
	// (records per alignment shard). Zero asks the Data Broker.
	ShardRecords int
	// Regions overrides the number of variant-calling scatter regions
	// (default: the worker count).
	Regions int
}

// StageTiming reports one pipeline stage's wall-clock duration.
type StageTiming struct {
	Stage   string
	Shards  int
	Elapsed time.Duration
}

// VariantCallingResult carries the pipeline outputs.
type VariantCallingResult struct {
	Header     genomics.Header
	Alignments []genomics.Alignment // coordinate-sorted
	Variants   []genomics.Variant   // sorted, deduplicated
	Mapped     int
	ShardPlan  shard.Plan
	Timings    []StageTiming
	// Advice is the Data Broker's recommendation that sized the shards
	// (zero value when ShardRecords overrode it).
	Advice knowledge.Advice
}

// WriteSAM writes the alignments in SAM format.
func (r *VariantCallingResult) WriteSAM(w io.Writer) error {
	h := r.Header
	h.SortOrder = "coordinate"
	return genomics.WriteSAM(w, h, r.Alignments)
}

// WriteVCF writes the variant calls in VCF format.
func (r *VariantCallingResult) WriteVCF(w io.Writer) error {
	return genomics.WriteVCF(w, "SCAN", r.Variants)
}

// ErrNoReads is returned for an empty read set.
var ErrNoReads = errors.New("core: job has no reads")

// RunVariantCalling executes the catalogued dna-variant-detection workflow
// through the workflow engine: shard reads by Data Broker advice →
// parallel align → merge → GATK refinement chain → scatter by region →
// parallel pileup+call → merge VCF. Per-shard stage timings are logged
// back into the knowledge base, growing it exactly the way the paper
// describes. The heavy lifting lives in package workflow; this is the
// typed variant-calling facade over Engine.Run.
func (p *Platform) RunVariantCalling(ctx context.Context, job VariantCallingJob) (*VariantCallingResult, error) {
	if len(job.Reads) == 0 {
		return nil, ErrNoReads
	}
	wres, err := p.engine.RunByName(ctx, VariantDetectionWorkflow,
		workflow.NewFASTQDataset(job.Reference, job.Reads),
		workflow.RunOptions{
			Aligner:      job.Aligner,
			Caller:       job.Caller,
			ShardRecords: job.ShardRecords,
			Regions:      job.Regions,
		})
	if err != nil {
		return nil, err
	}
	out := wres.Output
	res := &VariantCallingResult{
		Header:     out.Header,
		Alignments: out.Alignments,
		Variants:   out.Variants,
		Mapped:     out.Mapped,
	}
	// The record-scattered stage (alignment) carries the Data Broker's
	// shard plan and advice.
	if sr, ok := wres.RecordScatter(); ok {
		res.ShardPlan = sr.Plan
		res.Advice = sr.Advice
	}
	// Report the stages that fanned out; the engine also ran the
	// refinement pass-throughs, but a zero-shard stage has no scatter
	// to time.
	for _, sr := range wres.Stages {
		if sr.Shards > 0 {
			res.Timings = append(res.Timings, StageTiming{
				Stage: sr.Stage, Shards: sr.Shards, Elapsed: sr.Elapsed,
			})
		}
	}
	return res, nil
}
