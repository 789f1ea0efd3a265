// Package core assembles the SCAN platform's public face: the Data Broker
// (knowledge-base-advised sharding), a pool of SCAN workers, and the
// workflow engine that executes every catalogued analysis with the in-repo
// substrates — k-mer aligner and pileup caller for the genomic family,
// spectral peptide matching for the proteomic, tiled cell segmentation for
// the imaging, and partitioned network construction for the integrative
// family.
//
// Two execution surfaces exist: this package runs real analyses on real
// data with goroutine workers (the paper's prototype, scaled to a
// laptop), while package experiment runs the discrete-event simulation
// used for the paper's evaluation figures.
package core

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"

	"scan/internal/blobstore"
	"scan/internal/cloud"
	"scan/internal/knowledge"
	"scan/internal/registry"
	"scan/internal/workflow"
)

// VariantDetectionWorkflow is the catalogued align → call workflow the
// examples and benchmarks run through RunWorkflow.
const VariantDetectionWorkflow = "dna-variant-detection"

// Options configures a Platform.
type Options struct {
	// Workers is the parallel worker count (default: GOMAXPROCS).
	Workers int
	// KB is the application knowledge base; a fresh base seeded with the
	// paper's GATK profiles is created when nil.
	KB *knowledge.Base
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
	kb        *knowledge.Base
	catalogue *workflow.Registry
	engine    *workflow.Engine
	datasets  *registry.Store
	workers   int
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
		Catalogue: catalogue,
		Executors: opts.Executors,
		KB:        opts.KB,
		Workers:   opts.Workers,
	})
	return &Platform{
		kb:        opts.KB,
		catalogue: catalogue,
		engine:    engine,
		datasets:  registry.NewStore(opts.Registry),
		workers:   opts.Workers,
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
