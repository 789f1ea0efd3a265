package main

// The six workloads. Each is a traffic mix against one kind of scand,
// chosen so that a different set of layers does most of the work; `why`
// is what BENCHMARK.json records. All are closed loop. Sizes are fixed
// here and scaled only by the smoke tests.

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"scan/internal/rpc"
)

// sizes holds every input dimension of the benchmark.
type sizes struct {
	serveTables int // small feature tables uploaded per serve round
	ageRunLogs  int // KB run logs serve-aged reaches before timing

	refLen, reads, snvs int // batch-genomic / fleet-genomic FASTQ

	proteins, spectra   int // batch-families MGF
	frames, side, cells int // batch-families TIFF
	genes, modules      int // batch-families feature table
	inReads             int // ingest-durable FASTQ (reads over a 20 kb reference)
	inSpectra           int // ingest-durable MGF
	inFrames, inSide    int // ingest-durable TIFF
	inGenes, inModules  int // ingest-durable feature table
	warmServe           int // untimed warm-up ops per serve round
}

var fullSizes = sizes{
	serveTables: 50, ageRunLogs: 2400,
	refLen: 100000, reads: 30000, snvs: 40,
	proteins: 200, spectra: 1500,
	frames: 12, side: 512, cells: 12,
	genes: 16000, modules: 200,
	inReads: 18000, inSpectra: 20000, inFrames: 5, inSide: 512, inGenes: 4000, inModules: 400,
	warmServe: 40,
}

// scaled shrinks the sizes for smoke tests (f in (0, 1]); floors keep every
// generator and decoder within its valid range.
func (s sizes) scaled(f float64) sizes {
	if f >= 1 {
		return s
	}
	sc := func(n, floor int) int { return max(int(float64(n)*f), floor) }
	s.serveTables = sc(s.serveTables, 2)
	s.ageRunLogs = sc(s.ageRunLogs, 30)
	s.refLen, s.reads, s.snvs = sc(s.refLen, 4000), sc(s.reads, 1200), sc(s.snvs, 4)
	s.proteins, s.spectra = sc(s.proteins, 10), sc(s.spectra, 200)
	s.frames, s.side, s.cells = sc(s.frames, 1), max(s.side/4, 64), sc(s.cells, 3)
	s.genes, s.modules = sc(s.genes, 60), sc(s.modules, 3)
	s.inReads, s.inSpectra = sc(s.inReads, 1200), sc(s.inSpectra, 200)
	s.inFrames, s.inSide = 1, 128
	s.inGenes, s.inModules = sc(s.inGenes, 60), sc(s.inModules, 6)
	s.warmServe = 4
	return s
}

// inputs is what a workload generated from the seed before any timing.
type inputs struct {
	seed   int64
	tables []*dataset          // serve-*: small feature tables
	named  map[string]*dataset // batch-*, fleet-*, ingest-*: by role
	// ids maps an uploaded dataset's role to its registry id for the
	// current round; set-up writes it before any client goroutine starts.
	ids map[string]string
	// proteins is the oracle's answer for each daemon-generated proteome
	// input of the serve mix, by seed offset.
	proteins [serveSeeds]int
}

// workload is one named traffic mix.
type workload struct {
	name    string
	why     string
	daemon  daemonSpec
	clients int
	// rounds is the number of daemon lifetimes a run is split over: each
	// gets a set-up (a setup_s sample) and an equal share of the window.
	rounds int
	// prepare generates the inputs (untimed, in the benchmark process).
	prepare func(seed int64, sz sizes) (*inputs, error)
	// setup brings a fresh daemon to the state the timed phase needs:
	// uploads, KB ageing, warm-up. It is timed as part of setup_s.
	setup func(ctx context.Context, t *tally, tg *target, in *inputs, sz sizes) error
	// op returns the i-th operation of the mix.
	op func(in *inputs, sz sizes, i int) op
}

func workloads() []*workload {
	nproc := runtime.NumCPU()
	return []*workload{
		{
			name:   "serve-fresh",
			why:    "small mixed-family jobs from nproc clients on fresh tenanted daemons: rpc, tenant, SSE and engine overhead dominate; KB and kernels idle",
			daemon: daemonSpec{tenants: true}, clients: nproc, rounds: 18,
			prepare: prepareServe, setup: setupServe(false), op: serveOp,
		},
		{
			name:   "serve-aged",
			why:    "the same mix on a daemon whose knowledge base was aged with run logs first: KB refit, advice and fold dominate",
			daemon: daemonSpec{tenants: true}, clients: nproc, rounds: 3,
			prepare: prepareServe, setup: setupServe(true), op: serveOp,
		},
		{
			name:    "batch-genomic",
			why:     "one client, sequential variant-detection jobs over an uploaded FASTQ: the multi-stage chain, pipelining and align/variant kernels dominate",
			clients: 1, rounds: 3,
			prepare: prepareGenomic, setup: setupBatch("genomic"), op: genomicOp,
		},
		{
			name:    "batch-families",
			why:     "one client, proteome/imaging/network jobs over uploads with broker-advised shards: single-stage scatters, kernels and pool occupancy dominate",
			clients: 1, rounds: 3,
			prepare: prepareFamilies, setup: setupBatch("proteome", "imaging", "network"), op: familiesOp,
		},
		{
			name:   "fleet-genomic",
			why:    "batch-genomic's jobs with two loopback fleet workers joined: fleet dispatch, dataset gob encoding and blob transfer do the extra work",
			daemon: daemonSpec{workers: 2}, clients: 1, rounds: 3,
			prepare: prepareGenomic, setup: setupBatch("genomic"), op: genomicOp,
		},
		{
			name:   "ingest-durable",
			why:    "one client on a -data-dir daemon: upload (one-shot or resumable), one job, delete; registry decode, blob fsync and KB WAL writes beside reads",
			daemon: daemonSpec{durable: true}, clients: 1, rounds: 3,
			prepare: prepareIngest, setup: setupIngest, op: ingestOp,
		},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// serve-fresh / serve-aged: the mix of cmd/scansim/load.go oneOp, no cancels
// ---------------------------------------------------------------------------

// serveSeeds is how many distinct daemon-generated inputs each family
// cycles through, so every input recurs and the determinism check bites.
const serveSeeds = 40

func prepareServe(seed int64, sz sizes) (*inputs, error) {
	in := &inputs{seed: seed, ids: map[string]string{}}
	for i := 0; i < sz.serveTables; i++ {
		d, err := genFeatures(seed*1000+int64(i), 60, 3)
		if err != nil {
			return nil, err
		}
		in.tables = append(in.tables, d)
	}
	for i := range in.proteins {
		_, _, identified, err := simulateProteome(seed*1000+int64(i), 10, 150)
		if err != nil {
			return nil, err
		}
		in.proteins[i] = identified
	}
	return in, nil
}

func tableRole(i int) string { return fmt.Sprintf("table%d", i) }

func serveOp(in *inputs, sz sizes, i int) op {
	offset := (i / 5) % serveSeeds
	s := in.seed*1000 + int64(offset)
	switch i % 5 {
	case 0:
		n := (i / 5) % len(in.tables)
		return op{kind: "dataset", key: tableRole(n), want: in.tables[n].truth, units: in.tables[n].units,
			req: rpc.SubmitJobRequest{Dataset: in.ids[tableRole(n)]}}
	case 1:
		return op{kind: "genomic", key: fmt.Sprintf("synthetic-%d", s), want: truth{records: 150}, units: 150,
			req: rpc.SubmitJobRequest{Synthetic: &rpc.SyntheticSpec{ReferenceLength: 2000, Reads: 150, SNVs: 3, Seed: s}}}
	case 2:
		return op{kind: "proteomic", key: fmt.Sprintf("proteome-%d", s), units: 150,
			want: truth{records: 150, proteins: in.proteins[offset]},
			req:  rpc.SubmitJobRequest{Proteome: &rpc.ProteomeSpec{Proteins: 10, Spectra: 150, Seed: s}}}
	case 3:
		return op{kind: "imaging", key: fmt.Sprintf("imaging-%d", s), want: truth{records: 1, cells: 4}, units: 64 * 64,
			req: rpc.SubmitJobRequest{Imaging: &rpc.ImagingSpec{Images: 1, Width: 64, Height: 64, CellsPerImage: 4, Seed: s}}}
	default:
		return op{kind: "integrative", key: fmt.Sprintf("network-%d", s), want: truth{records: 50, modules: 3}, units: pairs(50),
			req: rpc.SubmitJobRequest{Network: &rpc.NetworkSpec{Genes: 50, Modules: 3, Seed: s}}}
	}
}

// setupServe uploads the run-many tables, optionally ages the knowledge
// base with jobs of the mix until the daemon reports enough run logs, and
// warms up.
func setupServe(aged bool) func(context.Context, *tally, *target, *inputs, sizes) error {
	return func(ctx context.Context, t *tally, tg *target, in *inputs, sz sizes) error {
		for i, d := range in.tables {
			info, err := t.upload(ctx, tg.client, tableRole(i), d, false)
			if err != nil {
				return err
			}
			in.ids[tableRole(i)] = info.ID
		}
		warm := newTally()
		var n atomic.Int64
		next := func(i int) op { return serveOp(in, sz, i) }
		if aged {
			for {
				st, err := tg.client.Status(ctx)
				if err != nil {
					return err
				}
				if st.RunLogs >= sz.ageRunLogs {
					break
				}
				warm.batch(ctx, tg, runtime.NumCPU(), 50, next, &n)
				if warm.failed > 0 {
					return fmt.Errorf("ageing job failed: %v", warm.failures)
				}
			}
		}
		warm.batch(ctx, tg, runtime.NumCPU(), sz.warmServe, next, &n)
		if warm.failed > 0 {
			return fmt.Errorf("warm-up job failed: %v", warm.failures)
		}
		return nil
	}
}

// ---------------------------------------------------------------------------
// batch-genomic / fleet-genomic
// ---------------------------------------------------------------------------

func prepareGenomic(seed int64, sz sizes) (*inputs, error) {
	d, err := genFASTQ(seed, sz.refLen, sz.reads, sz.snvs)
	if err != nil {
		return nil, err
	}
	return &inputs{seed: seed, named: map[string]*dataset{"genomic": d}, ids: map[string]string{}}, nil
}

// roleKind maps a dataset's role in a workload to its analysis family.
var roleKind = map[string]string{
	"genomic": "genomic", "fastq": "genomic",
	"proteome": "proteomic", "mgf": "proteomic",
	"imaging": "imaging", "tiff": "imaging",
	"network": "integrative", "features": "integrative",
}

// roleOp is a job over the round's upload of the named dataset.
func roleOp(in *inputs, role string) op {
	d := in.named[role]
	return op{kind: roleKind[role], key: role, want: d.truth, units: d.units,
		req: rpc.SubmitJobRequest{Dataset: in.ids[role]}}
}

func genomicOp(in *inputs, sz sizes, i int) op { return roleOp(in, "genomic") }

// setupBatch uploads the named datasets and runs each role's job once
// (warm-up: lazy set-up and the first KB fit happen before timing).
func setupBatch(roles ...string) func(context.Context, *tally, *target, *inputs, sizes) error {
	return func(ctx context.Context, t *tally, tg *target, in *inputs, sz sizes) error {
		warm := newTally()
		for _, role := range roles {
			info, err := t.upload(ctx, tg.client, role, in.named[role], false)
			if err != nil {
				return err
			}
			in.ids[role] = info.ID
			warm.do(ctx, tg, roleOp(in, role))
		}
		if warm.failed > 0 {
			return fmt.Errorf("warm-up job failed: %v", warm.failures)
		}
		return nil
	}
}

// ---------------------------------------------------------------------------
// batch-families
// ---------------------------------------------------------------------------

func prepareFamilies(seed int64, sz sizes) (*inputs, error) {
	p, err := genMGF(seed, sz.proteins, sz.spectra)
	if err != nil {
		return nil, err
	}
	im, err := genFrames(seed, sz.frames, sz.side, sz.cells)
	if err != nil {
		return nil, err
	}
	nw, err := genFeatures(seed, sz.genes, sz.modules)
	if err != nil {
		return nil, err
	}
	return &inputs{seed: seed, ids: map[string]string{},
		named: map[string]*dataset{"proteome": p, "imaging": im, "network": nw}}, nil
}

var familyRoles = []string{"proteome", "imaging", "network"}

// familiesOp rotates the three non-genomic families; no shard_records
// override, so the Data Broker's advice is what gets measured.
func familiesOp(in *inputs, sz sizes, i int) op { return roleOp(in, familyRoles[i%len(familyRoles)]) }

// ---------------------------------------------------------------------------
// ingest-durable
// ---------------------------------------------------------------------------

var ingestRoles = []string{"fastq", "mgf", "tiff", "features"}

func prepareIngest(seed int64, sz sizes) (*inputs, error) {
	fq, err := genFASTQ(seed, 20000, sz.inReads, 10)
	if err != nil {
		return nil, err
	}
	fq.truth.snvs = 0 // depth is sized for bytes, not for recall
	mgf, err := genMGF(seed, 5, sz.inSpectra)
	if err != nil {
		return nil, err
	}
	tiff, err := genFrames(seed, sz.inFrames, sz.inSide, 6)
	if err != nil {
		return nil, err
	}
	feat, err := genFeatures(seed, sz.inGenes, sz.inModules)
	if err != nil {
		return nil, err
	}
	return &inputs{seed: seed, ids: map[string]string{},
		named: map[string]*dataset{"fastq": fq, "mgf": mgf, "tiff": tiff, "features": feat}}, nil
}

// ingestOp uploads a dataset under a fresh name (families rotate; even ops
// one-shot, odd ops resumable), runs one job on it and deletes it.
func ingestOp(in *inputs, sz sizes, i int) op {
	role := ingestRoles[i%len(ingestRoles)]
	d := in.named[role]
	// TIFF stays one-shot: a resumable TIFF commit fails on the seed (see
	// README, baseline observations), and a workload must not fail.
	return op{kind: roleKind[role], key: role, want: d.truth, units: d.units,
		upload: d, uploadName: fmt.Sprintf("ingest-%d", i),
		resumable: (i/len(ingestRoles)+i)%2 == 1 && role != "tiff"}
}

// setupIngest warms every family's decode and job path once.
func setupIngest(ctx context.Context, t *tally, tg *target, in *inputs, sz sizes) error {
	warm := newTally()
	for i := range ingestRoles {
		o := ingestOp(in, sz, i)
		o.uploadName = "warm-" + o.uploadName
		warm.do(ctx, tg, o)
	}
	t.uploaded(warm.upBytes, warm.upTime)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up op failed: %v", warm.failures)
	}
	return nil
}
