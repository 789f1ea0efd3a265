package workflow

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"scan/internal/align"
	"scan/internal/genomics"
	"scan/internal/shard"
	"scan/internal/variant"
)

// StageExecutor is one stage implementation: it transforms the stage's
// whole input dataset into its output dataset. A scattering stage is a
// StreamingExecutor instead: it owns its scatter/gather shape (record
// shards for aligners, genomic regions for callers) because the correct
// split is tool-specific, and the engine drives it — scatter sizing, the
// bounded worker pool or fleet, per-shard telemetry. Executors must be
// stateless — one instance serves concurrent runs.
type StageExecutor interface {
	Execute(ctx context.Context, env *StageEnv, in *Dataset) (*Dataset, error)
}

// ExecutorRegistry binds catalogue stage names and tools to executors.
// Lookup resolves most-specific first: an exact (tool, stage) binding,
// then the tool's wildcard binding, then a stage-name-only binding.
type ExecutorRegistry struct {
	byKey map[execKey]StageExecutor
}

type execKey struct{ tool, stage string }

// NewExecutorRegistry returns an empty registry.
func NewExecutorRegistry() *ExecutorRegistry {
	return &ExecutorRegistry{byKey: make(map[execKey]StageExecutor)}
}

// Register binds an executor to a (tool, stage) pair; either (but not
// both) may be empty to act as a wildcard.
func (r *ExecutorRegistry) Register(tool, stage string, ex StageExecutor) error {
	if ex == nil {
		return errors.New("workflow: nil executor")
	}
	if tool == "" && stage == "" {
		return errors.New("workflow: executor needs a tool or stage name")
	}
	k := execKey{tool, stage}
	if _, dup := r.byKey[k]; dup {
		return fmt.Errorf("%w: executor for %s/%s", ErrDuplicate, tool, stage)
	}
	r.byKey[k] = ex
	return nil
}

// Lookup resolves the executor for a stage.
func (r *ExecutorRegistry) Lookup(tool, stage string) (StageExecutor, bool) {
	for _, k := range []execKey{{tool, stage}, {tool, ""}, {"", stage}} {
		if ex, ok := r.byKey[k]; ok {
			return ex, true
		}
	}
	return nil, false
}

// DefaultExecutors binds the in-repo toolkits to every default-catalogue
// stage, so all four data-process families execute end to end: the k-mer
// aligner stands in for BWA, the pileup caller for the GATK/MuTect calling
// stages, coverage quantification for the expression stage, spectral
// peptide matching (internal/proteome) for MaxQuant and GPM, row-band
// cell segmentation (internal/imaging) for CellProfiler, and partitioned
// network construction (internal/network) for Cytoscape. ErrNoExecutor now
// only reports genuinely unknown tools — every catalogued workflow passes
// Engine.CanRun under this registry.
func DefaultExecutors() *ExecutorRegistry {
	r := NewExecutorRegistry()
	must := func(tool, stage string, ex StageExecutor) {
		// Static bindings: a registration failure is programmer error.
		if err := r.Register(tool, stage, ex); err != nil {
			panic(err)
		}
	}
	must("BWA", "", streamOnly{alignExecutor{}})
	must("GATK", "UnifiedGenotyper", streamOnly{callExecutor{}})
	must("MuTect", "SomaticCall", streamOnly{callExecutor{}})
	must("GATK", "FusionScan", streamOnly{callExecutor{}})
	must("GATK", "Quantify", streamOnly{quantifyExecutor{}})
	must("GATK", "MergeVCF", mergeVCFExecutor{})
	// The GATK refinement stages between alignment and genotyping
	// (duplicate marking, indel realignment, base recalibration) have
	// nothing to correct on this repo's substrate — the aligner places
	// reads ungapped and the simulator plants no duplicates — so they
	// pass the dataset through unchanged, holding the pipeline shape of
	// the paper's 7-stage GATK chain. VariantFiltration passes through
	// too: the caller's own depth and allele-fraction thresholds are the
	// filter.
	for _, stage := range []string{
		"MarkDuplicates", "RealignerTargetCreator", "IndelRealigner",
		"BaseRecalibrator", "PrintReads", "VariantFiltration",
	} {
		must("GATK", stage, identityExecutor{})
	}
	// The non-genomic families (executor_families.go): spectrum shards,
	// frame-row bands and node-rank ranges, each logged under its own
	// tool name.
	must("MaxQuant", "Quantify", streamOnly{spectralSearchExecutor{quantify: true}})
	must("GPM", "Search", streamOnly{spectralSearchExecutor{}})
	must("CellProfiler", "Profile", streamOnly{cellProfileExecutor{}})
	must("Cytoscape", "Integrate", streamOnly{integrateExecutor{}})
	return r
}

// ctxCheckInterval is how many records an executor's inner loop processes
// between context polls — frequent enough that cancelling a run stops a
// long shard mid-flight, cheap enough to vanish in the per-record work.
const ctxCheckInterval = 64

// alignExecutor implements the BWA stages: scatter reads into
// Data-Broker-sized shards, align each shard on the pool, gather the
// per-shard outputs into one coordinate-sorted alignment set.
type alignExecutor struct{}

// Stream implements streamer. It only checks the reference: the seed index
// comes from the engine's memo, built by the first Transform of the first
// job over the reference, so a fleet coordinator never builds it.
func (alignExecutor) Stream(env *StageEnv, in *Dataset) (StageStream, bool, error) {
	if err := align.Check(in.Reference, align.Config{}); err != nil {
		return nil, false, err
	}
	ref := in.Reference
	index := env.engine.aligners.Get(keyOf(ref.Seq), func() (*align.Aligner, error) { return align.New(ref, align.Config{}) })
	return &alignStream{env: env, in: in, index: index}, true, nil
}

// AlignedShard is the alignment stage's per-shard output payload. Exported
// because it crosses the fleet wire: a remote worker encodes it back to
// the coordinator (wire.go).
type AlignedShard struct {
	Alns   []genomics.Alignment
	Mapped int
}

type alignStream struct {
	env   *StageEnv
	in    *Dataset
	index func() (*align.Aligner, error)
	per   int // reads per shard: shard i starts at read i*per
}

func (s *alignStream) Split() ([]StreamShard, error) {
	plan, err := s.env.ShardPlan(len(s.in.Reads))
	if err != nil {
		return nil, err
	}
	readShards, err := shard.Chunk(s.in.Reads, plan.RecordsPerShard)
	if err != nil {
		return nil, err
	}
	s.per = plan.RecordsPerShard
	return chunkShards(readShards), nil
}

// Transform aligns shard i's reads; each record points at its read by the
// read's index in the stage input.
func (s *alignStream) Transform(ctx context.Context, i int, in StreamShard) (StreamShard, error) {
	aligner, err := s.index()
	if err != nil {
		return StreamShard{}, err
	}
	reads := in.Data.([]genomics.Read)
	alns := make([]genomics.Alignment, 0, len(reads))
	var scratch align.Scratch
	mapped, first := 0, i*s.per
	for j, r := range reads {
		if j%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return StreamShard{}, err
			}
		}
		aln := aligner.AlignRead(r, &scratch)
		aln.Read = int32(first + j)
		if !aln.Unmapped() {
			mapped++
		}
		alns = append(alns, aln)
	}
	genomics.SortAlignments(alns)
	return StreamShard{Records: len(alns), Data: AlignedShard{Alns: alns, Mapped: mapped}}, nil
}

func (s *alignStream) Gather(shards []StreamShard) (*Dataset, error) {
	aligned, err := shardData[AlignedShard](shards)
	if err != nil {
		return nil, err
	}
	groups := make([][]genomics.Alignment, len(shards))
	mapped := 0
	for i, as := range aligned {
		groups[i] = as.Alns
		mapped += as.Mapped
	}
	out := *s.in
	out.Type = BAM
	out.Alignments = genomics.MergeSorted(groups...)
	out.Mapped += mapped
	return &out, nil
}

// callExecutor implements the pileup-calling stages (UnifiedGenotyper,
// SomaticCall, FusionScan): scatter the coordinate-sorted alignments over
// the Data Broker's count of genomic regions, each region's shard the run
// of reads that can overlap it, call each region's variants from a pileup
// of the region's size on the pool, and gather the regions' calls in
// order — the GATK-style scatter the paper parallelizes.
type callExecutor struct{}

// Stream implements streamer.
func (callExecutor) Stream(env *StageEnv, in *Dataset) (StageStream, bool, error) {
	return &callStream{env: env, in: in}, true, nil
}

type callStream struct {
	env     *StageEnv
	in      *Dataset
	regions []shard.Region
}

// Split prices the alignments and cuts the reference into the plan's
// count of regions, at most one per base. Region i's shard is the reads
// starting in [Start−pad, End], where pad is one less than the longest
// mapped read: every read that overlaps the region, so its positions see
// full coverage. A shard's Records counts that run; a shorter read in its
// first pad positions may end before the region and adds nothing to the
// pileup.
func (s *callStream) Split() ([]StreamShard, error) {
	plan, err := s.env.ShardPlan(len(s.in.Alignments))
	if err != nil {
		return nil, err
	}
	regions, err := shard.Regions(s.in.Reference.Len(), plan.NumShards)
	if err != nil {
		return nil, err
	}
	s.regions = regions
	longest := 0
	for i := range s.in.Alignments {
		if a := &s.in.Alignments[i]; !a.Unmapped() {
			longest = max(longest, int(a.Len))
		}
	}
	return chunkShards(shard.SliceByRegion(s.in.Alignments, regions, max(longest-1, 0))), nil
}

func (s *callStream) Transform(ctx context.Context, i int, in StreamShard) (StreamShard, error) {
	r := s.regions[i]
	caller := variant.NewCaller(s.in.Reference, r.Start, r.End, s.env.Options().Caller)
	for j, a := range in.Data.([]genomics.Alignment) {
		if j%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return StreamShard{}, err
			}
		}
		if err := caller.Add(a, s.in.Reads); err != nil {
			return StreamShard{}, err
		}
	}
	calls := caller.Call()
	return StreamShard{Records: len(calls), Data: calls}, nil
}

// Gather concatenates the regions' calls: each region's are sorted and
// lie inside it, and the regions are in order, so the set is sorted and
// has no duplicates.
func (s *callStream) Gather(shards []StreamShard) (*Dataset, error) {
	calls, err := shardData[[]genomics.Variant](shards)
	if err != nil {
		return nil, err
	}
	out := *s.in
	out.Type = VCF
	out.Variants = slices.Concat(calls...)
	return &out, nil
}

// quantifyExecutor implements the expression Quantify stage: bin the
// reference at quantifyBinWidth, scatter whole bins over the Data Broker's
// count of regions (at most one per bin), count the mapped alignments
// starting in each bin and their mean coverage on the pool, and gather a
// per-bin FeatureTable — the RNA-seq expression workload. The bins, not
// the regions, are the rows, so the table does not depend on the scatter
// width.
type quantifyExecutor struct{}

// quantifyBinWidth is the width in bases of an expression feature's bin.
const quantifyBinWidth = 1000

// Stream implements streamer.
func (quantifyExecutor) Stream(env *StageEnv, in *Dataset) (StageStream, bool, error) {
	return &quantifyStream{env: env, in: in}, true, nil
}

type quantifyStream struct {
	env     *StageEnv
	in      *Dataset
	regions []shard.Region
}

func (s *quantifyStream) Split() ([]StreamShard, error) {
	plan, err := s.env.ShardPlan(len(s.in.Alignments))
	if err != nil {
		return nil, err
	}
	refLen := s.in.Reference.Len()
	binRuns, err := shard.Regions((refLen+quantifyBinWidth-1)/quantifyBinWidth, plan.NumShards)
	if err != nil {
		return nil, err
	}
	// Each region covers a run of whole bins, in bases.
	s.regions = make([]shard.Region, len(binRuns))
	for i, b := range binRuns {
		s.regions[i] = shard.Region{Start: (b.Start-1)*quantifyBinWidth + 1, End: min(b.End*quantifyBinWidth, refLen)}
	}
	// Start-position scatter: each alignment counts toward exactly one
	// bin, so feature counts sum to the mapped total.
	return chunkShards(shard.SliceByRegion(s.in.Alignments, s.regions, 0)), nil
}

// Transform emits one Feature per bin of region i.
func (s *quantifyStream) Transform(ctx context.Context, i int, in StreamShard) (StreamShard, error) {
	r := s.regions[i]
	first := (r.Start - 1) / quantifyBinWidth
	features := make([]Feature, (r.End-1)/quantifyBinWidth-first+1)
	for j, a := range in.Data.([]genomics.Alignment) {
		if j%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return StreamShard{}, err
			}
		}
		b := (a.Pos-1)/quantifyBinWidth - first
		features[b].Count++
		features[b].Value += float64(a.Len) // bases, then mean coverage
	}
	for b := range features {
		if b%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return StreamShard{}, err
			}
		}
		f := &features[b]
		f.Start = (first+b)*quantifyBinWidth + 1
		f.End = min(f.Start+quantifyBinWidth-1, r.End)
		f.Name = fmt.Sprintf("%s:%d-%d", s.in.Reference.Name, f.Start, f.End)
		f.Value /= float64(f.End - f.Start + 1)
	}
	return StreamShard{Records: len(features), Data: features}, nil
}

func (s *quantifyStream) Gather(shards []StreamShard) (*Dataset, error) {
	features, err := shardData[[]Feature](shards)
	if err != nil {
		return nil, err
	}
	out := *s.in
	out.Type = FeatureTable
	out.Features = slices.Concat(features...)
	return &out, nil
}

// mergeVCFExecutor implements the gather stage the paper calls
// VariantsToVCF: merge a call set into sorted, deduplicated form.
type mergeVCFExecutor struct{}

func (mergeVCFExecutor) Execute(ctx context.Context, env *StageEnv, in *Dataset) (*Dataset, error) {
	start := time.Now()
	out := *in
	out.Variants = genomics.MergeVariants(in.Variants)
	env.logShard(len(in.Variants), time.Since(start))
	return &out, nil
}

// identityExecutor passes the dataset through unchanged.
type identityExecutor struct{}

func (identityExecutor) Execute(ctx context.Context, env *StageEnv, in *Dataset) (*Dataset, error) {
	return in, nil
}

// StreamPassthrough implements PassthroughExecutor, kept only for bench/.
func (identityExecutor) StreamPassthrough() {}
