package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"scan/internal/align"
	"scan/internal/genomics"
	"scan/internal/knowledge"
	"scan/internal/shard"
	"scan/internal/variant"
	"scan/internal/workflow"
)

// seedVariantCalling replicates the pre-engine inline pipeline as
// platform.go shipped it before the workflow-engine refactor (shard reads
// by Data Broker advice → align → merge → region scatter → pileup+call →
// merge), run sequentially since the results are parallelism-independent.
// It is the golden reference the engine-driven RunVariantCalling must
// reproduce bit-for-bit. Two things moved since: on a KB with no telemetry
// for the stage the broker's shard count ⌈reads/advised⌉ is kept but its
// shards are cut equal, so the advised plan is PlanByShards(reads, count);
// and calling runs one caller over the whole reference, since a region's
// caller calls exactly the whole-reference calls inside its region
// (variant.TestRegionCallerMatchesWholeReference), so the engine's region
// scatter must not change a call.
func seedVariantCalling(p *Platform, job VariantCallingJob) (*VariantCallingResult, error) {
	if len(job.Reads) == 0 {
		return nil, ErrNoReads
	}
	res := &VariantCallingResult{}

	var plan shard.Plan
	if job.ShardRecords > 0 {
		plan, _ = shard.PlanByRecords(len(job.Reads), job.ShardRecords)
	} else {
		jobUnits := float64(len(job.Reads)) / float64(p.recordsPerUnit)
		adv, err := p.kb.ShardAdvice(jobUnits)
		if err != nil {
			return nil, fmt.Errorf("core: data broker: %w", err)
		}
		res.Advice = adv
		advised := max(int(adv.ShardSize*float64(p.recordsPerUnit)), 1)
		plan, _ = shard.PlanByShards(len(job.Reads), (len(job.Reads)+advised-1)/advised)
	}
	res.ShardPlan = plan
	recordsPerShard := plan.RecordsPerShard

	aligner, err := align.New(job.Reference, job.Aligner)
	if err != nil {
		return nil, err
	}

	readShards, err := shard.ChunkReads(job.Reads, recordsPerShard)
	if err != nil {
		return nil, err
	}
	alnShards := make([][]genomics.Alignment, len(readShards))
	for i, rs := range readShards {
		var scratch align.Scratch
		for _, r := range rs {
			aln := aligner.AlignRead(r, &scratch)
			if !aln.Unmapped() {
				res.Mapped++
			}
			alnShards[i] = append(alnShards[i], aln)
		}
		genomics.SortAlignments(alnShards[i])
	}
	res.Alignments = genomics.MergeSorted(alnShards...)

	caller := variant.NewCaller(job.Reference, 1, job.Reference.Len(), job.Caller)
	for _, a := range res.Alignments {
		if err := caller.Add(a); err != nil {
			return nil, err
		}
	}
	res.Variants = caller.Call()
	return res, nil
}

// TestEngineMatchesSeedPipeline is the refactor's equivalence proof: the
// engine-driven RunVariantCalling must produce identical alignments,
// variants, mapped counts, shard plans and Data Broker advice to the seed
// pipeline, across explicit sharding, KB-advised sharding, and uneven
// region splits.
func TestEngineMatchesSeedPipeline(t *testing.T) {
	cases := []struct {
		name                   string
		refLen, reads, snvs    int
		seed                   int64
		shardRecords, regions  int
		recordsPerUnit, worker int
	}{
		{"explicit-shards", 8000, 2400, 12, 42, 137, 5, 0, 4},
		{"kb-advised", 8000, 2400, 12, 42, 0, 0, 100, 3},
		{"single-shard-single-region", 6000, 1500, 8, 21, 1500, 1, 0, 2},
		{"many-small-shards", 6000, 1500, 8, 21, 100, 7, 0, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlatform(Options{Workers: tc.worker, RecordsPerUnit: tc.recordsPerUnit})
			job, _ := synthJob(t, tc.refLen, tc.reads, tc.snvs, tc.seed)
			job.ShardRecords = tc.shardRecords
			job.Regions = tc.regions

			want, err := seedVariantCalling(p, job)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.RunVariantCalling(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(got.Alignments, want.Alignments) {
				t.Fatalf("alignments differ: engine %d records, seed %d records",
					len(got.Alignments), len(want.Alignments))
			}
			if !reflect.DeepEqual(got.Variants, want.Variants) {
				t.Fatalf("variants differ:\nengine: %+v\nseed:   %+v", got.Variants, want.Variants)
			}
			if got.Mapped != want.Mapped {
				t.Fatalf("mapped: engine %d, seed %d", got.Mapped, want.Mapped)
			}
			if got.ShardPlan != want.ShardPlan {
				t.Fatalf("plan: engine %+v, seed %+v", got.ShardPlan, want.ShardPlan)
			}
			if got.Advice != want.Advice {
				t.Fatalf("advice: engine %+v, seed %+v", got.Advice, want.Advice)
			}
		})
	}
}

// TestRunWorkflowSurface exercises the generic platform entry point used
// by scand's submit-workflow-by-name API: any catalogued genomic workflow
// runs through the same engine, and its shards feed the knowledge base.
func TestRunWorkflowSurface(t *testing.T) {
	kb := knowledge.New()
	kb.SeedPaperProfiles()
	p := NewPlatform(Options{Workers: 2, KB: kb})
	if p.Catalogue().Len() < 11 {
		t.Fatalf("catalogue has %d workflows", p.Catalogue().Len())
	}
	job, _ := synthJob(t, 6000, 1200, 6, 13)
	before := kb.RunCount()
	res, err := p.RunWorkflow(context.Background(), "somatic-mutation-detection",
		workflow.NewFASTQDataset(job.Reference, job.Reads),
		workflow.RunOptions{Caller: job.Caller})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Type != workflow.VCF || len(res.Output.Variants) == 0 {
		t.Fatalf("output = %s with %d variants", res.Output.Type, len(res.Output.Variants))
	}
	if kb.RunCount() <= before {
		t.Fatal("workflow run did not log shards to the knowledge base")
	}
	// Unknown names surface the registry error.
	if _, err := p.RunWorkflow(context.Background(), "no-such-analysis",
		workflow.NewFASTQDataset(job.Reference, job.Reads), workflow.RunOptions{}); err == nil {
		t.Fatal("unknown workflow accepted")
	}
}
