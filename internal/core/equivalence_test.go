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

// seedResult is what the seed pipeline produced.
type seedResult struct {
	Alignments []genomics.Alignment
	Variants   []genomics.Variant
	Mapped     int
	Plan       shard.Plan
	Advice     knowledge.Advice
}

// recordsPerUnit is the engine's conversion of reads into the knowledge
// base's input-size units.
const recordsPerUnit = 1000

// seedVariantCalling replicates the pre-engine inline pipeline as
// platform.go shipped it before the workflow-engine refactor (shard reads
// by Data Broker advice → align → merge → region scatter → pileup+call →
// merge), run sequentially since the results are parallelism-independent.
// It is the golden reference the variant-detection workflow must
// reproduce bit-for-bit through RunWorkflow. Two things moved since: on a
// KB with no telemetry for the stage the broker's shard count
// ⌈reads/advised⌉ is kept but its shards are cut equal, so the advised
// plan is PlanByShards(reads, count); and calling runs one caller over the
// whole reference, since a region's caller calls exactly the
// whole-reference calls inside its region
// (variant.TestRegionCallerMatchesWholeReference), so the engine's region
// scatter must not change a call.
func seedVariantCalling(p *Platform, ds *workflow.Dataset, shardRecords int) (*seedResult, error) {
	res := &seedResult{}
	reads := ds.Reads

	var plan shard.Plan
	if shardRecords > 0 {
		plan, _ = shard.PlanByRecords(len(reads), shardRecords)
	} else {
		jobUnits := float64(len(reads)) / recordsPerUnit
		adv, err := p.kb.ShardAdvice(jobUnits)
		if err != nil {
			return nil, fmt.Errorf("core: data broker: %w", err)
		}
		res.Advice = adv
		advised := max(int(adv.ShardSize*recordsPerUnit), 1)
		plan, _ = shard.PlanByShards(len(reads), (len(reads)+advised-1)/advised)
	}
	res.Plan = plan
	recordsPerShard := plan.RecordsPerShard

	aligner, err := align.New(ds.Reference, align.Config{})
	if err != nil {
		return nil, err
	}

	readShards, err := shard.Chunk(reads, recordsPerShard)
	if err != nil {
		return nil, err
	}
	alnShards := make([][]genomics.Alignment, len(readShards))
	for i, rs := range readShards {
		var scratch align.Scratch
		for j, r := range rs {
			aln := aligner.AlignRead(r, &scratch)
			aln.Read = int32(i*recordsPerShard + j)
			if !aln.Unmapped() {
				res.Mapped++
			}
			alnShards[i] = append(alnShards[i], aln)
		}
		genomics.SortAlignments(alnShards[i])
	}
	res.Alignments = genomics.MergeSorted(alnShards...)

	caller := variant.NewCaller(ds.Reference, 1, ds.Reference.Len(), testCaller)
	for _, a := range res.Alignments {
		if err := caller.Add(a, reads); err != nil {
			return nil, err
		}
	}
	res.Variants = caller.Call()
	return res, nil
}

// TestEngineMatchesSeedPipeline is the refactor's equivalence proof: the
// variant-detection workflow run through RunWorkflow must produce
// identical alignments, variants, mapped counts, shard plans and Data
// Broker advice to the seed pipeline, across explicit sharding, KB-advised
// sharding, one shard, and many small shards (the calling stage cut into
// a region per shardRecords alignments).
func TestEngineMatchesSeedPipeline(t *testing.T) {
	cases := []struct {
		name                string
		refLen, reads, snvs int
		seed                int64
		shardRecords        int
		worker              int
	}{
		{"explicit-shards", 8000, 2400, 12, 42, 137, 4},
		// 24 000 reads are 24 units: the paper KB advises GATK3's 20-unit
		// chunks, two shards of 12 000 reads.
		{"kb-advised", 8000, 24000, 12, 42, 0, 3},
		{"single-shard-single-region", 6000, 1500, 8, 21, 1500, 2},
		{"many-small-shards", 6000, 1500, 8, 21, 100, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlatform(Options{Workers: tc.worker})
			ds, _ := synthJob(t, tc.refLen, tc.reads, tc.snvs, tc.seed)

			want, err := seedVariantCalling(p, ds, tc.shardRecords)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runVariantCalling(context.Background(), p, ds,
				workflow.RunOptions{ShardRecords: tc.shardRecords})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Output
			sr, _ := res.RecordScatter()

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
			if sr.Plan != want.Plan {
				t.Fatalf("plan: engine %+v, seed %+v", sr.Plan, want.Plan)
			}
			if sr.Advice != want.Advice {
				t.Fatalf("advice: engine %+v, seed %+v", sr.Advice, want.Advice)
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
	ds, _ := synthJob(t, 6000, 1200, 6, 13)
	before := kb.RunCount()
	res, err := p.RunWorkflow(context.Background(), "somatic-mutation-detection", ds,
		workflow.RunOptions{Caller: testCaller})
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
	if _, err := p.RunWorkflow(context.Background(), "no-such-analysis", ds, workflow.RunOptions{}); err == nil {
		t.Fatal("unknown workflow accepted")
	}
}
