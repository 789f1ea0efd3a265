package core

import (
	"context"
	"math/rand"
	"testing"

	"scan/internal/genomics"
	"scan/internal/knowledge"
	"scan/internal/variant"
	"scan/internal/workflow"
)

// testCaller holds the caller thresholds every test job runs with.
var testCaller = variant.Config{MinDepth: 8, MinAltFraction: 0.6}

// synthJob simulates a reference, plants SNVs in a copy of it and draws
// reads from the copy: a FASTQ dataset and the planted truth.
func synthJob(t testing.TB, refLen, reads, snvs int, seed int64) (*workflow.Dataset, []genomics.Mutation) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := genomics.GenerateReference(rng, "chr1", refLen)
	mutated, planted := genomics.PlantSNVs(rng, ref, snvs)
	rd, err := genomics.SimulateReads(rng, mutated, genomics.ReadSimConfig{
		Count: reads, Length: 100, ErrorRate: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	return workflow.NewFASTQDataset(ref, rd), planted
}

// runVariantCalling runs the variant-detection workflow over ds with the
// test caller thresholds.
func runVariantCalling(ctx context.Context, p *Platform, ds *workflow.Dataset, opts workflow.RunOptions) (*workflow.Result, error) {
	opts.Caller = testCaller
	return p.RunWorkflow(ctx, VariantDetectionWorkflow, ds, opts)
}

func TestPlatformDefaults(t *testing.T) {
	p := NewPlatform(Options{})
	if p.Workers() < 1 {
		t.Fatal("no workers")
	}
	if p.KB() == nil {
		t.Fatal("no knowledge base")
	}
	// The default KB carries the paper's GATK profiles plus one per
	// non-genomic tool family.
	ps, err := p.KB().Profiles()
	if err != nil || len(ps) != 8 {
		t.Fatalf("profiles: %d, %v", len(ps), err)
	}
}

func TestEndToEndVariantCalling(t *testing.T) {
	p := NewPlatform(Options{Workers: 4})
	ds, planted := synthJob(t, 8000, 2400, 12, 42)
	res, err := runVariantCalling(context.Background(), p, ds, workflow.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output
	if out.Mapped < len(ds.Reads)*9/10 {
		t.Fatalf("mapped %d/%d", out.Mapped, len(ds.Reads))
	}
	calledAt := map[int]genomics.Variant{}
	for _, v := range out.Variants {
		calledAt[v.Pos-1] = v
	}
	recovered := 0
	for _, m := range planted {
		if v, ok := calledAt[m.Pos]; ok && v.Alt == m.Alt {
			recovered++
		}
	}
	if recovered < len(planted)-1 {
		t.Fatalf("recovered %d/%d planted SNVs (called %d)", recovered, len(planted), len(out.Variants))
	}
	// The catalogue's scattered stages are the BWA alignment fan-out and
	// the region-scattered genotyping; the rest pass through.
	var scattered []string
	for _, sr := range res.Stages {
		if sr.Shards > 0 {
			scattered = append(scattered, sr.Stage)
		}
	}
	if len(scattered) != 2 || scattered[0] != "Align" || scattered[1] != "UnifiedGenotyper" {
		t.Fatalf("scattered stages = %v (%+v)", scattered, res.Stages)
	}
	// Alignments must come back coordinate-sorted.
	for i := 1; i < len(out.Alignments); i++ {
		a, b := out.Alignments[i-1], out.Alignments[i]
		if !a.Unmapped() && !b.Unmapped() && a.Pos > b.Pos {
			t.Fatal("alignments not sorted")
		}
	}
	// Run logs were fed back to the knowledge base.
	if p.KB().RunCount() == 0 {
		t.Fatal("no run logs recorded")
	}
}

func TestShardingMatchesAdvice(t *testing.T) {
	p := NewPlatform(Options{Workers: 2})
	ds, _ := synthJob(t, 4000, 10000, 0, 7)
	res, err := runVariantCalling(context.Background(), p, ds, workflow.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 10 000 reads = 10 units; the paper KB advises GATK1's 10-unit chunks
	// (throughput 0.056 beats GATK4's 0.05 for jobs ≥ 10 units).
	sr, _ := res.RecordScatter()
	if sr.Advice.BasedOn != "GATK1" {
		t.Fatalf("advice = %+v", sr.Advice)
	}
	if sr.Plan.RecordsPerShard != 10000 || sr.Plan.NumShards != 1 {
		t.Fatalf("plan = %+v", sr.Plan)
	}
}

func TestShardRecordsOverride(t *testing.T) {
	p := NewPlatform(Options{Workers: 4})
	ds, _ := synthJob(t, 4000, 900, 0, 8)
	res, err := runVariantCalling(context.Background(), p, ds, workflow.RunOptions{ShardRecords: 200})
	if err != nil {
		t.Fatal(err)
	}
	sr, _ := res.RecordScatter()
	if sr.Plan.NumShards != 5 {
		t.Fatalf("shards = %d, want 5", sr.Plan.NumShards)
	}
	if sr.Advice.BasedOn != "" {
		t.Fatal("advice should be empty under override")
	}
}

func TestShardedEqualsUnsharded(t *testing.T) {
	// Determinism check: splitting the work must not change the results.
	ds, _ := synthJob(t, 6000, 1500, 8, 21)
	p := NewPlatform(Options{Workers: 4})
	ra, err := runVariantCalling(context.Background(), p, ds,
		workflow.RunOptions{ShardRecords: len(ds.Reads)}) // single shard
	if err != nil {
		t.Fatal(err)
	}
	rb, err := runVariantCalling(context.Background(), p, ds,
		workflow.RunOptions{ShardRecords: 100}) // 15 shards
	if err != nil {
		t.Fatal(err)
	}
	a, b := ra.Output, rb.Output
	if len(a.Variants) != len(b.Variants) {
		t.Fatalf("variant counts differ: %d vs %d", len(a.Variants), len(b.Variants))
	}
	for i := range a.Variants {
		if a.Variants[i] != b.Variants[i] {
			t.Fatalf("variant %d differs:\n%+v\n%+v", i, a.Variants[i], b.Variants[i])
		}
	}
	if a.Mapped != b.Mapped {
		t.Fatalf("mapped differ: %d vs %d", a.Mapped, b.Mapped)
	}
}

// TestEmptyJobRunsToEmptyVCF: a dataset with a reference and no reads is
// a valid job whose answer is an empty call set.
func TestEmptyJobRunsToEmptyVCF(t *testing.T) {
	p := NewPlatform(Options{})
	ds, _ := synthJob(t, 4000, 0, 0, 10)
	res, err := runVariantCalling(context.Background(), p, ds, workflow.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Output; out.Type != workflow.VCF || len(out.Variants) != 0 || out.Mapped != 0 {
		t.Fatalf("output = %s with %d variants, %d mapped", out.Type, len(out.Variants), out.Mapped)
	}
}

func TestContextCancellation(t *testing.T) {
	p := NewPlatform(Options{Workers: 1})
	ds, _ := synthJob(t, 4000, 2000, 0, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runVariantCalling(ctx, p, ds, workflow.RunOptions{}); err == nil {
		t.Fatal("cancelled context succeeded")
	}
}

func TestKnowledgeFeedbackLoop(t *testing.T) {
	kb := knowledge.New()
	kb.SeedPaperProfiles()
	p := NewPlatform(Options{Workers: 2, KB: kb})
	ds, _ := synthJob(t, 4000, 600, 0, 11)
	before := kb.RunCount()
	if _, err := runVariantCalling(context.Background(), p, ds, workflow.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if kb.RunCount() <= before {
		t.Fatal("pipeline did not log runs")
	}
	// Logged runs are queryable through SPARQL.
	res, err := kb.Query(`
PREFIX scan: <` + knowledge.NS + `>
SELECT ?run WHERE { ?run a scan:RunLog . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != kb.RunCount() {
		t.Fatalf("SPARQL sees %d runs, KB says %d", res.Len(), kb.RunCount())
	}
}

func BenchmarkVariantCallingPipeline(b *testing.B) {
	p := NewPlatform(Options{Workers: 4})
	ds, _ := synthJob(b, 20000, 4000, 10, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runVariantCalling(context.Background(), p, ds, workflow.RunOptions{ShardRecords: 500}); err != nil {
			b.Fatal(err)
		}
	}
}
