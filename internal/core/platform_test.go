package core

import (
	"context"
	"math/rand"
	"testing"

	"scan/internal/genomics"
	"scan/internal/knowledge"
	"scan/internal/variant"
)

func synthJob(t testing.TB, refLen, reads, snvs int, seed int64) (VariantCallingJob, []genomics.Mutation) {
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
	return VariantCallingJob{
		Reference: ref,
		Reads:     rd,
		Caller:    variant.Config{MinDepth: 8, MinAltFraction: 0.6},
	}, planted
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
	job, planted := synthJob(t, 8000, 2400, 12, 42)
	res, err := p.RunVariantCalling(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapped < len(job.Reads)*9/10 {
		t.Fatalf("mapped %d/%d", res.Mapped, len(job.Reads))
	}
	calledAt := map[int]genomics.Variant{}
	for _, v := range res.Variants {
		calledAt[v.Pos-1] = v
	}
	recovered := 0
	for _, m := range planted {
		if v, ok := calledAt[m.Pos]; ok && v.Alt == m.Alt {
			recovered++
		}
	}
	if recovered < len(planted)-1 {
		t.Fatalf("recovered %d/%d planted SNVs (called %d)", recovered, len(planted), len(res.Variants))
	}
	// The engine reports the catalogue's scattered stages: the BWA
	// alignment fan-out and the region-scattered genotyping.
	if len(res.Timings) != 2 || res.Timings[0].Stage != "Align" || res.Timings[1].Stage != "UnifiedGenotyper" {
		t.Fatalf("timings = %+v", res.Timings)
	}
	// Alignments must come back coordinate-sorted.
	for i := 1; i < len(res.Alignments); i++ {
		a, b := res.Alignments[i-1], res.Alignments[i]
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
	p := NewPlatform(Options{Workers: 2, RecordsPerUnit: 100})
	job, _ := synthJob(t, 4000, 1000, 0, 7)
	res, err := p.RunVariantCalling(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 reads = 10 units; the paper KB advises GATK1's 10-unit chunks
	// (throughput 0.056 beats GATK4's 0.05 for jobs ≥ 10 units).
	if res.Advice.BasedOn != "GATK1" {
		t.Fatalf("advice = %+v", res.Advice)
	}
	if res.ShardPlan.RecordsPerShard != 1000 || res.ShardPlan.NumShards != 1 {
		t.Fatalf("plan = %+v", res.ShardPlan)
	}
}

func TestShardRecordsOverride(t *testing.T) {
	p := NewPlatform(Options{Workers: 4})
	job, _ := synthJob(t, 4000, 900, 0, 8)
	job.ShardRecords = 200
	res, err := p.RunVariantCalling(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardPlan.NumShards != 5 {
		t.Fatalf("shards = %d, want 5", res.ShardPlan.NumShards)
	}
	if res.Advice.BasedOn != "" {
		t.Fatal("advice should be empty under override")
	}
}

func TestShardedEqualsUnsharded(t *testing.T) {
	// Determinism check: splitting the work must not change the results.
	jobA, _ := synthJob(t, 6000, 1500, 8, 21)
	jobB := jobA
	jobA.ShardRecords = len(jobA.Reads) // single shard
	jobA.Regions = 1
	jobB.ShardRecords = 100 // 15 shards
	jobB.Regions = 7

	p := NewPlatform(Options{Workers: 4})
	a, err := p.RunVariantCalling(context.Background(), jobA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.RunVariantCalling(context.Background(), jobB)
	if err != nil {
		t.Fatal(err)
	}
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

func TestEmptyJobRejected(t *testing.T) {
	p := NewPlatform(Options{})
	if _, err := p.RunVariantCalling(context.Background(), VariantCallingJob{}); err != ErrNoReads {
		t.Fatalf("err = %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	p := NewPlatform(Options{Workers: 1})
	job, _ := synthJob(t, 4000, 2000, 0, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunVariantCalling(ctx, job); err == nil {
		t.Fatal("cancelled context succeeded")
	}
}

func TestKnowledgeFeedbackLoop(t *testing.T) {
	kb := knowledge.New()
	kb.SeedPaperProfiles()
	p := NewPlatform(Options{Workers: 2, KB: kb})
	job, _ := synthJob(t, 4000, 600, 0, 11)
	before := kb.RunCount()
	if _, err := p.RunVariantCalling(context.Background(), job); err != nil {
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
	job, _ := synthJob(b, 20000, 4000, 10, 3)
	job.ShardRecords = 500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunVariantCalling(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
}
