// Variant calling through the catalogued dna-variant-detection workflow.
//
// This example mirrors the paper's Data Sharder description: the reads are
// split on record boundaries into shards of at most 1500 reads ("divide a
// 100GB FASTQ file into 25 4GB files"), each shard is aligned
// independently, the alignments are gathered, re-scattered by region for
// calling, and the per-region calls merged (the VariantsToVCF-style gather
// step). The engine partitions the records in memory; no shard files are
// written. One line per stage reports its scatter width, records and time.
//
//	go run ./examples/variantcalling
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"scan/internal/core"
	"scan/internal/genomics"
	"scan/internal/workflow"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	reference := genomics.GenerateReference(rng, "chr1", 30000)
	sample, planted := genomics.PlantSNVs(rng, reference, 20)
	reads, err := genomics.SimulateReads(rng, sample, genomics.ReadSimConfig{
		Count: 9000, Length: 100, ErrorRate: 0.002,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input: %d reads against %s (%d bp)\n", len(reads), reference.Name, reference.Len())

	platform := core.NewPlatform(core.Options{Workers: 4})
	res, err := platform.RunWorkflow(context.Background(), core.VariantDetectionWorkflow,
		workflow.NewFASTQDataset(reference, reads),
		workflow.RunOptions{
			ShardRecords: 1500,
			StageObserver: func(sr workflow.StageResult) {
				fmt.Printf("stage %-22s %2d shards %6d records  %v\n",
					sr.Stage, sr.Shards, sr.Records, sr.Elapsed.Round(1000))
			},
		})
	if err != nil {
		log.Fatal(err)
	}

	out := res.Output
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
	fmt.Printf("gather: %d/%d reads mapped, %d variants called, %d/%d planted SNVs recovered\n",
		out.Mapped, len(reads), len(out.Variants), recovered, len(planted))
	if recovered < len(planted) {
		log.Fatal("variantcalling: planted SNVs missed")
	}
	fmt.Println("ok")
}
