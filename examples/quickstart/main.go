// Quickstart: run a complete SCAN analysis in one file.
//
// The platform generates a synthetic genome, plants mutations, simulates
// sequencing reads, then runs the catalogued dna-variant-detection
// workflow through Platform.RunWorkflow (Data-Broker-advised splitting →
// parallel alignment → parallel variant calling → merge) and checks the
// planted mutations were recovered.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"scan/internal/core"
	"scan/internal/genomics"
	"scan/internal/variant"
	"scan/internal/workflow"
)

func main() {
	// 1. Synthetic dataset: a 20 kb genome, 12 planted SNVs, 30× coverage.
	rng := rand.New(rand.NewSource(7))
	reference := genomics.GenerateReference(rng, "chr1", 20000)
	tumour, planted := genomics.PlantSNVs(rng, reference, 12)
	reads, err := genomics.SimulateReads(rng, tumour, genomics.ReadSimConfig{
		Count: 6000, Length: 100, ErrorRate: 0.002,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. The platform. The default knowledge base is seeded with the
	// paper's GATK profiles, which the Data Broker consults to size shards.
	platform := core.NewPlatform(core.Options{Workers: 4})

	result, err := platform.RunWorkflow(context.Background(), core.VariantDetectionWorkflow,
		workflow.NewFASTQDataset(reference, reads),
		workflow.RunOptions{Caller: variant.Config{MinDepth: 8, MinAltFraction: 0.6}})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Report: the Data Broker's plan for the reads, then every stage
	// that fanned out (the refinement pass-throughs have no scatter).
	out := result.Output
	if sr, ok := result.RecordScatter(); ok {
		fmt.Printf("shards: %d × %d records (advice from %s)\n",
			sr.Plan.NumShards, sr.Plan.RecordsPerShard, sr.Advice.BasedOn)
	}
	fmt.Printf("mapped: %d/%d reads\n", out.Mapped, len(reads))
	for _, sr := range result.Stages {
		if sr.Shards > 0 {
			fmt.Printf("stage %-16s %3d shards  %v\n", sr.Stage, sr.Shards, sr.Elapsed.Round(1000))
		}
	}

	recovered := 0
	calledAt := map[int]genomics.Variant{}
	for _, v := range out.Variants {
		calledAt[v.Pos-1] = v
	}
	for _, m := range planted {
		if v, ok := calledAt[m.Pos]; ok && v.Alt == m.Alt {
			recovered++
		}
	}
	fmt.Printf("variants called: %d, planted SNVs recovered: %d/%d\n",
		len(out.Variants), recovered, len(planted))
	if recovered < len(planted)-1 {
		log.Fatal("quickstart: recovery below expectation")
	}
	fmt.Println("ok")
}
