// Variant-calling workflow with explicit file-level sharding.
//
// This example mirrors the paper's Data Broker description: a large FASTQ
// input is split into record-bounded shards ("divide a 100GB FASTQ file
// into 25 4GB files"), each shard is analysed independently, and the
// per-shard outputs are gathered into one coordinate-sorted SBAM and one
// merged VCF (the VariantsToVCF-style gather step).
//
//	go run ./examples/variantcalling
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"

	"scan/internal/align"
	"scan/internal/genomics"
	"scan/internal/shard"
	"scan/internal/variant"
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

	// Serialise the "sequencing run" to FASTQ — the input artifact.
	var fastq bytes.Buffer
	if err := genomics.WriteAllFASTQ(&fastq, reads); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input: %d reads, %.1f KB of FASTQ\n", len(reads), float64(fastq.Len())/1024)

	// 1. Scatter: the Data Sharder splits the stream on record boundaries.
	var shards []*bytes.Buffer
	nShards, total, err := shard.SplitFASTQ(&fastq, 1500, func(i int) (io.Writer, error) {
		b := &bytes.Buffer{}
		shards = append(shards, b)
		return b, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scatter: %d shards of ≤1500 records (%d total)\n", nShards, total)

	// 2. Per-shard analysis: align, then emit a per-shard SBAM.
	aligner, err := align.New(reference, align.Config{})
	if err != nil {
		log.Fatal(err)
	}
	header := genomics.NewHeader(genomics.RefInfo{Name: reference.Name, Length: reference.Len()})
	var sbamShards []*bytes.Buffer
	var vcfShards []*bytes.Buffer
	for i, b := range shards {
		shardReads, err := genomics.ReadAllFASTQ(bytes.NewReader(b.Bytes()))
		if err != nil {
			log.Fatal(err)
		}
		alns, mapped := aligner.AlignAll(shardReads)

		var sbam bytes.Buffer
		if err := genomics.WriteSBAM(&sbam, header, alns); err != nil {
			log.Fatal(err)
		}
		sbamShards = append(sbamShards, &sbam)

		caller := variant.NewCaller(reference, variant.Config{MinDepth: 3, MinAltFraction: 0.5})
		if err := caller.AddAll(alns); err != nil {
			log.Fatal(err)
		}
		var vcf bytes.Buffer
		if err := genomics.WriteVCF(&vcf, fmt.Sprintf("shard-%d", i), caller.Call()); err != nil {
			log.Fatal(err)
		}
		vcfShards = append(vcfShards, &vcf)
		fmt.Printf("  shard %d: %d reads, %d mapped\n", i, len(shardReads), mapped)
	}

	// 3. Gather: merge SBAM shards (coordinate sort) and VCF shards
	// (dedupe, keep best quality).
	var mergedSBAM bytes.Buffer
	readers := make([]io.Reader, len(sbamShards))
	for i, b := range sbamShards {
		readers[i] = bytes.NewReader(b.Bytes())
	}
	n, err := shard.MergeSBAM(&mergedSBAM, readers...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gather: %d alignments in merged SBAM (%.1f KB)\n",
		n, float64(mergedSBAM.Len())/1024)

	vcfReaders := make([]io.Reader, len(vcfShards))
	for i, b := range vcfShards {
		vcfReaders[i] = bytes.NewReader(b.Bytes())
	}
	var mergedVCF bytes.Buffer
	nv, err := shard.MergeVCF(&mergedVCF, "SCAN-example", vcfReaders...)
	if err != nil {
		log.Fatal(err)
	}

	// Per-shard calling sees only a slice of the coverage, so recall is
	// evaluated against the merged call set.
	variants, err := genomics.ReadVCF(bytes.NewReader(mergedVCF.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	recovered := 0
	byPos := map[int]genomics.Variant{}
	for _, v := range variants {
		byPos[v.Pos-1] = v
	}
	for _, m := range planted {
		if v, ok := byPos[m.Pos]; ok && v.Alt == string(m.Alt) {
			recovered++
		}
	}
	fmt.Printf("gather: %d merged variants, %d/%d planted SNVs present\n",
		nv, recovered, len(planted))
	fmt.Println("ok")
}
