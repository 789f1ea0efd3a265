package rpc

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSourceResultsPinned runs one job per source kind — the four
// generated families, inline reads, and registry datasets with an embedded
// or a named reference — and pins every count of each result. The values
// were captured before the job path moved behind the source interface:
// validation, materialization and scoring must not move a single record.
//
// Each job runs on its own server, so a broker-advised shard count is the
// advice for a knowledge base with no telemetry for the stage: once a
// stage has run, the Data Broker may round its count up to the pool, by a
// rate that depends on the host's speed.
func TestSourceResultsPinned(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	fasta, fastq, ref, rds := fastqFixture(t, 21, 3000, 400)
	var tsv strings.Builder
	for g := 0; g < 60; g++ {
		fmt.Fprintf(&tsv, "g%d %f\n", g, float64(g%3)*10)
	}
	// server starts a fresh daemon holding the four registry datasets and
	// returns their ids by name.
	server := func() (*Client, map[string]string) {
		c, _ := testServer(t)
		ids := map[string]string{}
		upload := func(name, family string, parts ...UploadPart) {
			t.Helper()
			ds, err := c.UploadDataset(ctx, name, family, parts...)
			if err != nil {
				t.Fatal(err)
			}
			ids[name] = ds.ID
		}
		upload("with-ref", "fastq",
			UploadPart{Field: "reference", R: strings.NewReader(fasta)},
			UploadPart{Field: "data", R: strings.NewReader(fastq)})
		upload("reads-only", "fastq", UploadPart{Field: "data", R: strings.NewReader(fastq)})
		upload("genome", "reference", UploadPart{Field: "data", R: strings.NewReader(fasta)})
		upload("table", "feature-table", UploadPart{Field: "data", R: strings.NewReader(tsv.String())})
		return c, ids
	}

	inline := func(withRef bool) *InlineDataset {
		in := &InlineDataset{}
		if withRef {
			in.Reference = InlineSequence{Name: ref.Name, Sequence: string(ref.Seq)}
		}
		for _, r := range rds[:200] {
			in.Reads = append(in.Reads, InlineRead{ID: r.ID, Sequence: string(r.Seq), Quality: string(r.Qual)})
		}
		return in
	}

	// Dataset and Reference name an upload; each server resolves them.
	for _, tc := range []struct {
		name string
		req  SubmitJobRequest
		want JobResult
	}{
		{"synthetic", SubmitJobRequest{Synthetic: &SyntheticSpec{ReferenceLength: 6000, Reads: 1500, SNVs: 8, Seed: 5}, ShardRecords: 500},
			JobResult{Mapped: 1500, TotalReads: 1500, TotalRecords: 1500, Variants: 7, Recovered: 7, Planted: 8, Shards: 3}},
		{"inline", SubmitJobRequest{Inline: inline(true)},
			JobResult{Mapped: 200, TotalReads: 200, TotalRecords: 200, Shards: 1}},
		{"inline+reference", SubmitJobRequest{Inline: inline(false), Reference: "genome"},
			JobResult{Mapped: 200, TotalReads: 200, TotalRecords: 200, Shards: 1}},
		{"proteome", SubmitJobRequest{Proteome: &ProteomeSpec{Proteins: 20, Spectra: 400, Seed: 3}},
			JobResult{TotalRecords: 400, Proteins: 20, Shards: 1}},
		{"imaging", SubmitJobRequest{Imaging: &ImagingSpec{Images: 3, CellsPerImage: 6, Seed: 4}},
			JobResult{TotalRecords: 3, Features: 18, Shards: 1}},
		{"network", SubmitJobRequest{Network: &NetworkSpec{Genes: 100, Modules: 5, Seed: 6}},
			JobResult{TotalRecords: 100, Features: 100, Nodes: 100, Edges: 950, Modules: 5, Shards: 1}},
		{"dataset", SubmitJobRequest{Dataset: "with-ref", ShardRecords: 100},
			JobResult{Mapped: 400, TotalReads: 400, TotalRecords: 400, Shards: 4}},
		{"dataset+reference", SubmitJobRequest{Dataset: "reads-only", Reference: "genome"},
			JobResult{Mapped: 400, TotalReads: 400, TotalRecords: 400, Shards: 1}},
		{"dataset/feature-table", SubmitJobRequest{Dataset: "table"},
			JobResult{TotalRecords: 60, Features: 60, Nodes: 60, Edges: 570, Modules: 3, Shards: 1}},
	} {
		c, ids := server()
		if tc.req.Dataset != "" {
			tc.req.Dataset = ids[tc.req.Dataset]
		}
		if tc.req.Reference != "" {
			tc.req.Reference = ids[tc.req.Reference]
		}
		job, err := c.CreateJob(ctx, tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		final, err := c.Watch(ctx, job.ID, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if final.State != StateDone {
			t.Fatalf("%s ended %s: %+v", tc.name, final.State, final.Error)
		}
		got := *final.Result
		got.ElapsedSec, got.Stages = 0, nil
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: counts = %#v\nwant %#v", tc.name, got, tc.want)
		}
	}
}
