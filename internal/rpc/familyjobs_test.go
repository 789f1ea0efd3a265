package rpc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"scan/internal/knowledge"
)

// End-to-end HTTP coverage for the three non-genomic families: each
// workflow submits through POST /api/v2/jobs with its family's synthetic
// spec, streams its stages over SSE, reports a family-shaped structured
// result, and leaves run-log telemetry in the knowledge base — verified
// over the HTTP query surface, which flushes the ingest buffer exactly
// like knowledge.Base.Flush.

// kbRunLogs counts RunLog individuals for one tool over the HTTP SPARQL
// endpoint.
func kbRunLogs(ctx context.Context, t *testing.T, c *Client, tool string) int {
	t.Helper()
	res, err := c.Query(ctx, fmt.Sprintf(`
PREFIX scan: <%s>
SELECT ?run WHERE {
  ?run a scan:RunLog ;
       scan:application scan:%s .
}`, knowledge.NS, tool))
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

// watchToDone submits nothing itself: it follows an existing job's SSE
// stream, returning the terminal job and the observed stage events.
func watchToDone(ctx context.Context, t *testing.T, c *Client, id int) (Job, []JobEvent) {
	t.Helper()
	var stages []JobEvent
	final, err := c.Watch(ctx, id, func(ev JobEvent) {
		if ev.Type == EventStage {
			stages = append(stages, ev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return final, stages
}

func TestV2ProteomeJobsEndToEnd(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, tc := range []struct {
		workflow, stage, tool string
		quantified            bool
	}{
		{"proteome-maxquant", "Quantify", "MaxQuant", true},
		{"proteome-gpm", "Search", "GPM", false},
	} {
		logsBefore := kbRunLogs(ctx, t, c, tc.tool)
		job, err := c.CreateJob(ctx, SubmitJobRequest{
			Workflow:     tc.workflow,
			Proteome:     &ProteomeSpec{Proteins: 15, Spectra: 300, Seed: 5},
			ShardRecords: 100,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.workflow, err)
		}
		if job.Workflow != tc.workflow || job.Source != SourceSynthetic || job.Family != "proteomic" {
			t.Fatalf("%s: job = %+v", tc.workflow, job)
		}
		final, stages := watchToDone(ctx, t, c, job.ID)
		if final.State != StateDone {
			t.Fatalf("%s: state = %q (%+v)", tc.workflow, final.State, final.Error)
		}
		r := final.Result
		// Family-shaped result: protein evidence, spectrum input count, the
		// spectrum-shard scatter (300 spectra at 100/shard).
		if r.Proteins != 15 || r.TotalRecords != 300 || r.Shards != 3 {
			t.Fatalf("%s: result = %+v", tc.workflow, r)
		}
		if r.TotalReads != 0 || r.Variants != 0 || r.Planted != 0 {
			t.Fatalf("%s: sequencing fields leaked into a proteomic result: %+v", tc.workflow, r)
		}
		if len(r.Stages) != 1 || r.Stages[0].Name != tc.stage || r.Stages[0].Tool != tc.tool || r.Stages[0].Shards != 3 {
			t.Fatalf("%s: stage breakdown = %+v", tc.workflow, r.Stages)
		}
		// The SSE stream carried the same stage completion.
		if len(stages) != 1 || stages[0].Stage.Name != tc.stage {
			t.Fatalf("%s: stage events = %+v", tc.workflow, stages)
		}
		// Per-shard telemetry reached the KB: one run log per spectrum shard.
		if got := kbRunLogs(ctx, t, c, tc.tool); got != logsBefore+3 {
			t.Fatalf("%s: %s run logs = %d, want %d", tc.workflow, tc.tool, got, logsBefore+3)
		}
	}
}

func TestV2ImagingJobEndToEnd(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// 192 stacked frame rows at 64 a shard: three row ranges, the middle
	// one crossing from the first frame into the second.
	job, err := c.CreateJob(ctx, SubmitJobRequest{
		Imaging:      &ImagingSpec{Images: 2, Width: 96, Height: 96, CellsPerImage: 5, Seed: 7},
		ShardRecords: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The imaging source defaults to the cell-imaging workflow.
	if job.Workflow != "cell-imaging" || job.Family != "imaging" {
		t.Fatalf("job = %+v", job)
	}
	final, stages := watchToDone(ctx, t, c, job.ID)
	if final.State != StateDone {
		t.Fatalf("state = %q (%+v)", final.State, final.Error)
	}
	r := final.Result
	// Segmentation recovers exactly the planted cells: one feature each.
	if r.Features != 10 || r.TotalRecords != 2 {
		t.Fatalf("result = %+v", r)
	}
	if len(r.Stages) != 1 || r.Stages[0].Tool != "CellProfiler" || r.Stages[0].Shards != 3 || r.Shards != 3 {
		t.Fatalf("stage breakdown = %+v", r.Stages)
	}
	if len(stages) != 1 || stages[0].Stage.Name != "Profile" {
		t.Fatalf("stage events = %+v", stages)
	}
	if got := kbRunLogs(ctx, t, c, "CellProfiler"); got != r.Stages[0].Shards {
		t.Fatalf("CellProfiler run logs = %d, want %d row ranges", got, r.Stages[0].Shards)
	}
}

func TestV2NetworkJobEndToEnd(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := c.CreateJob(ctx, SubmitJobRequest{
		Network:      &NetworkSpec{Genes: 60, Modules: 4, Seed: 9},
		ShardRecords: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.Workflow != "integrative-network" || job.Family != "integrative" {
		t.Fatalf("job = %+v", job)
	}
	final, stages := watchToDone(ctx, t, c, job.ID)
	if final.State != StateDone {
		t.Fatalf("state = %q (%+v)", final.State, final.Error)
	}
	r := final.Result
	// Network-shaped result: the planted module structure is recovered and
	// the node partitions (60 genes at 20/partition) are reported.
	if r.Nodes != 60 || r.Modules != 4 || r.Edges == 0 || r.Shards != 3 {
		t.Fatalf("result = %+v", r)
	}
	if len(stages) != 1 || stages[0].Stage.Name != "Integrate" || stages[0].Stage.Shards != 3 {
		t.Fatalf("stage events = %+v", stages)
	}
	if got := kbRunLogs(ctx, t, c, "Cytoscape"); got != 3 {
		t.Fatalf("Cytoscape run logs = %d, want 3 partitions", got)
	}
}

// TestV2DenseNetworkJobCompletes: the densest network a submission may
// ask for, every gene in one module (about 2×10⁸ edges), is accepted and
// runs: the Integrate stage counts its edges and never builds them.
func TestV2DenseNetworkJobCompletes(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := c.CreateJob(ctx, SubmitJobRequest{
		Network: &NetworkSpec{Genes: maxSyntheticGenes, Modules: 1, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	final, _ := watchToDone(ctx, t, c, job.ID)
	if final.State != StateDone {
		t.Fatalf("state = %q (%+v)", final.State, final.Error)
	}
	if r := final.Result; r.Nodes != maxSyntheticGenes || r.Modules != 1 || r.Edges < maxSyntheticGenes*(maxSyntheticGenes-1)/4 {
		t.Fatalf("result = %+v", r)
	}
}

// TestV2FamilySpecValidation: family specs get the same machine-readable
// rejection surface as the sequencing specs, including data-type mismatch
// between spec and workflow.
func TestV2FamilySpecValidation(t *testing.T) {
	c, _ := testServer(t)
	ctx := context.Background()
	for name, tc := range map[string]struct {
		req  SubmitJobRequest
		want string
	}{
		"proteome zero spectra": {SubmitJobRequest{Proteome: &ProteomeSpec{Proteins: 5}},
			"spectra must be >= 1"},
		"proteome over cap": {SubmitJobRequest{Proteome: &ProteomeSpec{Proteins: 5, Spectra: 1 << 20}},
			"at most"},
		"imaging no frames": {SubmitJobRequest{Imaging: &ImagingSpec{}},
			"images must be in"},
		"imaging tiny frame": {SubmitJobRequest{Imaging: &ImagingSpec{Images: 1, Width: 8, Height: 8}},
			"width and height"},
		"imaging overcrowded": {SubmitJobRequest{Imaging: &ImagingSpec{Images: 1, CellsPerImage: 999}},
			"cells_per_image"},
		"network no genes": {SubmitJobRequest{Network: &NetworkSpec{Modules: 2}},
			"genes must be in"},
		"network modules exceed genes": {SubmitJobRequest{Network: &NetworkSpec{Genes: 3, Modules: 9}},
			"modules must be in"},
		"two sources": {SubmitJobRequest{Proteome: &ProteomeSpec{Proteins: 5, Spectra: 10},
			Network: &NetworkSpec{Genes: 10, Modules: 2}},
			"exactly one of"},
		"spec/workflow type mismatch": {SubmitJobRequest{Workflow: "cell-imaging",
			Proteome: &ProteomeSpec{Proteins: 5, Spectra: 10}},
			"consumes TIFF"},
		"fastq workflow on network spec": {SubmitJobRequest{Workflow: "dna-variant-detection",
			Network: &NetworkSpec{Genes: 10, Modules: 2}},
			"consumes FASTQ"},
	} {
		_, err := c.CreateJob(ctx, tc.req)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != CodeInvalidArgument || !strings.Contains(ae.Message, tc.want) {
			t.Errorf("%s: err = %v, want invalid_argument containing %q", name, err, tc.want)
		}
	}
	// v1 stays a sequencing-only surface: its submissions cannot reach the
	// family workflows even now that they are runnable.
	_, err := c.Submit(ctx, SubmitRequest{
		Workflow: "proteome-maxquant", ReferenceLength: 2000, Reads: 100,
	})
	if err == nil || !strings.Contains(err.Error(), "consumes MGF") {
		t.Errorf("v1 proteomic submit: err = %v, want consumes MGF rejection", err)
	}
}
