package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scan/internal/core"
	"scan/internal/genomics"
	"scan/internal/registry"
)

// fastqFixture renders a deterministic reference + read set as FASTA and
// FASTQ text, the client-side files a real upload would stream.
func fastqFixture(t *testing.T, seed int64, refLen, reads int) (fasta, fastq string, ref genomics.Sequence, rds []genomics.Read) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref = genomics.GenerateReference(rng, "chrT", refLen)
	rds, err := genomics.SimulateReads(rng, ref, genomics.ReadSimConfig{Count: reads, Length: 60, ErrorRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	var fa, fq bytes.Buffer
	if err := genomics.WriteFASTA(&fa, []genomics.Sequence{ref}, 70); err != nil {
		t.Fatal(err)
	}
	if err := genomics.WriteAllFASTQ(&fq, rds); err != nil {
		t.Fatal(err)
	}
	return fa.String(), fq.String(), ref, rds
}

// TestDatasetUploadAndJobLifecycle is the tentpole e2e: a FASTQ dataset
// uploaded once via streaming multipart serves two submissions that
// reference it by id; both complete with the correct structured result
// while the registry holds exactly one copy of the records.
func TestDatasetUploadAndJobLifecycle(t *testing.T) {
	c, s := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fasta, fastq, _, rds := fastqFixture(t, 21, 3000, 400)

	ds, err := c.UploadDataset(ctx, "sample-a", "fastq",
		UploadPart{Field: "reference", R: strings.NewReader(fasta)},
		UploadPart{Field: "data", R: strings.NewReader(fastq)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if ds.ID == "" || ds.Name != "sample-a" || ds.Family != "fastq" ||
		ds.Records != len(rds) || !ds.Reference || len(ds.Hash) != 64 {
		t.Fatalf("dataset = %+v", ds)
	}

	// Two jobs over the same registered dataset — by id and by name.
	var finals [2]Job
	for i, key := range []string{ds.ID, ds.Name} {
		job, err := c.CreateJob(ctx, SubmitJobRequest{Dataset: key})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if job.Source != SourceDataset || job.Dataset != ds.ID || job.Workflow != core.VariantDetectionWorkflow {
			t.Fatalf("job %d = %+v", i, job)
		}
		if finals[i], err = c.Watch(ctx, job.ID, nil); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	for i, final := range finals {
		if final.State != StateDone || final.Result == nil {
			t.Fatalf("job %d ended %s: %+v", i, final.State, final.Error)
		}
		r := final.Result
		if r.TotalReads != len(rds) || r.Mapped == 0 || len(r.Stages) != 8 {
			t.Fatalf("job %d result = %+v", i, r)
		}
	}
	// Same records, same workflow ⇒ identical analysis outcomes.
	if a, b := finals[0].Result, finals[1].Result; a.Mapped != b.Mapped || a.Variants != b.Variants {
		t.Fatalf("results diverge over one dataset: %+v vs %+v", a, b)
	}

	// "Exactly one copy": a submission's materialized workflow input
	// aliases the registry's stored records — same backing array, no
	// per-job duplication.
	_, stored, err := s.platform.Datasets().Pin(ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.platform.Datasets().Unpin(ds.ID)
	for i := 0; i < 2; i++ {
		spec, apiErr := s.normalizeSubmission(SubmitJobRequest{Dataset: ds.ID})
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		in, _, err := spec.source.materialize()
		if err != nil {
			t.Fatal(err)
		}
		if &in.Reads[0] != &stored.Reads[0] || &in.Reference.Seq[0] != &stored.Ref.Seq[0] {
			t.Fatal("materialized dataset copied the registry's records")
		}
		spec.source.release(s.platform.Datasets())
	}

	// The resource surface: list, get, delete.
	list, err := c.Datasets(ctx)
	if err != nil || len(list) != 1 || list[0].ID != ds.ID {
		t.Fatalf("Datasets() = %+v, %v", list, err)
	}
	got, err := c.Dataset(ctx, ds.Name)
	if err != nil || got.Hash != ds.Hash {
		t.Fatalf("Dataset() = %+v, %v", got, err)
	}
	if _, err := c.DeleteDataset(ctx, ds.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Dataset(ctx, ds.ID); err == nil {
		t.Fatal("deleted dataset still served")
	}
}

// TestDatasetFamilies drives the three non-genomic upload families through
// upload → submit → done, each defaulting to its family's workflow.
func TestDatasetFamilies(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// MGF: a tiny hand-built peptide database and matching spectra.
	var peptides, mgf strings.Builder
	for p := 0; p < 3; p++ {
		masses := make([]string, 6)
		for i := range masses {
			masses[i] = fmt.Sprintf("%.1f", 200.0+float64(p)*300+float64(i)*40)
		}
		fmt.Fprintf(&peptides, "P%d P%d.pep0 %s\n", p, p, strings.Join(masses, ","))
		fmt.Fprintf(&mgf, "BEGIN IONS\nTITLE=scan%d\n", p)
		for _, m := range masses {
			fmt.Fprintf(&mgf, "%s 10.0\n", m)
		}
		fmt.Fprintf(&mgf, "END IONS\n")
	}
	mgfDS, err := c.UploadDataset(ctx, "acquisition", "mgf",
		UploadPart{Field: "peptides", R: strings.NewReader(peptides.String())},
		UploadPart{Field: "spectra", R: strings.NewReader(mgf.String())},
	)
	if err != nil {
		t.Fatal(err)
	}
	if mgfDS.Records != 3 {
		t.Fatalf("mgf dataset = %+v", mgfDS)
	}

	// TIFF: two uniform PGM frames.
	var pgm strings.Builder
	for f := 0; f < 2; f++ {
		fmt.Fprintf(&pgm, "P2\n32 32\n255\n")
		for i := 0; i < 32*32; i++ {
			fmt.Fprintf(&pgm, "%d\n", 5)
		}
	}
	tiffDS, err := c.UploadDataset(ctx, "plate", "tiff",
		UploadPart{Field: "data", R: strings.NewReader(pgm.String())})
	if err != nil {
		t.Fatal(err)
	}

	// FeatureTable: two clearly separated modules.
	var tsv strings.Builder
	for g := 0; g < 40; g++ {
		fmt.Fprintf(&tsv, "g%d %f\n", g, float64(g%2)*10)
	}
	featDS, err := c.UploadDataset(ctx, "measurements", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader(tsv.String())})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		ds       DatasetInfo
		workflow string
		check    func(r *JobResult) error
	}{
		{mgfDS, "proteome-maxquant", func(r *JobResult) error {
			if r.TotalRecords != 3 || r.Proteins == 0 {
				return fmt.Errorf("proteome result = %+v", r)
			}
			return nil
		}},
		{tiffDS, "cell-imaging", func(r *JobResult) error {
			if r.TotalRecords != 2 {
				return fmt.Errorf("imaging result = %+v", r)
			}
			return nil
		}},
		{featDS, "integrative-network", func(r *JobResult) error {
			if r.Nodes != 40 || r.Modules != 2 {
				return fmt.Errorf("network result = %+v", r)
			}
			return nil
		}},
	} {
		job, err := c.CreateJob(ctx, SubmitJobRequest{Dataset: tc.ds.ID})
		if err != nil {
			t.Fatalf("%s: %v", tc.ds.Family, err)
		}
		if job.Workflow != tc.workflow {
			t.Fatalf("%s defaulted to %q, want %q", tc.ds.Family, job.Workflow, tc.workflow)
		}
		final, err := c.Watch(ctx, job.ID, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.ds.Family, err)
		}
		if final.State != StateDone {
			t.Fatalf("%s ended %s: %+v", tc.ds.Family, final.State, final.Error)
		}
		if err := tc.check(final.Result); err != nil {
			t.Error(err)
		}
	}
}

// TestNamedReferenceGenome registers a reference once and runs reads
// against it two ways: inline reads with no inline reference, and a
// reads-only FASTQ dataset.
func TestNamedReferenceGenome(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fasta, fastq, _, rds := fastqFixture(t, 33, 2500, 300)

	refDS, err := c.UploadDataset(ctx, "grch-toy", "reference",
		UploadPart{Field: "data", R: strings.NewReader(fasta)})
	if err != nil {
		t.Fatal(err)
	}
	if refDS.Family != "reference" || refDS.Records != 1 {
		t.Fatalf("reference dataset = %+v", refDS)
	}

	// Inline reads naming the registered reference — no genome on the wire.
	inline := &InlineDataset{}
	for _, r := range rds[:50] {
		inline.Reads = append(inline.Reads, InlineRead{ID: r.ID, Sequence: string(r.Seq)})
	}
	job, err := c.CreateJob(ctx, SubmitJobRequest{Inline: inline, Reference: "grch-toy"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Watch(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result.Mapped == 0 {
		t.Fatalf("inline+named-reference job = %+v (%+v)", final, final.Error)
	}

	// A reads-only FASTQ dataset is submittable only with a named reference.
	readsDS, err := c.UploadDataset(ctx, "reads-only", "fastq",
		UploadPart{Field: "data", R: strings.NewReader(fastq)})
	if err != nil {
		t.Fatal(err)
	}
	if readsDS.Reference {
		t.Fatalf("reads-only dataset claims a reference: %+v", readsDS)
	}
	_, err = c.CreateJob(ctx, SubmitJobRequest{Dataset: readsDS.ID})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeInvalidArgument || !strings.Contains(ae.Message, "no reference") {
		t.Fatalf("referenceless submit err = %v", err)
	}
	job2, err := c.CreateJob(ctx, SubmitJobRequest{Dataset: readsDS.ID, Reference: refDS.ID})
	if err != nil {
		t.Fatal(err)
	}
	final2, err := c.Watch(ctx, job2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != StateDone || final2.Result.TotalReads != len(rds) {
		t.Fatalf("dataset+named-reference job = %+v (%+v)", final2, final2.Error)
	}
}

func TestDatasetSubmitValidation(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fasta, _, _, _ := fastqFixture(t, 5, 2000, 10)
	refDS, err := c.UploadDataset(ctx, "ref", "reference",
		UploadPart{Field: "data", R: strings.NewReader(fasta)})
	if err != nil {
		t.Fatal(err)
	}
	var tsv strings.Builder
	for g := 0; g < 10; g++ {
		fmt.Fprintf(&tsv, "g%d 1.0\n", g)
	}
	featDS, err := c.UploadDataset(ctx, "feat", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader(tsv.String())})
	if err != nil {
		t.Fatal(err)
	}

	inline := &InlineDataset{
		Reference: InlineSequence{Sequence: strings.Repeat("ACGT", 100)},
		Reads:     []InlineRead{{Sequence: "ACGTACGTACGTACGTACGT"}},
	}
	for name, tc := range map[string]struct {
		req  SubmitJobRequest
		code string
		want string
	}{
		"dataset plus synthetic": {SubmitJobRequest{Dataset: featDS.ID, Synthetic: smallSynthetic(1)},
			CodeInvalidArgument, "exactly one of"},
		"unknown dataset": {SubmitJobRequest{Dataset: "ds-404"},
			CodeNotFound, "not registered"},
		"unknown reference": {SubmitJobRequest{Inline: &InlineDataset{Reads: inline.Reads}, Reference: "nope"},
			CodeNotFound, "not registered"},
		"reference submitted as dataset": {SubmitJobRequest{Dataset: refDS.ID},
			CodeInvalidArgument, "reference genome"},
		"reference on a non-sequencing source": {SubmitJobRequest{Dataset: featDS.ID, Reference: refDS.ID},
			CodeInvalidArgument, "sequencing submissions"},
		"reference names a non-reference dataset": {SubmitJobRequest{Inline: &InlineDataset{Reads: inline.Reads}, Reference: featDS.ID},
			CodeInvalidArgument, "not a reference genome"},
		"inline and named reference both": {SubmitJobRequest{Inline: inline, Reference: refDS.ID},
			CodeInvalidArgument, "mutually exclusive"},
		"workflow family mismatch": {SubmitJobRequest{Dataset: featDS.ID, Workflow: core.VariantDetectionWorkflow},
			CodeInvalidArgument, "consumes"},
	} {
		_, err := c.CreateJob(ctx, tc.req)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != tc.code || !strings.Contains(ae.Message, tc.want) {
			t.Errorf("%s: err = %v, want %s containing %q", name, err, tc.code, tc.want)
		}
	}
}

// TestSubmitEvictedDataset pins the eviction contract: a registry bounded
// to one dataset evicts the oldest unreferenced entry on the next upload,
// and a submission naming the evicted dataset gets a machine-readable 404.
func TestSubmitEvictedDataset(t *testing.T) {
	p := core.NewPlatform(core.Options{
		Workers:  2,
		Registry: registry.Options{MaxDatasets: 1},
	})
	c, _ := testServerOptions(t, p, ServerOptions{Executors: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	row := strings.NewReader("g0 1.0\n")
	first, err := c.UploadDataset(ctx, "first", "feature-table", UploadPart{Field: "data", R: row})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.UploadDataset(ctx, "second", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader("g0 2.0\n")}); err != nil {
		t.Fatal(err)
	}
	_, err = c.CreateJob(ctx, SubmitJobRequest{Dataset: first.ID})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeNotFound {
		t.Fatalf("evicted-dataset submit err = %v, want coded not_found", err)
	}
	if !strings.Contains(err.Error(), "evicted") {
		t.Fatalf("error does not explain eviction: %v", err)
	}
}

// TestDatasetPinnedWhileJobRuns proves the registry's reference counting:
// a dataset backing a queued/running job can be neither deleted nor
// evicted until the job finishes.
func TestDatasetPinnedWhileJobRuns(t *testing.T) {
	p, block := blockingPlatform(t)
	c, _ := testServerOptions(t, p, ServerOptions{Executors: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fasta, fastq, _, _ := fastqFixture(t, 7, 2000, 20)
	ds, err := c.UploadDataset(ctx, "busy", "fastq",
		UploadPart{Field: "reference", R: strings.NewReader(fasta)},
		UploadPart{Field: "data", R: strings.NewReader(fastq)},
	)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.CreateJob(ctx, SubmitJobRequest{Dataset: ds.ID, Workflow: "block-forever"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-block.started: // the job's stage is now in flight
	case <-ctx.Done():
		t.Fatal("job never started")
	}

	_, err = c.DeleteDataset(ctx, ds.ID)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeConflict {
		t.Fatalf("delete-while-running err = %v, want conflict", err)
	}
	if _, err := c.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Watch(ctx, job.ID, nil); err != nil {
		t.Fatal(err)
	}
	// Terminal job ⇒ pin released ⇒ deletable.
	if _, err := c.DeleteDataset(ctx, ds.ID); err != nil {
		t.Fatalf("delete after terminal state: %v", err)
	}
}

func TestDatasetUploadValidation(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := c.UploadDataset(ctx, "x", "bam",
		UploadPart{Field: "data", R: strings.NewReader("g0 1.0\n")}); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := c.UploadDataset(ctx, "", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader("g0 1.0\n")}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := c.UploadDataset(ctx, "mgf-partless", "mgf",
		UploadPart{Field: "spectra", R: strings.NewReader("BEGIN IONS\n100.0\nEND IONS\n")}); err == nil {
		t.Error("mgf without peptides accepted")
	}
	if _, err := c.UploadDataset(ctx, "bad-part", "feature-table",
		UploadPart{Field: "bogus", R: strings.NewReader("g0 1.0\n")}); err == nil {
		t.Error("unexpected part accepted")
	}
	if _, err := c.UploadDataset(ctx, "ok", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader("g0 1.0\n")}); err != nil {
		t.Fatal(err)
	}
	// Duplicate names conflict instead of overwriting.
	_, err := c.UploadDataset(ctx, "ok", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader("g1 2.0\n")})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeConflict {
		t.Errorf("duplicate name err = %v, want conflict", err)
	}
}

// TestDatasetUploadTruncatedMultipart sends a multipart body cut off inside
// the data part: the decode must fail cleanly with the v2 envelope, not
// hang or store a partial dataset.
func TestDatasetUploadTruncatedMultipart(t *testing.T) {
	c, _ := testServer(t)

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	if err := mw.WriteField("name", "cut"); err != nil {
		t.Fatal(err)
	}
	if err := mw.WriteField("family", "fastq"); err != nil {
		t.Fatal(err)
	}
	fw, err := mw.CreateFormFile("data", "data")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(fw, "@r1\nACGTACGT\n+\nIIIIIIII\n@r2\nACGT\n")
	// No mw.Close(): the terminal boundary never arrives.
	truncated := body.Bytes()[:body.Len()-10]

	req, err := http.NewRequest(http.MethodPost, c.base+"/api/v2/datasets", bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated multipart status = %d, want 400", resp.StatusCode)
	}
	ctx := context.Background()
	if list, err := c.Datasets(ctx); err != nil || len(list) != 0 {
		t.Fatalf("partial dataset stored: %+v, %v", list, err)
	}
}

// TestDatasetUploadOverCap streams more feature rows than the per-family
// cap: the decoder must abort mid-stream with a 4xx after consuming only
// its bounded prefix — the daemon's memory exposure is the cap, not the
// body size.
func TestDatasetUploadOverCap(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rows := &countingRowReader{limit: 100 * maxUploadRows}
	_, err := c.UploadDataset(ctx, "huge", "feature-table", UploadPart{Field: "data", R: rows})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeInvalidArgument || !strings.Contains(ae.Message, "more than") {
		t.Fatalf("over-cap upload err = %v", err)
	}
	// Bounded consumption: the decoder stopped pulling at the row cap, so
	// the client's stream was abandoned far from its end. What the client
	// observes includes kernel socket buffering and the post-response
	// connection drain on top of the decoded records, so the assertion here
	// is coarse; the exact stop-at-the-cap behavior (record count, not
	// bytes buffered) is pinned by the registry's decoder tests.
	if emitted := rows.emitted.Load(); emitted > int64(rows.limit)/2 {
		t.Fatalf("server consumed %d of %d offered rows against a %d-row cap", emitted, rows.limit, maxUploadRows)
	}
}

// countingRowReader emits feature rows (up to limit) and records how many
// were actually pulled through the pipe. emitted is atomic because the
// client's streaming-upload goroutine may still be draining the reader
// when the test inspects the count.
type countingRowReader struct {
	limit   int
	emitted atomic.Int64
	buf     []byte
}

func (r *countingRowReader) Read(p []byte) (int, error) {
	for len(r.buf) < len(p) && r.emitted.Load() < int64(r.limit) {
		r.buf = append(r.buf, fmt.Sprintf("g%d 1.0\n", r.emitted.Load())...)
		r.emitted.Add(1)
	}
	if len(r.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}
