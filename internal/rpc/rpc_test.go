package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scan/internal/core"
	"scan/internal/knowledge"
)

func testServer(t *testing.T) (*Client, *Server) {
	t.Helper()
	p := core.NewPlatform(core.Options{Workers: 2})
	s := NewServerOptions(p, ServerOptions{Executors: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return NewClient(ts.URL), s
}

// errorResponse and v2ErrorResponse decode the v1 {"error":"<string>"} and
// v2 {"error":{"code","message"}} envelopes internal/route writes.
type errorResponse struct {
	Error string `json:"error"`
}

type v2ErrorResponse struct {
	Error APIError `json:"error"`
}

func TestSubmitAndWait(t *testing.T) {
	c, _ := testServer(t)
	ctx := context.Background()
	info, err := c.Submit(ctx, SubmitRequest{
		ReferenceLength: 4000, Reads: 800, SNVs: 6, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StatePending {
		t.Fatalf("state = %q", info.State)
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	done, err := c.Wait(ctx, info.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("final state = %q (%s)", done.State, done.Error)
	}
	if done.Mapped == 0 || done.TotalReads != 800 {
		t.Fatalf("result = %+v", done)
	}
	if done.Recovered < done.Planted-1 {
		t.Fatalf("recovered %d/%d", done.Recovered, done.Planted)
	}
	if done.ElapsedSec <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestSubmitValidation(t *testing.T) {
	c, _ := testServer(t)
	if _, err := c.Submit(context.Background(), SubmitRequest{ReferenceLength: 10, Reads: 0}); err == nil {
		t.Fatal("invalid submission accepted")
	}
}

func TestJobsListAndLookup(t *testing.T) {
	c, _ := testServer(t)
	ctx := context.Background()
	a, err := c.Submit(ctx, SubmitRequest{ReferenceLength: 2000, Reads: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(ctx, SubmitRequest{ReferenceLength: 2000, Reads: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != a.ID || jobs[1].ID != b.ID {
		t.Fatalf("jobs = %+v", jobs)
	}
	if _, err := c.Job(ctx, 999); err == nil {
		t.Fatal("lookup of unknown job succeeded")
	}
	if !strings.Contains(err999(c), "no job 999") {
		t.Fatal("error message should carry server detail")
	}
}

func err999(c *Client) string {
	_, err := c.Job(context.Background(), 999)
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestWorkflowsEndpoint(t *testing.T) {
	c, _ := testServer(t)
	wfs, err := c.Workflows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(wfs) < 11 {
		t.Fatalf("workflows = %d, want >= 11", len(wfs))
	}
	byName := map[string]WorkflowInfo{}
	for _, wf := range wfs {
		byName[wf.Name] = wf
	}
	dna := byName["dna-variant-detection"]
	if !dna.Runnable || len(dna.Stages) != 8 || dna.Consumes != "FASTQ" || dna.Produces != "VCF" {
		t.Fatalf("dna-variant-detection = %+v", dna)
	}
	// Every catalogued workflow is runnable — all four families have
	// engine substrates.
	for _, wf := range wfs {
		if !wf.Runnable {
			t.Errorf("%s not runnable: %s", wf.Name, wf.Reason)
		}
	}
	mq := byName["proteome-maxquant"]
	if mq.Consumes != "MGF" || mq.Produces != "ProteinTable" {
		t.Fatalf("proteome-maxquant = %+v", mq)
	}
}

func TestSubmitNamedWorkflows(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, tc := range []struct {
		workflow     string
		wantVariants bool
		wantFeatures bool
	}{
		{"somatic-mutation-detection", true, false},
		{"rna-expression", false, true},
	} {
		info, err := c.Submit(ctx, SubmitRequest{
			Workflow: tc.workflow, ReferenceLength: 6000, Reads: 1500, SNVs: 8, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if info.Workflow != tc.workflow {
			t.Fatalf("submitted workflow = %q, want %q", info.Workflow, tc.workflow)
		}
		done, err := c.Wait(ctx, info.ID, 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != StateDone {
			t.Fatalf("%s: state = %q (%s)", tc.workflow, done.State, done.Error)
		}
		if done.Workflow != tc.workflow || done.Mapped == 0 || done.TotalReads != 1500 {
			t.Fatalf("%s: result = %+v", tc.workflow, done)
		}
		if tc.wantVariants && done.Variants == 0 {
			t.Fatalf("%s: no variants", tc.workflow)
		}
		// Recovery scoring applies to every variant-calling workflow,
		// not just the default pipeline.
		if tc.wantVariants && (done.Planted != 8 || done.Recovered < done.Planted-1) {
			t.Fatalf("%s: recovered %d/%d", tc.workflow, done.Recovered, done.Planted)
		}
		if tc.wantFeatures && done.Features == 0 {
			t.Fatalf("%s: no features", tc.workflow)
		}
	}
}

func TestSubmitWorkflowValidation(t *testing.T) {
	c, _ := testServer(t)
	ctx := context.Background()
	base := SubmitRequest{ReferenceLength: 2000, Reads: 100, Seed: 1}
	for name, wantErr := range map[string]string{
		"no-such-analysis":  "not found",
		"proteome-maxquant": "consumes MGF",
		"variants-to-vcf":   "consumes VCF",
	} {
		req := base
		req.Workflow = name
		_, err := c.Submit(ctx, req)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("workflow %q: err = %v, want %q", name, err, wantErr)
		}
	}
}

func TestSubmitAfterCloseRejected(t *testing.T) {
	p := core.NewPlatform(core.Options{Workers: 1})
	s := NewServerOptions(p, ServerOptions{Executors: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	// A submit racing shutdown must get an error, not crash the daemon
	// on the closed queue.
	_, err := NewClient(ts.URL).Submit(context.Background(),
		SubmitRequest{ReferenceLength: 2000, Reads: 100, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("err = %v, want shutdown rejection", err)
	}
	s.Close() // idempotent
}

func TestCloseFailsQueuedJobs(t *testing.T) {
	p := core.NewPlatform(core.Options{Workers: 1})
	s := NewServerOptions(p, ServerOptions{Executors: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	// Queue several jobs, then shut down immediately: every job must end
	// in a terminal state — done if it ran, failed if shutdown beat it —
	// never stranded pending.
	for i := 0; i < 5; i++ {
		if _, err := c.Submit(ctx, SubmitRequest{
			ReferenceLength: 4000, Reads: 800, Seed: int64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 5 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for _, j := range jobs {
		if j.State != StateDone && j.State != StateFailed {
			t.Fatalf("job %d stranded in state %q after Close", j.ID, j.State)
		}
	}
}

func TestKBQueryEndpoint(t *testing.T) {
	c, _ := testServer(t)
	ctx := context.Background()
	res, err := c.Query(ctx, `
PREFIX scan: <`+knowledge.NS+`>
SELECT ?app ?t WHERE { ?app scan:eTime ?t . } ORDER BY ?t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 4 GATK + 4 family seeded profiles", len(res.Rows))
	}
	if res.Rows[0]["t"] != "80" { // GATK4 stays the fastest profile
		t.Fatalf("first row = %v", res.Rows[0])
	}
	// Malformed SPARQL is a client error, not a crash.
	if _, err := c.Query(ctx, "SELECT garbage"); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestProfilesEndpoint(t *testing.T) {
	c, _ := testServer(t)
	ps, err := c.Profiles(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Name-sorted: the family seeds surround the paper's GATK profiles.
	if len(ps) != 8 || ps[0].Name != "CellProfiler1" || ps[2].Name != "GATK1" {
		t.Fatalf("profiles = %+v", ps)
	}
}

func TestStatusEndpoint(t *testing.T) {
	c, _ := testServer(t)
	ctx := context.Background()
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers < 1 {
		t.Fatalf("status = %+v", st)
	}
	info, err := c.Submit(ctx, SubmitRequest{ReferenceLength: 2000, Reads: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if _, err := c.Wait(wctx, info.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st, err = c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 {
		t.Fatalf("completed = %d", st.Completed)
	}
	if st.RunLogs == 0 {
		t.Fatal("daemon did not log runs to the KB")
	}
}

func TestExportEndpoint(t *testing.T) {
	c, _ := testServer(t)
	ctx := context.Background()
	turtle, err := c.Export(ctx, "turtle")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(turtle, "@prefix scan:") || !strings.Contains(turtle, "scan:GATK1") {
		t.Fatalf("turtle export:\n%.300s", turtle)
	}
	rdfxml, err := c.Export(ctx, "rdfxml")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rdfxml, `<owl:NamedIndividual rdf:about="&scan-ontology;GATK1">`) {
		t.Fatalf("rdfxml export:\n%.300s", rdfxml)
	}
	if _, err := c.Export(ctx, "bogus"); err == nil {
		t.Fatal("bogus format accepted")
	}
}

func TestMethodValidation(t *testing.T) {
	p := core.NewPlatform(core.Options{Workers: 1})
	s := NewServerOptions(p, ServerOptions{Executors: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct{ method, path string }{
		{"DELETE", "/api/v1/jobs"},
		{"POST", "/api/v1/status"},
		{"GET", "/api/v1/kb/query"},
		{"POST", "/api/v1/kb/profiles"},
	} {
		req := httptest.NewRequest(tc.method, tc.path, nil)
		rw := httptest.NewRecorder()
		s.Handler().ServeHTTP(rw, req)
		if rw.Code != 405 {
			t.Errorf("%s %s: code %d, want 405", tc.method, tc.path, rw.Code)
		}
	}
}

func intPtr(v int) *int           { return &v }
func floatPtr(v float64) *float64 { return &v }

// TestSubmitRequestDefaults pins the tri-state semantics of the optional
// read-simulation fields (v1 submissions run as this same SyntheticSpec):
// defaults apply only when a field is absent or negative; explicit values —
// including error_rate 0 — are honored.
func TestSubmitRequestDefaults(t *testing.T) {
	for _, tc := range []struct {
		name     string
		req      SyntheticSpec
		wantLen  int
		wantRate float64
	}{
		{"absent", SyntheticSpec{}, DefaultReadLength, DefaultErrorRate},
		{"explicit", SyntheticSpec{ReadLength: intPtr(150), ErrorRate: floatPtr(0.01)}, 150, 0.01},
		{"explicit zero rate", SyntheticSpec{ErrorRate: floatPtr(0)}, DefaultReadLength, 0},
		{"negative", SyntheticSpec{ReadLength: intPtr(-1), ErrorRate: floatPtr(-0.5)}, DefaultReadLength, DefaultErrorRate},
	} {
		if got := tc.req.EffectiveReadLength(); got != tc.wantLen {
			t.Errorf("%s: EffectiveReadLength = %d, want %d", tc.name, got, tc.wantLen)
		}
		if got := tc.req.EffectiveErrorRate(); got != tc.wantRate {
			t.Errorf("%s: EffectiveErrorRate = %g, want %g", tc.name, got, tc.wantRate)
		}
	}
}

func TestSubmitExplicitReadParams(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Error-free reads at an explicit length: with no sequencing noise the
	// planted mutations must all be recovered.
	info, err := c.Submit(ctx, SubmitRequest{
		ReferenceLength: 4000, Reads: 1200, SNVs: 6, Seed: 11,
		ReadLength: intPtr(120), ErrorRate: floatPtr(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.Wait(ctx, info.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("state = %q (%s)", done.State, done.Error)
	}
	if done.Recovered != done.Planted {
		t.Fatalf("error-free run recovered %d/%d planted SNVs", done.Recovered, done.Planted)
	}
	// An explicit zero read length is rejected up front, not defaulted.
	if _, err := c.Submit(ctx, SubmitRequest{
		ReferenceLength: 4000, Reads: 100, Seed: 1, ReadLength: intPtr(0),
	}); err == nil || !strings.Contains(err.Error(), "read_length 0") {
		t.Fatalf("read_length 0: err = %v, want rejection", err)
	}
}

type failingEncoder struct{ after int }

func (f *failingEncoder) encode(w io.Writer) error {
	if _, err := io.WriteString(w, strings.Repeat("@prefix x: <urn:x> .\n", f.after)); err != nil {
		return err
	}
	return errors.New("disk full")
}

// TestWriteDocumentErrorIsClean: an export that fails mid-encode must
// produce a single JSON error response — never a 200, partial Turtle, and
// a trailing error blob.
func TestWriteDocumentErrorIsClean(t *testing.T) {
	rw := httptest.NewRecorder()
	writeDocument(rw, "text/turtle", (&failingEncoder{after: 100}).encode)
	if rw.Code != 500 {
		t.Fatalf("code = %d, want 500", rw.Code)
	}
	if ct := rw.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var e errorResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &e); err != nil {
		t.Fatalf("body is not a clean JSON error: %v\n%s", err, rw.Body.String())
	}
	if !strings.Contains(e.Error, "disk full") {
		t.Fatalf("error = %q", e.Error)
	}
	if strings.Contains(rw.Body.String(), "@prefix") {
		t.Fatal("partial document leaked into the error response")
	}
}

// TestStatusCountsBufferedTelemetry: run_logs counts buffered observations
// immediately; a flush (here via the export read barrier) folds them and
// zeroes run_logs_pending without changing the total.
func TestStatusCountsBufferedTelemetry(t *testing.T) {
	c, s := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := c.Submit(ctx, SubmitRequest{ReferenceLength: 2000, Reads: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, info.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.RunLogs == 0 {
		t.Fatal("job telemetry not counted")
	}
	s.platform.Flush()
	st2, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st2.RunLogsPending != 0 {
		t.Fatalf("run_logs_pending = %d after Flush", st2.RunLogsPending)
	}
	if st2.RunLogs != st.RunLogs {
		t.Fatalf("flush changed the total: %d -> %d", st.RunLogs, st2.RunLogs)
	}
}
