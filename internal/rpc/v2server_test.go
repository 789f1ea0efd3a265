package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scan/internal/core"
	"scan/internal/genomics"
	"scan/internal/workflow"
)

func testServerOptions(t *testing.T, p *core.Platform, opts ServerOptions) (*Client, *Server) {
	t.Helper()
	s := NewServerOptions(p, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return NewClient(ts.URL), s
}

func smallSynthetic(seed int64) *SyntheticSpec {
	return &SyntheticSpec{ReferenceLength: 2000, Reads: 120, SNVs: 4, Seed: seed}
}

func TestV2SubmitWatchAndResult(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := c.CreateJob(ctx, SubmitJobRequest{
		Synthetic: &SyntheticSpec{ReferenceLength: 4000, Reads: 800, SNVs: 6, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StatePending || job.Workflow != core.VariantDetectionWorkflow || job.Source != SourceSynthetic {
		t.Fatalf("initial job = %+v", job)
	}

	var events []JobEvent
	final, err := c.Watch(ctx, job.ID, func(ev JobEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("final state = %q (%+v)", final.State, final.Error)
	}
	r := final.Result
	if r == nil {
		t.Fatal("done job has no result")
	}
	if r.Mapped == 0 || r.TotalReads != 800 || r.Recovered < r.Planted-1 || r.ElapsedSec <= 0 {
		t.Fatalf("result = %+v", r)
	}
	// The structured result carries the full per-stage breakdown the
	// engine computed — all 8 catalogue stages, in order.
	if len(r.Stages) != 8 || r.Stages[0].Name != "Align" || r.Stages[0].Tool != "BWA" {
		t.Fatalf("stages = %+v", r.Stages)
	}
	// The align stage reports its record count on the wire.
	if r.Stages[0].Records != 800 {
		t.Fatalf("align breakdown = %+v, want 800 records", r.Stages[0])
	}
	if final.Started == nil || final.Finished == nil || final.Finished.Before(*final.Started) {
		t.Fatalf("timestamps = %v %v", final.Started, final.Finished)
	}

	// The event stream replays the full lifecycle: pending, running, one
	// event per stage, then the terminal state carrying the job resource.
	if len(events) != 2+8+1 {
		t.Fatalf("events = %d, want 11: %+v", len(events), events)
	}
	if events[0].State != StatePending || events[1].State != StateRunning {
		t.Fatalf("lifecycle head = %+v", events[:2])
	}
	for i, ev := range events[2:10] {
		if ev.Type != EventStage || ev.Stage == nil {
			t.Fatalf("event %d = %+v, want stage event", i+2, ev)
		}
		if ev.Stage.Name != r.Stages[i].Name {
			t.Fatalf("stage event %d = %q, want %q", i+2, ev.Stage.Name, r.Stages[i].Name)
		}
	}
	last := events[10]
	if last.Type != EventState || last.State != StateDone || last.Job == nil || last.Job.Result == nil {
		t.Fatalf("terminal event = %+v", last)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

func TestV2InlineSubmission(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Build a real dataset client-side — the daemon aligns what it is
	// given instead of synthesising its own.
	rng := rand.New(rand.NewSource(17))
	ref := genomics.GenerateReference(rng, "chr7", 3000)
	reads, err := genomics.SimulateReads(rng, ref, genomics.ReadSimConfig{
		Count: 400, Length: 80, ErrorRate: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	inline := &InlineDataset{Reference: InlineSequence{Name: "chr7", Sequence: string(ref.Seq)}}
	for i, r := range reads {
		ir := InlineRead{Sequence: string(r.Seq)}
		if i%2 == 0 {
			ir.ID = r.ID
			ir.Quality = string(r.Qual)
		}
		inline.Reads = append(inline.Reads, ir)
	}
	job, err := c.CreateJob(ctx, SubmitJobRequest{Inline: inline})
	if err != nil {
		t.Fatal(err)
	}
	if job.Source != SourceInline {
		t.Fatalf("source = %q", job.Source)
	}
	final, err := c.Watch(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %q (%+v)", final.State, final.Error)
	}
	if final.Result.TotalReads != 400 || final.Result.Mapped < 380 {
		t.Fatalf("result = %+v", final.Result)
	}
	// No planted truth accompanies inline data: recovery must report 0/0,
	// not score against a synthetic genome that never existed.
	if final.Result.Planted != 0 || final.Result.Recovered != 0 {
		t.Fatalf("inline job scored planted SNVs: %+v", final.Result)
	}
}

// blockingExec parks stage executions until their run context is cancelled,
// reporting each start — the controlled stand-in for a long analysis.
type blockingExec struct {
	started chan struct{}
}

func (b *blockingExec) Execute(ctx context.Context, env *workflow.StageEnv, in *workflow.Dataset) (*workflow.Dataset, error) {
	b.started <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

// blockingPlatform is a platform whose catalogue has a "block-forever"
// FASTQ workflow driven by blockingExec.
func blockingPlatform(t *testing.T) (*core.Platform, *blockingExec) {
	t.Helper()
	catalogue := workflow.DefaultCatalogue()
	if err := catalogue.Register(workflow.Workflow{
		Name:   "block-forever",
		Family: "genomic",
		Stages: []workflow.Stage{
			{Name: "block", Tool: "blocktool", Consumes: workflow.FASTQ, Produces: workflow.VCF},
		},
	}); err != nil {
		t.Fatal(err)
	}
	execs := workflow.DefaultExecutors()
	block := &blockingExec{started: make(chan struct{}, 8)}
	if err := execs.Register("blocktool", "", block); err != nil {
		t.Fatal(err)
	}
	return core.NewPlatform(core.Options{Workers: 2, Catalogue: catalogue, Executors: execs}), block
}

// TestV2CancelObservablyStopsRun is the ctx-propagation acceptance test:
// DELETE on a *running* job cancels the per-job context threaded through
// Server.runJob → Engine.Run, unblocking the in-flight stage and
// driving the job to the canceled state. A queued job canceled before it
// starts never runs at all.
func TestV2CancelObservablyStopsRun(t *testing.T) {
	p, block := blockingPlatform(t)
	c, _ := testServerOptions(t, p, ServerOptions{Executors: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	running, err := c.CreateJob(ctx, SubmitJobRequest{Workflow: "block-forever", Synthetic: smallSynthetic(1)})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.CreateJob(ctx, SubmitJobRequest{Workflow: "block-forever", Synthetic: smallSynthetic(2)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-block.started: // the first job's stage is now in flight
	case <-ctx.Done():
		t.Fatal("stage never started")
	}

	// Filters see the live states: one running, one pending.
	page, err := c.ListJobs(ctx, ListJobsOptions{State: StateRunning})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 1 || page.Jobs[0].ID != running.ID {
		t.Fatalf("running filter = %+v", page.Jobs)
	}

	// Cancel the queued job: immediate, terminal, and it must never run.
	got, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled || got.Error == nil || got.Error.Code != CodeCanceled {
		t.Fatalf("queued cancel = %+v", got)
	}

	// Cancel the running job: the request is accepted while cancellation
	// propagates, then the watcher sees the canceled terminal state.
	got, err = c.Cancel(ctx, running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateRunning {
		t.Fatalf("running cancel snapshot = %+v", got)
	}
	final, err := c.Watch(ctx, running.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled || final.Error.Code != CodeCanceled {
		t.Fatalf("final = %+v", final)
	}
	// Idempotent: canceling a canceled job succeeds without a new state.
	if got, err = c.Cancel(ctx, running.ID); err != nil || got.State != StateCanceled {
		t.Fatalf("re-cancel = %+v, %v", got, err)
	}
	// The queued job was skipped, not executed: exactly one stage start.
	select {
	case <-block.started:
		t.Fatal("canceled queued job still ran")
	default:
	}
	// v1 renders both as failed — its state enum predates cancellation.
	info, err := c.Job(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateFailed || !strings.Contains(info.Error, "canceled") {
		t.Fatalf("v1 view of canceled job = %+v", info)
	}
}

func TestV2CancelErrors(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Unknown job: machine-readable not_found.
	_, err := c.Cancel(ctx, 999)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeNotFound {
		t.Fatalf("cancel 999: err = %v, want APIError{not_found}", err)
	}
	// Finished job: conflict.
	job, err := c.CreateJob(ctx, SubmitJobRequest{Synthetic: smallSynthetic(5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = c.Watch(ctx, job.ID, nil); err != nil {
		t.Fatal(err)
	}
	_, err = c.Cancel(ctx, job.ID)
	if !errors.As(err, &ae) || ae.Code != CodeConflict {
		t.Fatalf("cancel done job: err = %v, want APIError{conflict}", err)
	}
}

// TestV2PaginationPastRetention drives the store past its retention bound:
// old terminal jobs are evicted (the v1 prototype's memory leak), listing
// pages stay consistent, and the lifetime counters in status survive.
func TestV2PaginationPastRetention(t *testing.T) {
	p := core.NewPlatform(core.Options{Workers: 2})
	c, s := testServerOptions(t, p, ServerOptions{Executors: 2, Retention: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const total = 8
	ids := make([]int, 0, total)
	for i := 0; i < total; i++ {
		job, err := c.CreateJob(ctx, SubmitJobRequest{Synthetic: smallSynthetic(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	for {
		st, err := c.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed+st.Failed == total {
			if st.Completed != total {
				t.Fatalf("status = %+v, want %d completed", st, total)
			}
			break
		}
		select {
		case <-ctx.Done():
			t.Fatalf("jobs never finished: %+v", st)
		case <-time.After(20 * time.Millisecond):
		}
	}

	// The store is bounded: only the newest `retention` terminal jobs
	// remain, however many were submitted.
	s.mu.Lock()
	stored, ordered, terminal := len(s.jobs), len(s.order), s.terminal
	s.mu.Unlock()
	if stored != 3 || ordered != 3 || terminal != 3 {
		t.Fatalf("job store holds %d records, %d in order, %d counted terminal; want retention bound 3", stored, ordered, terminal)
	}

	// Page through everything that remains, 2 at a time.
	var listed []int
	tok := ""
	pages := 0
	for {
		page, err := c.ListJobs(ctx, ListJobsOptions{Limit: 2, PageToken: tok})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range page.Jobs {
			listed = append(listed, j.ID)
			if j.State != StateDone {
				t.Fatalf("listed job %d in state %q", j.ID, j.State)
			}
		}
		pages++
		if page.NextPageToken == "" {
			break
		}
		tok = page.NextPageToken
	}
	if len(listed) != 3 || pages < 2 {
		t.Fatalf("paged listing = %v over %d pages", listed, pages)
	}
	// Ascending submission order, and precisely the newest survivors.
	for i, id := range listed {
		if id != ids[total-3+i] {
			t.Fatalf("listed = %v, want %v", listed, ids[total-3:])
		}
	}
	// Evicted jobs are gone from both API views.
	_, err := c.GetJob(ctx, ids[0])
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeNotFound {
		t.Fatalf("evicted job fetch: err = %v, want not_found", err)
	}
}

func TestV2SubmitValidation(t *testing.T) {
	c, _ := testServer(t)
	ctx := context.Background()
	inlineOK := func() *InlineDataset {
		return &InlineDataset{
			Reference: InlineSequence{Sequence: strings.Repeat("ACGT", 100)},
			Reads:     []InlineRead{{Sequence: "ACGTACGTACGTACGTACGT"}},
		}
	}
	for name, tc := range map[string]struct {
		req  SubmitJobRequest
		want string
	}{
		"neither dataset": {SubmitJobRequest{}, "exactly one of synthetic, inline, proteome, imaging, network or dataset"},
		"both datasets": {SubmitJobRequest{Synthetic: smallSynthetic(1), Inline: inlineOK()},
			"exactly one of synthetic, inline, proteome, imaging, network or dataset"},
		"unknown workflow": {SubmitJobRequest{Workflow: "no-such", Synthetic: smallSynthetic(1)},
			"not found"},
		"non-FASTQ workflow": {SubmitJobRequest{Workflow: "variants-to-vcf", Synthetic: smallSynthetic(1)},
			"consumes VCF"},
		"tiny reference": {SubmitJobRequest{Synthetic: &SyntheticSpec{ReferenceLength: 10, Reads: 5}},
			"reference_length"},
		"zero read length": {SubmitJobRequest{Synthetic: &SyntheticSpec{
			ReferenceLength: 2000, Reads: 5, ReadLength: intPtr(0)}}, "read_length 0"},
		"short inline reference": {SubmitJobRequest{Inline: &InlineDataset{
			Reference: InlineSequence{Sequence: "ACGT"},
			Reads:     []InlineRead{{Sequence: "ACGT"}},
		}}, "at least 16 bases"},
		"no inline reads": {SubmitJobRequest{Inline: &InlineDataset{
			Reference: InlineSequence{Sequence: strings.Repeat("ACGT", 100)},
		}}, "at least one read"},
		"bad inline bases": {SubmitJobRequest{Inline: &InlineDataset{
			Reference: InlineSequence{Sequence: strings.Repeat("ACGT", 100)},
			Reads:     []InlineRead{{Sequence: "ACGTXZ"}},
		}}, "read 0"},
		"quality length mismatch": {SubmitJobRequest{Inline: &InlineDataset{
			Reference: InlineSequence{Sequence: strings.Repeat("ACGT", 100)},
			Reads:     []InlineRead{{Sequence: "ACGTACGT", Quality: "II"}},
		}}, "quality length"},
	} {
		_, err := c.CreateJob(ctx, tc.req)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != CodeInvalidArgument || !strings.Contains(ae.Message, tc.want) {
			t.Errorf("%s: err = %v, want invalid_argument containing %q", name, err, tc.want)
		}
	}
}

func TestV2ListValidation(t *testing.T) {
	c, _ := testServer(t)
	ctx := context.Background()
	for name, opts := range map[string]ListJobsOptions{
		"bad state":  {State: "sleeping"},
		"bad token":  {PageToken: "!!!not-a-token!!!"},
		"bad token2": {PageToken: "YWJj"}, // valid base64, wrong payload
	} {
		_, err := c.ListJobs(ctx, opts)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != CodeInvalidArgument {
			t.Errorf("%s: err = %v, want invalid_argument", name, err)
		}
	}
	if _, err := c.ListJobs(ctx, ListJobsOptions{Limit: 7}); err != nil {
		t.Errorf("positive limit rejected: %v", err)
	}
}

// TestV2NoNullSlices: empty collections must serialize as [], not null —
// clients iterate them without nil checks.
func TestV2NoNullSlices(t *testing.T) {
	c, _ := testServer(t)
	base := strings.TrimSuffix(c.base, "/")
	resp, err := http.Get(base + "/api/v2/jobs")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `"jobs":[]`) {
		t.Fatalf("empty list body = %s", raw)
	}
}

// TestMiddlewareRecoversPanics: a handler panic becomes a clean JSON 500 in
// the addressed API version's envelope, and the daemon keeps serving.
func TestMiddlewareRecoversPanics(t *testing.T) {
	p := core.NewPlatform(core.Options{Workers: 1})
	s := NewServerOptions(p, ServerOptions{Executors: 1})
	defer s.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v2/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	mux.HandleFunc("/api/v1/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	h := s.middleware(mux)

	for path, wantBody := range map[string]string{
		"/api/v2/boom": `"code":"internal"`,
		"/api/v1/boom": `"error":"internal server error"`,
	} {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
		if rw.Code != http.StatusInternalServerError {
			t.Fatalf("%s: code = %d", path, rw.Code)
		}
		if !strings.Contains(rw.Body.String(), wantBody) {
			t.Fatalf("%s: body = %s", path, rw.Body.String())
		}
	}
}

// TestInlinePayloadBounded: the inline surface rejects payloads past the
// documented cap instead of holding them in the job store.
func TestInlinePayloadBounded(t *testing.T) {
	c, _ := testServer(t)
	// One read sequence just past the cap (the reference counts too).
	huge := strings.Repeat("A", maxInlineBases)
	_, err := c.CreateJob(context.Background(), SubmitJobRequest{Inline: &InlineDataset{
		Reference: InlineSequence{Sequence: strings.Repeat("ACGT", 8)},
		Reads:     []InlineRead{{Sequence: huge}},
	}})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeInvalidArgument || !strings.Contains(ae.Message, "exceeds") {
		t.Fatalf("oversized inline submit: err = %v", err)
	}
}

func ExampleClient_Watch() {
	// Stream a job's lifecycle instead of polling:
	//
	//	final, err := client.Watch(ctx, job.ID, func(ev rpc.JobEvent) {
	//		if ev.Type == rpc.EventStage {
	//			fmt.Printf("stage %s done in %.2fs\n", ev.Stage.Name, ev.Stage.ElapsedSec)
	//		}
	//	})
	fmt.Println("see examples/apiv2 for the runnable walkthrough")
	// Output: see examples/apiv2 for the runnable walkthrough
}

// TestSubmitBodyBoundedBeforeDecode: the raw request body is capped before
// JSON decoding — an attacker cannot balloon daemon memory with a payload
// the inline-bases check would only see after full materialization.
func TestSubmitBodyBoundedBeforeDecode(t *testing.T) {
	c, _ := testServer(t)
	huge := `{"inline":{"reference":{"sequence":"` + strings.Repeat("A", maxSubmitBody) + `"}}}`
	code, raw := rawRequest(t, c, http.MethodPost, "/api/v2/jobs", huge)
	if code != http.StatusBadRequest {
		t.Fatalf("code = %d, body = %.200s", code, raw)
	}
	if !strings.Contains(string(raw), "invalid_argument") {
		t.Fatalf("body = %.200s", raw)
	}
}

// TestCanceledPendingJobReleasesPayload: a job canceled before it starts
// drops its inline dataset immediately — terminal records must not pin
// megabytes of reads until retention eviction.
func TestCanceledPendingJobReleasesPayload(t *testing.T) {
	p, _ := blockingPlatform(t)
	c, s := testServerOptions(t, p, ServerOptions{Executors: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Hold the single executor, then queue an inline job and cancel it.
	if _, err := c.CreateJob(ctx, SubmitJobRequest{Workflow: "block-forever", Synthetic: smallSynthetic(1)}); err != nil {
		t.Fatal(err)
	}
	queued, err := c.CreateJob(ctx, SubmitJobRequest{
		Workflow: "block-forever",
		Inline: &InlineDataset{
			Reference: InlineSequence{Sequence: strings.Repeat("ACGT", 100)},
			Reads:     []InlineRead{{Sequence: "ACGTACGTACGTACGTACGT"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	inline := s.jobs[queued.ID].spec.source.(*inlineInput).reads
	s.mu.Unlock()
	if inline != nil {
		t.Fatal("canceled pending job still pins its inline payload")
	}
}
