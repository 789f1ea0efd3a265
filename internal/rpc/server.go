package rpc

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"scan/internal/core"
	"scan/internal/fleet"
	"scan/internal/registry"
	"scan/internal/route"
	"scan/internal/tenant"
	"scan/internal/variant"
	"scan/internal/workflow"
)

// DefaultRetention is the default bound on retained terminal jobs.
const DefaultRetention = 512

// ServerOptions configures a Server.
type ServerOptions struct {
	// Executors is the number of concurrent job runners (default 2).
	Executors int
	// Retention bounds how many terminal (done/failed/canceled) jobs the
	// store keeps (default DefaultRetention). When exceeded, the oldest
	// terminal jobs are evicted; pending and running jobs are never
	// evicted. This is what keeps the job store bounded under sustained
	// traffic — the v1 prototype grew without limit.
	Retention int
	// Logf receives one line per request (and per recovered panic) from
	// the HTTP middleware; nil disables logging.
	Logf func(format string, args ...any)
	// Fleet is the distributed shard pool this server coordinates. Nil
	// builds a default coordinator: the fleet endpoints are always mounted,
	// and jobs scatter to remote workers whenever any are registered (with
	// the engine's local pool as the zero-worker default and the per-stage
	// fallback).
	Fleet *fleet.Coordinator
	// Tenants, when non-nil, turns on multi-tenant admission for the v2
	// jobs/datasets/uploads surface: API-key authentication, token-bucket
	// rate limiting and per-tenant quotas (see internal/tenant and
	// docs/SERVING.md). Nil keeps v2 unauthenticated — the default every
	// pre-tenancy client relies on. /api/v1 is never authenticated.
	Tenants *tenant.Registry
	// WatchWriteTimeout bounds each SSE write to a Watch subscriber: a
	// client that stalls past it has its stream severed (job execution and
	// other subscribers are never blocked either way — the fan-out is
	// pull-per-subscriber). 0 means DefaultWatchWriteTimeout; negative
	// disables the deadline.
	WatchWriteTimeout time.Duration
}

// DefaultWatchWriteTimeout is the default per-write deadline on SSE event
// streams.
const DefaultWatchWriteTimeout = 30 * time.Second

// Server exposes a core.Platform over HTTP — /api/v1 (the original flat RPC
// surface, kept wire-compatible) and /api/v2 (resource-oriented jobs with
// cancellation, pagination and event streaming) — and runs submitted jobs on
// a bounded worker pool (the SCAN Workers of the prototype).
type Server struct {
	platform  *core.Platform
	now       func() time.Time
	retention int
	logf      func(format string, args ...any)
	fleet     *fleet.Coordinator
	uploads   *registry.UploadManager
	tenants   *tenant.Registry // nil: v2 admission disabled
	watchWTO  time.Duration    // per-write SSE deadline (0: disabled)
	metrics   *serverMetrics

	mu     sync.Mutex
	nextID int
	jobs   map[int]*jobRecord
	order  []int // submission order (ascending IDs), compacted on eviction
	closed bool
	// Cumulative lifecycle counters for /api/v1/status: eviction removes
	// records but must not rewrite history. Canceled jobs count as failed
	// there — v1's state enum predates cancellation.
	statDone, statFailed, statCanceled int
	// uploadOwners maps open resumable-upload session IDs to the tenant
	// that opened them (tenancy only; bounded by the manager's session cap
	// — recordUploadOwner prunes entries for dead sessions).
	uploadOwners map[string]*tenant.State

	queue chan int
	wg    sync.WaitGroup
	stop  context.CancelFunc
}

// jobRecord is one job in the store: the v2 resource (the authoritative
// view; v1's JobInfo is derived from it), the normalized submission, the
// per-job cancel handle, and the event log watchers replay and follow.
type jobRecord struct {
	job             Job
	spec            jobSpec
	cancel          context.CancelFunc // non-nil while running
	cancelRequested bool
	events          []JobEvent
	wake            chan struct{} // closed and replaced on every event
}

// jobSpec is an admitted submission: its validated input source (see
// source.go) and the workflow it runs, resolved from the catalogue once.
type jobSpec struct {
	wf           workflow.Workflow
	shardRecords int
	source       source
	// tenant holds the submitting tenant's admitted job slot (nil without
	// tenancy), released with the source.
	tenant *tenant.State
}

// NewServerOptions starts a server around the platform. Call Close to stop
// it.
func NewServerOptions(p *core.Platform, opts ServerOptions) *Server {
	if opts.Executors <= 0 {
		opts.Executors = 2
	}
	if opts.Retention <= 0 {
		opts.Retention = DefaultRetention
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Fleet == nil {
		opts.Fleet = fleet.NewCoordinator(fleet.Options{
			Logf: opts.Logf,
			// Share the durable blob store (nil for heap-only platforms) so
			// workers fetch spilled dataset parts over the same data plane.
			Blobs: p.Datasets().Blobs(),
		})
	}
	switch {
	case opts.WatchWriteTimeout == 0:
		opts.WatchWriteTimeout = DefaultWatchWriteTimeout
	case opts.WatchWriteTimeout < 0:
		opts.WatchWriteTimeout = 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		platform:     p,
		now:          time.Now,
		retention:    opts.Retention,
		logf:         opts.Logf,
		fleet:        opts.Fleet,
		tenants:      opts.Tenants,
		watchWTO:     opts.WatchWriteTimeout,
		jobs:         make(map[int]*jobRecord),
		uploadOwners: make(map[string]*tenant.State),
		queue:        make(chan int, 1024),
		stop:         cancel,
	}
	uploads, err := registry.NewUploadManager(registry.UploadConfig{
		Store:     p.Datasets(),
		LimitsFor: uploadPartLimits,
		Logf:      opts.Logf,
	})
	if err != nil {
		// The spool directory is unusable; uploads (v2 sessions and the
		// one-shot POST alike) will report it per request.
		opts.Logf("rpc: upload spool unavailable: %v", err)
	}
	s.uploads = uploads
	// The metric set closes over the fully-assembled server (fleet,
	// uploads, tenants), so it is built last.
	s.metrics = newServerMetrics(s)
	for i := 0; i < opts.Executors; i++ {
		s.wg.Add(1)
		go s.executor(ctx)
	}
	return s
}

// Close stops the executors after their current job (whose contexts are
// cancelled, so in-flight runs stop promptly). Submissions racing with Close
// are rejected rather than panicking on the closed queue.
func (s *Server) Close() {
	s.stop()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
	// Executors have stopped; fail anything still queued so clients
	// polling or watching see a terminal state instead of pending forever.
	s.mu.Lock()
	for _, rec := range s.jobs {
		if !rec.job.State.Terminal() {
			s.releaseSpecLocked(&rec.spec) // the payload can never be used
			now := s.now()
			rec.job.State = StateFailed
			rec.job.Finished = &now
			rec.job.Error = &JobError{Code: CodeShutdown, Message: "server shut down before the job ran"}
			s.statFailed++
			s.publishStateLocked(rec)
		}
	}
	s.mu.Unlock()
	// Abort open upload sessions (their spools are process-local state).
	if s.uploads != nil {
		s.uploads.Close()
	}
	// Fold any run-log telemetry still buffered in the knowledge base, so
	// exports taken after shutdown carry every completed job's telemetry.
	s.platform.Flush()
}

// Handler returns the HTTP routing for every surface, wrapped in the
// logging/recovery middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for surface, rows := range s.routes() {
		route.Register(mux, surface, rows)
	}
	return s.middleware(mux)
}

// routes is the daemon's route tables, keyed by the envelope each surface
// speaks: the open ops endpoints; /api/v1, frozen and never authenticated;
// /api/v2 behind tenant admission, plus the fleet's own table. Each API
// surface ends in a catch-all that answers its unrouted paths with a 404 in
// that surface's envelope.
func (s *Server) routes() map[route.Surface][]route.Route {
	const get, post, put, del = http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete
	return map[route.Surface][]route.Route{
		route.Text: {
			{Pattern: "/healthz", Handler: func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write([]byte("ok")) }},
			{Method: get, Pattern: "/metrics", Handler: s.handleMetrics},
		},
		route.V1: {
			{Method: get, Pattern: "/api/v1/status", Handler: s.handleStatus},
			{Method: get, Pattern: "/api/v1/workflows", Handler: s.handleWorkflows},
			{Method: get, Pattern: "/api/v1/jobs", Handler: s.handleJobs},
			{Method: post, Pattern: "/api/v1/jobs", Handler: s.handleSubmit},
			{Method: get, Pattern: "/api/v1/jobs/{id}", Handler: s.handleJob},
			{Method: post, Pattern: "/api/v1/kb/query", Handler: s.handleQuery},
			{Method: get, Pattern: "/api/v1/kb/profiles", Handler: s.handleProfiles},
			{Method: get, Pattern: "/api/v1/kb/export", Handler: s.handleExport},
			{Pattern: "/api/v1/", Handler: func(w http.ResponseWriter, r *http.Request) {
				route.V1.Error(w, http.StatusNotFound, CodeNotFound, "no such resource")
			}},
		},
		route.V2: append([]route.Route{
			{Method: get, Pattern: "/api/v2/jobs", Admit: s.admit, Handler: s.handleV2List},
			{Method: post, Pattern: "/api/v2/jobs", Admit: s.admit, Handler: s.handleV2Submit},
			{Method: get, Pattern: "/api/v2/jobs/{id}", Admit: s.admit, Handler: byJobID(s.handleV2Get)},
			{Method: del, Pattern: "/api/v2/jobs/{id}", Admit: s.admit, Handler: byJobID(s.handleV2Cancel)},
			{Method: get, Pattern: "/api/v2/jobs/{id}/events", Admit: s.admit, Handler: byJobID(s.handleV2Events)},
			{Pattern: "/api/v2/jobs/{id}/{rest...}", Admit: s.admit, Handler: byJobID(noSuchJobResource)},
			{Method: get, Pattern: "/api/v2/datasets", Admit: s.admit, Handler: s.handleV2Datasets},
			{Method: post, Pattern: "/api/v2/datasets", Admit: s.admitUploads, Handler: s.handleV2DatasetUpload},
			{Method: get, Pattern: "/api/v2/datasets/{id}", Admit: s.admit, Handler: s.handleV2Dataset},
			{Method: del, Pattern: "/api/v2/datasets/{id}", Admit: s.admit, Handler: s.handleV2DatasetDelete},
			{Pattern: "/api/v2/datasets/{id}/{rest...}", Admit: s.admit, Handler: noSuchResource},
			{Method: get, Pattern: "/api/v2/uploads", Admit: s.admitUploads, Handler: s.handleV2Uploads},
			{Method: post, Pattern: "/api/v2/uploads", Admit: s.admitUploads, Handler: s.handleV2UploadCreate},
			{Method: get, Pattern: "/api/v2/uploads/{id}", Admit: s.admitUploads, Handler: s.handleV2Upload},
			{Method: put, Pattern: "/api/v2/uploads/{id}", Admit: s.admitUploads, Handler: s.appendUpload},
			{Method: del, Pattern: "/api/v2/uploads/{id}", Admit: s.admitUploads, Handler: s.abortUpload},
			{Method: post, Pattern: "/api/v2/uploads/{id}/commit", Admit: s.admitUploads, Handler: s.commitUpload},
			{Pattern: "/api/v2/uploads/{id}/{rest...}", Admit: s.admitUploads, Handler: noSuchResource},
			{Pattern: "/api/v2/", Admit: s.admit, Handler: noSuchResource},
		}, s.fleet.Routes()...),
	}
}

// ---------------------------------------------------------------------------
// Job store
// ---------------------------------------------------------------------------

// Submission errors surfaced to both API versions (the v1 handlers send
// Message verbatim in the legacy envelope).
var (
	errShuttingDown = &APIError{Code: CodeUnavailable, Message: "server is shutting down"}
	errQueueFull    = &APIError{Code: CodeUnavailable, Message: "job queue full"}
)

// releaseSpecLocked returns what a job's spec holds — the source's payload
// and registry pins, the tenant's job slot — exactly once per job, when it
// reaches a state from which it can never (or will never again) run. Later
// calls are no-ops. Callers hold s.mu; the registry lock nests inside it.
func (s *Server) releaseSpecLocked(spec *jobSpec) {
	spec.source.release(s.platform.Datasets())
	if spec.tenant != nil {
		spec.tenant.ReleaseJob()
		spec.tenant = nil
	}
}

// enqueue adds an admitted submission to the store and queue. On failure
// the spec is released — the job will never run.
func (s *Server) enqueue(spec jobSpec) (Job, *APIError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.releaseSpecLocked(&spec)
		return Job{}, errShuttingDown
	}
	id := s.nextID
	// The send happens under the lock so it cannot race Close's
	// close(s.queue); it must therefore never block, so a full queue is
	// backpressure reported to the client instead of a queued send.
	select {
	case s.queue <- id:
	default:
		s.releaseSpecLocked(&spec)
		return Job{}, errQueueFull
	}
	s.nextID++
	kind, datasetID := spec.source.origin()
	tenantName := ""
	if spec.tenant != nil {
		tenantName = spec.tenant.Name()
	}
	rec := &jobRecord{
		job: Job{
			ID:        id,
			State:     StatePending,
			Family:    spec.wf.Family,
			Workflow:  spec.wf.Name,
			Source:    kind,
			Dataset:   datasetID,
			Tenant:    tenantName,
			Submitted: s.now(),
		},
		spec: spec,
		wake: make(chan struct{}),
	}
	s.jobs[id] = rec
	s.order = append(s.order, id)
	s.publishStateLocked(rec)
	return rec.job.clone(), nil
}

// publishLocked appends an event to the record's log and wakes watchers.
// Callers hold s.mu.
func (s *Server) publishLocked(rec *jobRecord, ev JobEvent) {
	ev.Seq = len(rec.events)
	ev.Time = s.now()
	rec.events = append(rec.events, ev)
	close(rec.wake)
	rec.wake = make(chan struct{})
}

// publishStateLocked emits a state-transition event for the record's current
// state; terminal events carry the full job resource.
func (s *Server) publishStateLocked(rec *jobRecord) {
	ev := JobEvent{Type: EventState, State: rec.job.State}
	if rec.job.State.Terminal() {
		j := rec.job.clone()
		ev.Job = &j
	}
	s.publishLocked(rec, ev)
}

// publishStage streams one completed workflow stage to the job's watchers.
// Called from inside the engine run (via RunOptions.StageObserver).
func (s *Server) publishStage(id int, sr workflow.StageResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok || rec.job.State != StateRunning {
		return
	}
	sb := stageBreakdown(sr)
	s.publishLocked(rec, JobEvent{Type: EventStage, Stage: &sb})
}

// stageBreakdown converts an engine stage result to its wire shape.
func stageBreakdown(sr workflow.StageResult) StageBreakdown {
	return StageBreakdown{
		Name:       sr.Stage,
		Tool:       sr.Tool,
		Shards:     sr.Shards,
		ElapsedSec: sr.Elapsed.Seconds(),
		Records:    sr.Records,
	}
}

// evictLocked enforces the retention bound: oldest terminal jobs beyond the
// limit are dropped from the store. Callers hold s.mu.
func (s *Server) evictLocked() {
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].job.State.Terminal() {
			terminal++
		}
	}
	if terminal <= s.retention {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if terminal > s.retention && s.jobs[id].job.State.Terminal() {
			delete(s.jobs, id)
			terminal--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// cancelJob implements DELETE /api/v2/jobs/{id}. Pending jobs are canceled
// immediately; running jobs get their per-job context cancelled and reach
// the canceled state asynchronously (status 202); cancellation of an
// already-canceled job is idempotent; done/failed jobs conflict. With
// tenancy enabled, a tenant may only cancel its own jobs; jobs submitted
// without a tenant (v1, or pre-tenancy) stay cancellable by anyone.
func (s *Server) cancelJob(id int, requester *tenant.State) (Job, int, *APIError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return Job{}, http.StatusNotFound,
			&APIError{Code: CodeNotFound, Message: fmt.Sprintf("no job %d", id)}
	}
	if requester != nil && rec.job.Tenant != "" && rec.job.Tenant != requester.Name() {
		return Job{}, http.StatusForbidden, &APIError{
			Code:    CodeForbidden,
			Message: fmt.Sprintf("job %d belongs to another tenant", id),
		}
	}
	switch rec.job.State {
	case StatePending:
		rec.cancelRequested = true
		s.releaseSpecLocked(&rec.spec) // the payload can never be used
		now := s.now()
		rec.job.State = StateCanceled
		rec.job.Finished = &now
		rec.job.Error = &JobError{Code: CodeCanceled, Message: "job canceled before it started"}
		s.statCanceled++
		s.publishStateLocked(rec)
		s.evictLocked()
		return rec.job.clone(), http.StatusOK, nil
	case StateRunning:
		if !rec.cancelRequested {
			rec.cancelRequested = true
			rec.cancel() // threads through runJob → Engine.Run
		}
		return rec.job.clone(), http.StatusAccepted, nil
	case StateCanceled:
		return rec.job.clone(), http.StatusOK, nil
	default: // done or failed
		return Job{}, http.StatusConflict, &APIError{
			Code:    CodeConflict,
			Message: fmt.Sprintf("job %d already %s", id, rec.job.State),
		}
	}
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

func (s *Server) executor(ctx context.Context) {
	defer s.wg.Done()
	for id := range s.queue {
		if ctx.Err() != nil {
			return
		}
		s.runJob(ctx, id)
	}
}

func (s *Server) runJob(ctx context.Context, id int) {
	s.mu.Lock()
	rec, ok := s.jobs[id]
	if !ok || rec.job.State != StatePending {
		// Canceled (or failed by Close) while queued: nothing to run.
		s.mu.Unlock()
		return
	}
	jctx, cancel := context.WithCancel(ctx)
	rec.cancel = cancel
	started := s.now()
	rec.job.State = StateRunning
	rec.job.Started = &started
	spec := rec.spec
	s.publishStateLocked(rec)
	s.mu.Unlock()

	result, err := s.execute(jctx, id, spec)
	cancel()

	s.mu.Lock()
	defer s.mu.Unlock()
	finished := s.now()
	rec.cancel = nil
	s.releaseSpecLocked(&rec.spec) // release the payload; the record outlives the run
	rec.job.Finished = &finished
	switch {
	case err == nil:
		result.ElapsedSec = finished.Sub(started).Seconds()
		rec.job.State = StateDone
		rec.job.Result = &result
		s.statDone++
	case rec.cancelRequested:
		rec.job.State = StateCanceled
		rec.job.Error = &JobError{Code: CodeCanceled, Message: "job canceled while running"}
		s.statCanceled++
	default:
		rec.job.State = StateFailed
		rec.job.Error = &JobError{Code: CodeExecutionFailed, Message: err.Error()}
		s.statFailed++
	}
	s.publishStateLocked(rec)
	s.evictLocked()
}

// execute materializes the job's dataset and runs the requested workflow
// through the platform's engine, streaming per-stage completions to
// watchers.
func (s *Server) execute(ctx context.Context, id int, spec jobSpec) (JobResult, error) {
	in, planted, err := spec.source.materialize()
	if err != nil {
		return JobResult{}, err
	}
	inputRecords := in.Records()
	opts := workflow.RunOptions{
		Caller:        variant.Config{MinDepth: 8, MinAltFraction: 0.6},
		ShardRecords:  spec.shardRecords,
		StageObserver: func(sr workflow.StageResult) { s.publishStage(id, sr) },
		ShardObserver: func(tool string, records int, elapsed time.Duration) {
			s.metrics.shardSeconds.With(spec.wf.Family).Observe(elapsed.Seconds())
		},
		// A fleet with no live workers answers ErrNoWorkers, and the engine
		// runs that stage on its local pool.
		ShardPool: s.fleet,
	}
	wres, err := s.platform.Engine().Run(ctx, spec.wf, in, opts)
	if err != nil {
		return JobResult{}, err
	}
	out := wres.Output
	calls := out.Variants
	result := JobResult{
		Mapped:       out.Mapped,
		TotalRecords: inputRecords,
		Variants:     len(calls),
		Features:     len(out.Features),
		Proteins:     len(out.Proteins),
		Stages:       make([]StageBreakdown, 0, len(wres.Stages)),
	}
	if in.Type == workflow.FASTQ {
		result.TotalReads = inputRecords
	}
	if out.Net != nil {
		result.Nodes = len(out.Net.Nodes)
		result.Edges = len(out.Net.Edges)
		result.Modules = len(out.Net.Modules)
	}
	for _, sr := range wres.Stages {
		result.Stages = append(result.Stages, stageBreakdown(sr))
	}
	if sr, ok := wres.RecordScatter(); ok {
		result.Shards = sr.Plan.NumShards
	} else {
		// Stages that scatter by something other than records — image
		// tiles, graph partitions — still report their widest fan-out.
		for _, sr := range wres.Stages {
			result.Shards = max(result.Shards, sr.Shards)
		}
	}
	// Planted-SNV recovery scoring applies to every variant-calling run. It
	// is gated on the catalogue's output type, not on the call set being
	// non-empty: a run that recovers nothing must report 0/N, not an empty
	// 0/0. Sources without planted truth score 0/0.
	if spec.wf.Produces() == workflow.VCF {
		planted.score(calls, &result)
	}
	return result, nil
}

// ---------------------------------------------------------------------------
// v1 view derivation
// ---------------------------------------------------------------------------

// v1View renders the v2 job resource in the flat v1 JobInfo shape. v1's
// state enum predates cancellation, so canceled jobs appear as failed —
// old clients never see a state value they do not know.
func v1View(j Job) JobInfo {
	info := JobInfo{
		ID:        j.ID,
		State:     j.State,
		Workflow:  j.Workflow,
		Submitted: j.Submitted,
	}
	if j.State == StateCanceled {
		info.State = StateFailed
	}
	if j.Error != nil {
		info.Error = j.Error.Message
	}
	if j.Started != nil && j.Finished != nil {
		info.ElapsedSec = j.Finished.Sub(*j.Started).Seconds()
	}
	if r := j.Result; r != nil {
		info.Mapped = r.Mapped
		info.TotalReads = r.TotalReads
		info.Variants = r.Variants
		info.Features = r.Features
		info.Recovered = r.Recovered
		info.Planted = r.Planted
		info.Shards = r.Shards
	}
	return info
}
