package rpc

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"scan/internal/route"
)

// The /api/v2 handlers: resource-oriented jobs with machine-readable error
// codes, cancellation, filtered + paginated listing, and SSE event streams.

// maxSubmitBody bounds the raw v2 submission body *before* JSON decoding —
// without it the inline-bases check runs only after an arbitrarily large
// body has been materialized. Sized for a maxInlineBases payload with
// per-read quality strings and JSON structure overhead.
const maxSubmitBody = 3*maxInlineBases + 1<<20

func (s *Server) handleV2Submit(w http.ResponseWriter, r *http.Request) {
	var req SubmitJobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(&req); err != nil {
		route.V2.Error(w, http.StatusBadRequest, CodeInvalidArgument, "bad request body: %v", err)
		return
	}
	spec, apiErr := s.normalizeSubmission(req)
	if apiErr != nil {
		status := http.StatusBadRequest
		if apiErr.Code == CodeNotFound {
			// The named dataset/reference is gone (never uploaded, deleted,
			// or evicted) — a machine-readable 404, not a malformed request.
			status = http.StatusNotFound
		}
		route.V2.Error(w, status, apiErr.Code, "%s", apiErr.Message)
		return
	}
	if !s.admitJobQuota(w, r, &spec) {
		return
	}
	job, apiErr := s.enqueue(spec)
	if apiErr != nil {
		route.V2.Error(w, http.StatusServiceUnavailable, apiErr.Code, "%s", apiErr.Message)
		return
	}
	route.JSON(w, http.StatusAccepted, job)
}

// normalizeSubmission admits a submission's input: its one source is
// validated (registry datasets it names are resolved and pinned) and its
// workflow resolved from the catalogue. Every error path releases the
// source — the job will never run; the success path keeps the pins until
// the job reaches a terminal state.
func (s *Server) normalizeSubmission(req SubmitJobRequest) (jobSpec, *APIError) {
	src, apiErr := req.source()
	if apiErr != nil {
		return jobSpec{}, apiErr
	}
	reg := s.platform.Datasets()
	if apiErr := src.validate(reg, req.Reference); apiErr != nil {
		src.release(reg)
		return jobSpec{}, apiErr
	}
	if req.Workflow == "" {
		req.Workflow = defaultWorkflows[src.inputType()]
	}
	// The workflow must be catalogued, consume the source's data type, and
	// have an executor for every stage.
	wf, err := s.platform.Catalogue().Get(req.Workflow)
	if err == nil && wf.Consumes() != src.inputType() {
		err = fmt.Errorf("consumes %s; this submission supplies %s", wf.Consumes(), src.inputType())
	}
	if err == nil {
		err = s.platform.Engine().CanRun(wf)
	}
	if err != nil {
		src.release(reg)
		return jobSpec{}, invalidf("workflow %q: %v", req.Workflow, err)
	}
	return jobSpec{wf: wf, shardRecords: req.ShardRecords, source: src}, nil
}

// List pagination bounds.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// encodePageToken renders an opaque continuation token: the listing resumes
// after the given job ID. Position-based tokens stay valid across eviction.
func encodePageToken(afterID int) string {
	return base64.RawURLEncoding.EncodeToString([]byte("jobs/" + strconv.Itoa(afterID)))
}

func decodePageToken(tok string) (int, error) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return 0, fmt.Errorf("bad page_token")
	}
	idStr, ok := strings.CutPrefix(string(raw), "jobs/")
	if !ok {
		return 0, fmt.Errorf("bad page_token")
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return 0, fmt.Errorf("bad page_token")
	}
	return id, nil
}

var knownStates = map[JobState]bool{
	StatePending: true, StateRunning: true,
	StateDone: true, StateFailed: true, StateCanceled: true,
}

func (s *Server) handleV2List(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := defaultPageLimit
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			route.V2.Error(w, http.StatusBadRequest, CodeInvalidArgument, "limit must be a positive integer")
			return
		}
		limit = min(n, maxPageLimit)
	}
	state := JobState(q.Get("state"))
	if state != "" && !knownStates[state] {
		route.V2.Error(w, http.StatusBadRequest, CodeInvalidArgument, "unknown state %q", state)
		return
	}
	workflowFilter := q.Get("workflow")
	after := -1
	if tok := q.Get("page_token"); tok != "" {
		id, err := decodePageToken(tok)
		if err != nil {
			route.V2.Error(w, http.StatusBadRequest, CodeInvalidArgument, "%v", err)
			return
		}
		after = id
	}

	page := JobPage{Jobs: []Job{}}
	s.mu.Lock()
	for _, id := range s.order {
		if id <= after {
			continue
		}
		job := s.jobs[id].job
		if state != "" && job.State != state {
			continue
		}
		if workflowFilter != "" && job.Workflow != workflowFilter {
			continue
		}
		if len(page.Jobs) == limit {
			// One more match exists beyond the page: hand out a token.
			page.NextPageToken = encodePageToken(page.Jobs[limit-1].ID)
			break
		}
		page.Jobs = append(page.Jobs, job.clone())
	}
	s.mu.Unlock()
	route.JSON(w, http.StatusOK, page)
}

// byJobID adapts a handler of one job to the {id} path wildcard, answering
// 400 itself when the wildcard is not a job ID.
func byJobID(h func(w http.ResponseWriter, r *http.Request, id int)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			route.V2.Error(w, http.StatusBadRequest, CodeInvalidArgument, "bad job id %q", r.PathValue("id"))
			return
		}
		h(w, r, id)
	}
}

// noSuchResource answers a path under a resource that names no sub-resource.
func noSuchResource(w http.ResponseWriter, r *http.Request) {
	route.V2.Error(w, http.StatusNotFound, CodeNotFound, "no such resource")
}

func noSuchJobResource(w http.ResponseWriter, r *http.Request, _ int) { noSuchResource(w, r) }

func (s *Server) handleV2Get(w http.ResponseWriter, r *http.Request, id int) {
	s.mu.Lock()
	rec, ok := s.jobs[id]
	var job Job
	if ok {
		job = rec.job.clone()
	}
	s.mu.Unlock()
	if !ok {
		route.V2.Error(w, http.StatusNotFound, CodeNotFound, "no job %d", id)
		return
	}
	route.JSON(w, http.StatusOK, job)
}

func (s *Server) handleV2Cancel(w http.ResponseWriter, r *http.Request, id int) {
	job, status, apiErr := s.cancelJob(id, requestTenant(r))
	switch {
	case status == http.StatusForbidden:
		s.forbid(w, requestTenant(r), "%s", apiErr.Message)
	case apiErr != nil:
		route.V2.Error(w, status, apiErr.Code, "%s", apiErr.Message)
	default:
		route.JSON(w, status, job)
	}
}

// handleV2Events streams the job's event log as Server-Sent Events: the
// full history replays first (so a watcher attached late still sees every
// transition), then live events follow until the job reaches a terminal
// state. Clients stop polling; scand pushes.
func (s *Server) handleV2Events(w http.ResponseWriter, r *http.Request, id int) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		route.V2.Error(w, http.StatusInternalServerError, CodeInternal, "response writer cannot stream")
		return
	}
	s.mu.Lock()
	rec, exists := s.jobs[id]
	s.mu.Unlock()
	if !exists {
		route.V2.Error(w, http.StatusNotFound, CodeNotFound, "no job %d", id)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Fan-out is pull-per-subscriber, so a stalled client never blocks job
	// transitions or other watchers — it only parks this goroutine. The
	// per-write deadline bounds that goroutine's lifetime: a client that
	// stops reading for watchWriteTimeout gets its stream torn down instead of
	// holding a connection (and its kernel buffers) forever. Recorders used
	// in tests have no deadline support; that is fine, not fatal.
	ctrl := http.NewResponseController(w)
	next := 0
	for {
		s.mu.Lock()
		pending := append([]JobEvent(nil), rec.events[next:]...)
		wake := rec.wake
		s.mu.Unlock()
		for _, ev := range pending {
			data, err := json.Marshal(ev)
			if err != nil {
				return // cannot happen for these types; drop the stream
			}
			if err := ctrl.SetWriteDeadline(time.Now().Add(watchWriteTimeout)); err != nil &&
				!errors.Is(err, http.ErrNotSupported) {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
				return
			}
			flusher.Flush()
			if ev.Type == EventState && ev.State.Terminal() {
				return
			}
		}
		next += len(pending)
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
