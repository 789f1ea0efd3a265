package rpc

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"scan/internal/route"
)

// The /api/v1 handlers: the original flat RPC surface, wire-compatible with
// the prototype and pinned by v1compat_test.go. A v1 submit is a v2
// synthetic submission admitted through the same path, minus tenant
// admission (v1 is never authenticated); only the rendering differs (flat
// JobInfo, string error envelope, closed state enum).

// maxQueryBody bounds a SPARQL query request body before JSON decoding.
const maxQueryBody = 1 << 20

// writeError sends the v1 {"error":"<string>"} envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	route.V1.Error(w, status, "", format, args...)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	// One consistent snapshot: separate RunCount/PendingLogs calls could
	// interleave with a fold and report pending > total.
	runLogs, runPending := s.platform.KB().RunCounts()
	s.mu.Lock()
	resp := StatusResponse{
		Workers:        s.platform.Workers(),
		RunLogs:        runLogs,
		RunLogsPending: runPending,
		// Cumulative counters survive eviction; canceled jobs count as
		// failed in v1's four-bucket view.
		Completed: s.statDone,
		Failed:    s.statFailed + s.statCanceled,
	}
	for _, rec := range s.jobs {
		switch rec.job.State {
		case StatePending:
			resp.Pending++
		case StateRunning:
			resp.Running++
		}
	}
	s.mu.Unlock()
	route.JSON(w, http.StatusOK, resp)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// v1 predates the family specs: its submissions are always synthetic
	// sequencing reads, and its errors drop v2's prefix.
	spec, apiErr := s.normalizeSubmission(SubmitJobRequest{
		Workflow:     req.Workflow,
		ShardRecords: req.ShardRecords,
		Synthetic: &SyntheticSpec{
			ReferenceLength: req.ReferenceLength,
			Reads:           req.Reads,
			ReadLength:      req.ReadLength,
			SNVs:            req.SNVs,
			ErrorRate:       req.ErrorRate,
			Seed:            req.Seed,
		},
	})
	if apiErr != nil {
		writeError(w, http.StatusBadRequest, "%s", strings.TrimPrefix(apiErr.Message, "synthetic: "))
		return
	}
	job, apiErr := s.enqueue(spec)
	if apiErr != nil {
		writeError(w, http.StatusServiceUnavailable, "%s", apiErr.Message)
		return
	}
	route.JSON(w, http.StatusAccepted, v1View(job))
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobInfo, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, v1View(s.jobs[id].job))
	}
	s.mu.Unlock()
	route.JSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	rec, ok := s.jobs[id]
	var info JobInfo
	if ok {
		info = v1View(rec.job)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no job %d", id)
		return
	}
	route.JSON(w, http.StatusOK, info)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	res, err := s.platform.KB().Query(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "query failed: %v", err)
		return
	}
	// Zero-row results must serialize as [], not null — clients iterate
	// "rows" without a nil check.
	resp := QueryResponse{
		Vars: append([]string{}, res.Vars...),
		Rows: make([]map[string]string, 0, len(res.Rows)),
	}
	for _, row := range res.Rows {
		m := make(map[string]string, len(row))
		for v, term := range row {
			m[v] = term.String()
		}
		resp.Rows = append(resp.Rows, m)
	}
	route.JSON(w, http.StatusOK, resp)
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	ps, err := s.platform.KB().Profiles()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "profiles: %v", err)
		return
	}
	out := make([]ProfileInfo, len(ps))
	for i, p := range ps {
		out[i] = ProfileInfo{
			Name: p.Name, InputFileSize: p.InputFileSize, Steps: p.Steps,
			RAM: p.RAM, CPU: p.CPU, ETime: p.ETime,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	route.JSON(w, http.StatusOK, out)
}

// handleExport serves the knowledge base as Turtle (default) or RDF/XML
// (?format=rdfxml), the paper's listing format.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "", "turtle":
		writeDocument(w, "text/turtle", s.platform.KB().Export)
	case "rdfxml":
		writeDocument(w, "application/rdf+xml", s.platform.KB().ExportRDFXML)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q", r.URL.Query().Get("format"))
	}
}

// writeDocument encodes a document fully into memory before touching the
// ResponseWriter. Streaming straight into the writer looks cheaper but has
// a broken failure mode: once the 200 header and a partial body are out, a
// mid-stream encode error can only append a JSON error blob (and a
// superfluous-500 log) onto the partial document. Buffering guarantees the
// client gets either a complete document or a clean JSON error.
func writeDocument(w http.ResponseWriter, contentType string, encode func(io.Writer) error) {
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, "export: %v", err)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleWorkflows(w http.ResponseWriter, r *http.Request) {
	cat := s.platform.Catalogue()
	out := make([]WorkflowInfo, 0, cat.Len())
	for _, name := range cat.Names() {
		wf, err := cat.Get(name)
		if err != nil {
			continue // registry is append-only; cannot happen
		}
		info := WorkflowInfo{
			Name:        wf.Name,
			Family:      wf.Family,
			Description: wf.Description,
			Consumes:    string(wf.Consumes()),
			Produces:    string(wf.Produces()),
			Runnable:    true,
			Stages:      make([]StageInfo, 0, len(wf.Stages)),
		}
		for _, st := range wf.Stages {
			info.Stages = append(info.Stages, StageInfo{
				Name: st.Name, Tool: st.Tool,
				Consumes: string(st.Consumes), Produces: string(st.Produces),
				Parallelizable: st.Parallelizable,
			})
		}
		if err := s.platform.Engine().CanRun(wf); err != nil {
			info.Runnable = false
			info.Reason = err.Error()
		}
		out = append(out, info)
	}
	route.JSON(w, http.StatusOK, out)
}
