package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"scan/internal/fleet"
)

// DefaultTimeout bounds one unary HTTP call (see WithTimeout). The
// streaming Watch path is exempt: its lifetime is governed by the caller's
// context, and an overall client timeout would sever long event streams.
const DefaultTimeout = 5 * time.Minute

// Client talks to a scand instance, preferring the v2 API for job
// operations; the v1 knowledge-base and catalogue endpoints are shared by
// both surfaces.
type Client struct {
	base   string
	http   *http.Client // unary calls, bounded by Timeout
	stream *http.Client // Watch: same transport, no overall timeout
	// uploadChunk is the resumable-upload append size (0 means
	// DefaultUploadChunk; see WithUploadChunkSize).
	uploadChunk int64
	// apiKey is sent as a Bearer token on every request when set (see
	// WithAPIKey).
	apiKey string
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithTimeout sets the overall HTTP timeout for unary calls (default
// DefaultTimeout; 0 disables). Watch is never subject to it.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.http.Timeout = d }
}

// WithHTTPClient replaces the underlying HTTP client (custom transports,
// proxies, test doubles). Its Timeout applies to unary calls only; Watch
// uses a copy with the timeout stripped.
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.http = h }
}

// WithAPIKey authenticates every request with the given tenant API key
// ("Authorization: Bearer <key>"), for daemons running with -tenants.
func WithAPIKey(key string) ClientOption {
	return func(c *Client) { c.apiKey = key }
}

// authorize attaches the client's API key, when one is configured.
func (c *Client) authorize(req *http.Request) {
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
}

// NewClient returns a client for the given base URL (e.g.
// "http://localhost:7390").
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: DefaultTimeout},
	}
	for _, o := range opts {
		o(c)
	}
	sc := *c.http
	sc.Timeout = 0
	c.stream = &sc
	return c
}

// decodeError turns an HTTP error response into a Go error. Both envelope
// generations are understood — v1's {"error":"<string>"} and v2's
// {"error":{"code","message"}} (surfaced as a wrapped *APIError so callers
// can switch on the code) — and non-JSON bodies degrade to the status code.
func decodeError(method, path string, status int, body io.Reader) error {
	raw, _ := io.ReadAll(io.LimitReader(body, 1<<20))
	var probe struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(raw, &probe) == nil && len(probe.Error) > 0 {
		var msg string
		if json.Unmarshal(probe.Error, &msg) == nil && msg != "" {
			return fmt.Errorf("rpc: %s %s: %s", method, path, msg)
		}
		var ae APIError
		if json.Unmarshal(probe.Error, &ae) == nil && ae.Message != "" {
			return fmt.Errorf("rpc: %s %s: %w", method, path, &ae)
		}
	}
	return fmt.Errorf("rpc: %s %s: HTTP %d", method, path, status)
}

// do sends in (when non-nil) as a JSON body and decodes the JSON response
// into out (when non-nil).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = raw
	}
	return c.send(ctx, method, path, "application/json", bytes.NewReader(body), out)
}

// send issues one unary call. A successful response body is copied into
// out when it is an io.Writer, decoded as JSON into any other non-nil out,
// and discarded otherwise; an error status decodes either envelope.
func (c *Client) send(ctx context.Context, method, path, contentType string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	c.authorize(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeError(method, path, resp.StatusCode, resp.Body)
	}
	switch out := out.(type) {
	case nil:
		return nil
	case io.Writer:
		_, err := io.Copy(out, resp.Body)
		return err
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// ---------------------------------------------------------------------------
// v2 job API
// ---------------------------------------------------------------------------

// CreateJob submits a v2 job (synthetic spec or inline FASTQ) and returns
// its initial resource.
func (c *Client) CreateJob(ctx context.Context, req SubmitJobRequest) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodPost, "/api/v2/jobs", req, &job)
	return job, err
}

// GetJob fetches one job resource.
func (c *Client) GetJob(ctx context.Context, id int) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/api/v2/jobs/%d", id), nil, &job)
	return job, err
}

// Cancel asks the daemon to cancel a job. A pending job is canceled
// immediately; a running job has its context cancelled and reaches the
// canceled state asynchronously (watch or poll for the terminal state). The
// returned Job is the resource at the moment of the request.
func (c *Client) Cancel(ctx context.Context, id int) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodDelete, fmt.Sprintf("/api/v2/jobs/%d", id), nil, &job)
	return job, err
}

// ListJobs fetches one page of jobs in submission order. Iterate by feeding
// JobPage.NextPageToken back in via ListJobsOptions.PageToken until it
// comes back empty.
func (c *Client) ListJobs(ctx context.Context, opts ListJobsOptions) (JobPage, error) {
	q := url.Values{}
	if opts.State != "" {
		q.Set("state", string(opts.State))
	}
	if opts.Workflow != "" {
		q.Set("workflow", opts.Workflow)
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.PageToken != "" {
		q.Set("page_token", opts.PageToken)
	}
	path := "/api/v2/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page JobPage
	err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// Watch subscribes to a job's SSE event stream and calls fn (when non-nil)
// for every event — the full history replays first, so no transition is
// missed however late the watch starts. It returns the final job resource
// once the job reaches a terminal state, or ctx's error if the context ends
// first. Unlike polling Wait, Watch holds one connection and receives
// per-stage progress as it happens.
func (c *Client) Watch(ctx context.Context, id int, fn func(JobEvent)) (Job, error) {
	path := fmt.Sprintf("/api/v2/jobs/%d/events", id)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return Job{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	c.authorize(req)
	resp, err := c.stream.Do(req)
	if err != nil {
		return Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Job{}, decodeError(http.MethodGet, path, resp.StatusCode, resp.Body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16*1024*1024)
	var data bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		if after, ok := strings.CutPrefix(line, "data:"); ok {
			data.WriteString(strings.TrimPrefix(after, " "))
			continue
		}
		if line != "" || data.Len() == 0 {
			continue // event/id/comment lines; the JSON payload carries everything
		}
		var ev JobEvent
		if err := json.Unmarshal(data.Bytes(), &ev); err != nil {
			return Job{}, fmt.Errorf("rpc: watch job %d: bad event: %w", id, err)
		}
		data.Reset()
		if fn != nil {
			fn(ev)
		}
		if ev.Type == EventState && ev.State.Terminal() {
			// The stream ends here; reading it to its end returns the
			// connection to the pool for the next call.
			_, _ = io.Copy(io.Discard, resp.Body)
			if ev.Job != nil {
				return *ev.Job, nil
			}
			return c.GetJob(ctx, id)
		}
	}
	if ctx.Err() != nil {
		return Job{}, ctx.Err()
	}
	if err := sc.Err(); err != nil {
		return Job{}, err
	}
	return Job{}, fmt.Errorf("rpc: watch job %d: stream ended before a terminal state", id)
}

// ---------------------------------------------------------------------------
// v2 dataset API
// ---------------------------------------------------------------------------

// UploadPart is one data part of a dataset upload. Fields: "data" for the
// fastq, tiff, feature-table and reference families ("reference" optionally
// alongside a fastq "data" part), "peptides" + "spectra" for mgf.
type UploadPart struct {
	Field string
	R     io.Reader
}

// UploadDataset streams a dataset into the daemon's registry as
// multipart/form-data and returns the stored resource. The parts stream
// straight from their readers through the request body — nothing is
// buffered client-side — matching the daemon's record-by-record decode.
func (c *Client) UploadDataset(ctx context.Context, name, family string, parts ...UploadPart) (DatasetInfo, error) {
	pr, pw := io.Pipe()
	mw := multipart.NewWriter(pw)
	go func() {
		err := func() error {
			// Metadata fields first: the daemon needs name and family before
			// it can pick the part decoder.
			if err := mw.WriteField("name", name); err != nil {
				return err
			}
			if err := mw.WriteField("family", family); err != nil {
				return err
			}
			for _, p := range parts {
				w, err := mw.CreateFormFile(p.Field, p.Field)
				if err != nil {
					return err
				}
				if _, err := io.Copy(w, p.R); err != nil {
					return err
				}
			}
			return mw.Close()
		}()
		pw.CloseWithError(err)
	}()
	var info DatasetInfo
	err := c.send(ctx, http.MethodPost, "/api/v2/datasets", mw.FormDataContentType(), pr, &info)
	return info, err
}

// Datasets lists every registered dataset, oldest first.
func (c *Client) Datasets(ctx context.Context) ([]DatasetInfo, error) {
	var list DatasetList
	err := c.do(ctx, http.MethodGet, "/api/v2/datasets", nil, &list)
	return list.Datasets, err
}

// Dataset fetches one dataset's metadata by id or name.
func (c *Client) Dataset(ctx context.Context, idOrName string) (DatasetInfo, error) {
	var info DatasetInfo
	err := c.do(ctx, http.MethodGet, "/api/v2/datasets/"+url.PathEscape(idOrName), nil, &info)
	return info, err
}

// DeleteDataset removes a dataset by id or name, returning its final
// metadata. Datasets referenced by unfinished jobs conflict.
func (c *Client) DeleteDataset(ctx context.Context, idOrName string) (DatasetInfo, error) {
	var info DatasetInfo
	err := c.do(ctx, http.MethodDelete, "/api/v2/datasets/"+url.PathEscape(idOrName), nil, &info)
	return info, err
}

// Workers fetches the fleet roster: every registered worker node with its
// engagement state and shard counts, plus queue depth and fleet metrics.
func (c *Client) Workers(ctx context.Context) (fleet.Roster, error) {
	var roster fleet.Roster
	err := c.do(ctx, http.MethodGet, "/api/v2/workers", nil, &roster)
	return roster, err
}

// ---------------------------------------------------------------------------
// v1 API (kept for old deployments; job methods return the flat JobInfo)
// ---------------------------------------------------------------------------

// Submit enqueues a job via the v1 API and returns its initial record.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (JobInfo, error) {
	var info JobInfo
	err := c.do(ctx, http.MethodPost, "/api/v1/jobs", req, &info)
	return info, err
}

// Job fetches one job's v1 record.
func (c *Client) Job(ctx context.Context, id int) (JobInfo, error) {
	var info JobInfo
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/api/v1/jobs/%d", id), nil, &info)
	return info, err
}

// Jobs lists all jobs in submission order via the v1 API (unpaginated; use
// ListJobs for bounded pages).
func (c *Client) Jobs(ctx context.Context) ([]JobInfo, error) {
	var out []JobInfo
	err := c.do(ctx, http.MethodGet, "/api/v1/jobs", nil, &out)
	return out, err
}

// Wait polls until the job leaves the pending/running states or the
// context expires. Prefer Watch, which streams instead of polling.
func (c *Client) Wait(ctx context.Context, id int, poll time.Duration) (JobInfo, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			return info, err
		}
		if info.State.Terminal() {
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Workflows lists the daemon's catalogued workflows and whether each is
// runnable on its engine.
func (c *Client) Workflows(ctx context.Context) ([]WorkflowInfo, error) {
	var out []WorkflowInfo
	err := c.do(ctx, http.MethodGet, "/api/v1/workflows", nil, &out)
	return out, err
}

// Query runs a SPARQL query on the daemon's knowledge base.
func (c *Client) Query(ctx context.Context, query string) (QueryResponse, error) {
	var out QueryResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/kb/query", QueryRequest{Query: query}, &out)
	return out, err
}

// Profiles lists the knowledge base's application profiles.
func (c *Client) Profiles(ctx context.Context) ([]ProfileInfo, error) {
	var out []ProfileInfo
	err := c.do(ctx, http.MethodGet, "/api/v1/kb/profiles", nil, &out)
	return out, err
}

// Export fetches the daemon's knowledge base as text in the given format
// ("turtle" or "rdfxml").
func (c *Client) Export(ctx context.Context, format string) (string, error) {
	var doc strings.Builder
	err := c.send(ctx, http.MethodGet, "/api/v1/kb/export?format="+url.QueryEscape(format), "", nil, &doc)
	return doc.String(), err
}

// Status fetches daemon statistics.
func (c *Client) Status(ctx context.Context) (StatusResponse, error) {
	var out StatusResponse
	err := c.do(ctx, http.MethodGet, "/api/v1/status", nil, &out)
	return out, err
}
