package fleet

// The fleet wire protocol: JSON envelopes for control (register, poll,
// result, roster) with binary payloads (workflow/wire.go) for data. Decode
// helpers validate structurally here so both ends and the fuzz targets
// share one entry point.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"scan/internal/blobstore"
	"scan/internal/variant"
	"scan/internal/workflow"
)

// maxEnvelope bounds a JSON control envelope, maxPayload the raw shard
// output behind a result envelope: anything larger is malformed or hostile.
const maxEnvelope, maxPayload = 1 << 20, 64 << 20

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is the worker's self-chosen label (hostname by default).
	Name string `json:"name"`
	// Slots is how many shards the worker runs concurrently.
	Slots int `json:"slots"`
}

// RegisterResponse assigns the worker its roster identity.
type RegisterResponse struct {
	ID string `json:"id"`
}

// PollRequest asks for work (long poll).
type PollRequest struct {
	WorkerID string `json:"worker_id"`
}

// PollResponse carries at most one task; nil means "nothing for you now"
// (not engaged, or the queue is empty).
type PollResponse struct {
	Task *Task `json:"task,omitempty"`
}

// TaskOptions are the coordinator-pinned run options a worker needs to
// rebuild a stage's stream deterministically (StageEnv.RemoteOptions):
// the stage's shard plan is already decided, and its records per shard
// give the worker the same count, so the worker's re-Split is
// byte-identical without a Data Broker. No region width is sent: a
// calling stage cuts its regions from that count.
type TaskOptions struct {
	Caller       variant.Config `json:"caller"`
	ShardRecords int            `json:"shard_records,omitempty"`
}

// PinOptions converts the engine's pinned options to wire form.
func PinOptions(opts workflow.RunOptions) TaskOptions {
	return TaskOptions{
		Caller:       opts.Caller,
		ShardRecords: opts.ShardRecords,
	}
}

// RunOptions converts wire options back to engine form.
func (o TaskOptions) RunOptions() workflow.RunOptions {
	return workflow.RunOptions{
		Caller:       o.Caller,
		ShardRecords: o.ShardRecords,
	}
}

// Task is one shard dispatch: which shard of which stage of which
// workflow, plus the stage input's type and the content hashes of its
// parts (workflow.ContextParts; GET /api/v2/blobs/{hash}, cacheable). The
// worker joins the parts, re-Splits the context with the pinned Options
// and transforms shard Shard of the coordinator's Shards, refusing a task
// its re-Split cuts into another count (a build other than the coordinator's).
type Task struct {
	ID           string            `json:"id"`
	Workflow     string            `json:"workflow"`
	Stage        int               `json:"stage"`
	Shard        int               `json:"shard"`
	Shards       int               `json:"shards"`
	Attempt      int               `json:"attempt"`
	Type         workflow.DataType `json:"type"`
	ContextParts []string          `json:"context_parts"`
	Options      TaskOptions       `json:"options"`
}

// ResultRequest opens a result body. Exactly one of Error or OutputBytes
// is set; OutputBytes raw bytes of workflow.EncodeShard output follow it.
// ElapsedMS is the worker-observed transform time, which the engine logs
// to the Data Broker as the shard's telemetry.
type ResultRequest struct {
	WorkerID    string  `json:"worker_id"`
	TaskID      string  `json:"task_id"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Error       string  `json:"error,omitempty"`
	OutputBytes int64   `json:"output_bytes,omitempty"`
}

// ResultResponse acknowledges a result; Accepted is false when the shard
// was already completed by another dispatch (the duplicate is discarded).
type ResultResponse struct {
	Accepted bool `json:"accepted"`
}

// WorkerStatus is one roster row of GET /api/v2/workers.
type WorkerStatus struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Addr is the worker's remote address as seen at registration.
	Addr string `json:"addr"`
	// State is "active" (engaged, running or ready for shards), "idle"
	// (registered, not engaged) or "gone" (heartbeat expired).
	State string `json:"state"`
	// Slots is the worker's concurrent shard capacity.
	Slots int `json:"slots"`
	// Inflight counts shards currently dispatched to the worker.
	Inflight int `json:"inflight"`
	// ShardsDone counts shard results the coordinator accepted from it.
	ShardsDone int `json:"shards_done"`
	// LastHeartbeatMS is milliseconds since the worker last polled or
	// reported.
	LastHeartbeatMS int64 `json:"last_heartbeat_ms"`
}

// Metrics counts coordinator-side fleet events.
type Metrics struct {
	// Hires and Releases count engagement transitions (the ScalingPolicy's
	// decisions on a live fleet).
	Hires    int `json:"hires"`
	Releases int `json:"releases"`
	// Dispatched counts task grants; Redispatched the subset that re-ran a
	// shard after a timeout, worker loss, or straggler duplicate.
	Dispatched   int `json:"dispatched"`
	Redispatched int `json:"redispatched"`
	// Completed counts accepted shard results; DuplicatesDiscarded counts
	// results for already-completed shards (straggler losses of the
	// first-result-wins race).
	Completed           int `json:"completed"`
	DuplicatesDiscarded int `json:"duplicates_discarded"`
	// RemoteStages counts stages executed through the fleet.
	RemoteStages int `json:"remote_stages"`
	// PartsEncoded counts context parts the coordinator encoded, to hash
	// them or to serve them; PartsRecalled counts those whose hash it
	// remembered, so that it neither encoded nor hashed them.
	PartsEncoded  int `json:"parts_encoded"`
	PartsRecalled int `json:"parts_recalled"`
}

// Roster is GET /api/v2/workers' body.
type Roster struct {
	Workers []WorkerStatus `json:"workers"`
	// Queued is the current dispatch-queue depth.
	Queued  int     `json:"queued"`
	Metrics Metrics `json:"metrics"`
}

// Errors shared by the decode helpers.
var (
	ErrBadEnvelope = errors.New("fleet: bad envelope")
)

// DecodeTask parses and validates a task envelope (fuzzed in
// fuzz_test.go). The worker applies the same checks to every polled task.
func DecodeTask(b []byte) (Task, error) {
	if len(b) > maxEnvelope {
		return Task{}, fmt.Errorf("%w: task envelope over %d bytes", ErrBadEnvelope, maxEnvelope)
	}
	var t Task
	if err := json.Unmarshal(b, &t); err != nil {
		return Task{}, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if err := t.validate(); err != nil {
		return Task{}, err
	}
	return t, nil
}

func (t Task) validate() error {
	if t.ID == "" || t.Workflow == "" {
		return fmt.Errorf("%w: task needs id and workflow", ErrBadEnvelope)
	}
	if t.Stage < 0 || t.Shard < 0 {
		return fmt.Errorf("%w: negative stage or shard index", ErrBadEnvelope)
	}
	if t.Shard >= t.Shards {
		return fmt.Errorf("%w: shard index %d outside the stage's %d shards", ErrBadEnvelope, t.Shard, t.Shards)
	}
	if len(t.ContextParts) == 0 || len(t.ContextParts) > workflow.MaxContextParts {
		return fmt.Errorf("%w: task has %d context parts, want 1 to %d",
			ErrBadEnvelope, len(t.ContextParts), workflow.MaxContextParts)
	}
	for i, h := range t.ContextParts {
		if !blobstore.ValidHash(h) || slices.Contains(t.ContextParts[:i], h) {
			return fmt.Errorf("%w: context part %d is not a distinct SHA-256 hash", ErrBadEnvelope, i)
		}
	}
	return nil
}

// ReadResult reads and validates the envelope that opens a result body
// (POST /api/v2/fleet/result; fuzzed in fuzz_test.go) and returns the body
// positioned at the payload, which the coordinator decodes only for a
// shard still waiting, so a duplicate costs no decode.
func ReadResult(body io.Reader) (ResultRequest, io.Reader, error) {
	dec := json.NewDecoder(io.LimitReader(body, maxEnvelope))
	var res ResultRequest
	if err := dec.Decode(&res); err != nil {
		return ResultRequest{}, nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if res.WorkerID == "" || res.TaskID == "" {
		return ResultRequest{}, nil, fmt.Errorf("%w: result needs worker_id and task_id", ErrBadEnvelope)
	}
	if (res.Error != "") == (res.OutputBytes != 0) || res.OutputBytes < 0 || res.OutputBytes > maxPayload {
		return ResultRequest{}, nil, fmt.Errorf("%w: result needs an error or output_bytes in (0, %d]", ErrBadEnvelope, maxPayload)
	}
	return res, io.MultiReader(dec.Buffered(), body), nil
}
