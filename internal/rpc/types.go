// Package rpc implements the SCAN scheduler's HTTP interface — the
// descendant of the paper's CherryPy prototype ("The scheduler is
// implemented in Python, using the CherryPy web framework to process HTTP
// requests. Its interface is realized using HTTP RPCs."). scand serves it;
// scanctl and Client talk to it.
//
// Two API versions share one job store and engine:
//
//   - /api/v2 (v2types.go, v2handlers.go) is the resource-oriented surface:
//     jobs with a structured result and per-stage breakdown, machine-
//     readable error codes, DELETE-to-cancel that stops in-flight runs via
//     a per-job context, filtered + paginated listing over a bounded store
//     with terminal-job retention, SSE event streams (state transitions and
//     stage completions), and submissions naming one dataset source.
//   - /api/v1 (this file, v1handlers.go) is the original flat RPC surface,
//     kept wire-compatible for old clients and pinned by v1compat_test.go.
//     Its submit is an adapter: a SubmitRequest is admitted as a v2
//     synthetic submission and answered in v1's shapes. New integrations
//     should use v2.
//
// Whatever its kind, a job's input is one value behind the source interface
// (source.go): validated and pinned at admission, materialized and scored
// by the executor, released exactly once; nothing else asks which kind.
package rpc

import "time"

// JobState is a submitted job's lifecycle phase.
type JobState string

// Job states. StateCanceled is v2-only vocabulary: the v1 surface predates
// cancellation and renders canceled jobs as failed, keeping its state enum
// closed for old clients.
const (
	StatePending  JobState = "pending"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// SubmitRequest asks the daemon to run one catalogued workflow over a
// synthetic dataset — the v1 submission shape. The daemon generates the
// data (seeded, reproducible) and drives it through the workflow engine's
// shard → stage chain → merge execution. The v2 equivalent is
// SubmitJobRequest, which additionally accepts inline FASTQ records.
type SubmitRequest struct {
	// Workflow names the catalogued workflow to execute (default:
	// dna-variant-detection). The workflow must consume FASTQ — the
	// daemon synthesises sequencing reads — and have executors for every
	// stage; see GET /api/v1/workflows for what qualifies.
	Workflow string `json:"workflow,omitempty"`
	// ReferenceLength is the synthetic genome size in bases.
	ReferenceLength int `json:"reference_length"`
	// Reads is the number of simulated reads.
	Reads int `json:"reads"`
	// ReadLength is the simulated read length. Pointer semantics: the
	// DefaultReadLength applies only when the field is absent (nil) or
	// negative; an explicit 0 is rejected at submission (a zero-length
	// read is meaningless), never silently replaced.
	ReadLength *int `json:"read_length,omitempty"`
	// SNVs is the number of planted mutations.
	SNVs int `json:"snvs"`
	// ErrorRate is the per-base sequencing error. Pointer semantics: the
	// DefaultErrorRate applies only when the field is absent (nil) or
	// negative; an explicit 0 means error-free reads and is honored —
	// earlier versions silently promoted it to the default.
	ErrorRate *float64 `json:"error_rate,omitempty"`
	// Seed makes the synthetic data reproducible.
	Seed int64 `json:"seed"`
	// ShardRecords overrides the Data Broker's shard sizing when > 0.
	ShardRecords int `json:"shard_records,omitempty"`
}

// Defaults for the optional read-simulation fields.
const (
	DefaultReadLength = 100
	DefaultErrorRate  = 0.002
)

// JobInfo summarises one job in the flat v1 wire shape (lifecycle and
// result fields conflated, omitempty throughout). It is derived from the
// v2 Job resource; see v1View.
type JobInfo struct {
	ID        int       `json:"id"`
	State     JobState  `json:"state"`
	Workflow  string    `json:"workflow,omitempty"`
	Submitted time.Time `json:"submitted"`
	Error     string    `json:"error,omitempty"`

	// Result summary (populated when State == done).
	Mapped     int     `json:"mapped,omitempty"`
	TotalReads int     `json:"total_reads,omitempty"`
	Variants   int     `json:"variants,omitempty"`
	Features   int     `json:"features,omitempty"`
	Recovered  int     `json:"recovered,omitempty"`
	Planted    int     `json:"planted,omitempty"`
	Shards     int     `json:"shards,omitempty"`
	ElapsedSec float64 `json:"elapsed_sec,omitempty"`
}

// StageInfo describes one catalogued workflow stage over the wire.
type StageInfo struct {
	Name           string `json:"name"`
	Tool           string `json:"tool"`
	Consumes       string `json:"consumes"`
	Produces       string `json:"produces"`
	Parallelizable bool   `json:"parallelizable,omitempty"`
}

// WorkflowInfo describes one catalogued workflow over the wire. Runnable
// reports whether the daemon's engine has an executor for every stage;
// Reason carries the blocking stage when it does not.
type WorkflowInfo struct {
	Name        string      `json:"name"`
	Family      string      `json:"family"`
	Description string      `json:"description,omitempty"`
	Consumes    string      `json:"consumes"`
	Produces    string      `json:"produces"`
	Stages      []StageInfo `json:"stages"`
	Runnable    bool        `json:"runnable"`
	Reason      string      `json:"reason,omitempty"`
}

// QueryRequest is a SPARQL query against the daemon's knowledge base.
type QueryRequest struct {
	Query string `json:"query"`
}

// QueryResponse carries query results as rows of var → rendered term.
type QueryResponse struct {
	Vars []string            `json:"vars"`
	Rows []map[string]string `json:"rows"`
}

// ProfileInfo mirrors knowledge.AppProfile over the wire.
type ProfileInfo struct {
	Name          string  `json:"name"`
	InputFileSize float64 `json:"input_file_size"`
	Steps         int     `json:"steps"`
	RAM           int     `json:"ram"`
	CPU           int     `json:"cpu"`
	ETime         float64 `json:"etime"`
}

// StatusResponse is the daemon health/statistics snapshot. RunLogs counts
// every accepted run observation; RunLogsPending is the subset still in the
// knowledge base's batched-ingestion buffer, not yet folded into the graph.
type StatusResponse struct {
	Workers        int `json:"workers"`
	Pending        int `json:"pending"`
	Running        int `json:"running"`
	Completed      int `json:"completed"`
	Failed         int `json:"failed"`
	RunLogs        int `json:"run_logs"`
	RunLogsPending int `json:"run_logs_pending,omitempty"`
}
