package rpc

import (
	"fmt"
	"time"
)

// ---------------------------------------------------------------------------
// /api/v2 wire types: the resource-oriented job surface. A Job is a
// first-class resource with a lifecycle (pending → running → done | failed |
// canceled), machine-readable errors, and a structured result carrying the
// per-stage breakdown the workflow engine computes. /api/v1's flat JobInfo
// remains served unchanged for old clients; both views render from the same
// job store.
// ---------------------------------------------------------------------------

// Machine-readable error codes. Request-level codes ride in the v2 error
// envelope ({"error":{"code":...,"message":...}}); job-level codes ride in
// Job.Error.
const (
	// Request-level codes.
	CodeInvalidArgument  = "invalid_argument"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeConflict         = "conflict"
	CodeUnavailable      = "unavailable"
	CodeInternal         = "internal"

	// Admission codes (only issued with tenancy enabled; docs/SERVING.md).
	CodeUnauthenticated = "unauthenticated"
	CodeForbidden       = "forbidden"
	CodeRateLimited     = "rate_limited"
	CodeQuotaExceeded   = "quota_exceeded"

	// Job-level codes.
	CodeCanceled        = "canceled"
	CodeShutdown        = "shutdown"
	CodeExecutionFailed = "execution_failed"
)

// APIError is the v2 machine-readable error: a stable code plus a
// human-readable message. Client methods wrap it, so callers can
// errors.As(err, *&APIError) and switch on Code.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// SyntheticSpec describes a daemon-generated dataset: a seeded reference
// with planted SNVs and simulated reads. It is the v2 form of the v1
// SubmitRequest's dataset fields, with identical tri-state semantics for the
// optional read-simulation fields.
type SyntheticSpec struct {
	// ReferenceLength is the synthetic genome size in bases (>= 200).
	ReferenceLength int `json:"reference_length"`
	// Reads is the number of simulated reads (>= 1).
	Reads int `json:"reads"`
	// ReadLength is the simulated read length. DefaultReadLength applies
	// only when the field is absent or negative; an explicit 0 is rejected.
	ReadLength *int `json:"read_length,omitempty"`
	// SNVs is the number of planted mutations.
	SNVs int `json:"snvs,omitempty"`
	// ErrorRate is the per-base sequencing error. DefaultErrorRate applies
	// only when the field is absent or negative; an explicit 0 means
	// error-free reads and is honored.
	ErrorRate *float64 `json:"error_rate,omitempty"`
	// Seed makes the synthetic data reproducible.
	Seed int64 `json:"seed,omitempty"`
}

// EffectiveReadLength resolves the tri-state ReadLength field.
func (s *SyntheticSpec) EffectiveReadLength() int {
	if s.ReadLength == nil || *s.ReadLength < 0 {
		return DefaultReadLength
	}
	return *s.ReadLength
}

// EffectiveErrorRate resolves the tri-state ErrorRate field.
func (s *SyntheticSpec) EffectiveErrorRate() float64 {
	if s.ErrorRate == nil || *s.ErrorRate < 0 {
		return DefaultErrorRate
	}
	return *s.ErrorRate
}

// ProteomeSpec describes a daemon-generated proteomic dataset: a synthetic
// peptide database plus simulated MS/MS spectra — the MGF input of the
// proteomic workflows (proteome-maxquant, proteome-gpm).
type ProteomeSpec struct {
	// Proteins is the synthetic protein count in the peptide database
	// (>= 1).
	Proteins int `json:"proteins"`
	// Spectra is the number of simulated MS/MS spectra (>= 1).
	Spectra int `json:"spectra"`
	// NoisePeaks is the number of spurious peaks per spectrum. Same
	// tri-state semantics as SyntheticSpec's read fields: the default (3)
	// applies only when the field is absent or negative; an explicit 0
	// means clean spectra and is honored.
	NoisePeaks *int `json:"noise_peaks,omitempty"`
	// Seed makes the synthetic data reproducible.
	Seed int64 `json:"seed,omitempty"`
}

// DefaultNoisePeaks is the spurious-peak count simulated when a proteome
// spec leaves noise_peaks unset.
const DefaultNoisePeaks = 3

// EffectiveNoisePeaks resolves the tri-state NoisePeaks field.
func (s *ProteomeSpec) EffectiveNoisePeaks() int {
	if s.NoisePeaks == nil || *s.NoisePeaks < 0 {
		return DefaultNoisePeaks
	}
	return *s.NoisePeaks
}

// ImagingSpec describes a daemon-generated microscopy dataset: frames of
// planted fluorescent cells — the TIFF input of cell-imaging.
type ImagingSpec struct {
	// Images is the number of frames (>= 1).
	Images int `json:"images"`
	// Width and Height are the frame dimensions in pixels (default 128,
	// minimum 32).
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// CellsPerImage is the number of planted cells per frame (default 6).
	CellsPerImage int `json:"cells_per_image,omitempty"`
	// Seed makes the synthetic data reproducible.
	Seed int64 `json:"seed,omitempty"`
}

// NetworkSpec describes a daemon-generated integrative dataset: gene-level
// measurements drawn from planted modules — the FeatureTable input of
// integrative-network.
type NetworkSpec struct {
	// Genes is the number of measurements (>= 1).
	Genes int `json:"genes"`
	// Modules is the number of planted modules (>= 1, <= genes).
	Modules int `json:"modules"`
	// Seed makes the synthetic data reproducible.
	Seed int64 `json:"seed,omitempty"`
}

// InlineDataset carries real sequencing input in the submission body — the
// first non-synthetic workload: a reference sequence plus FASTQ records.
type InlineDataset struct {
	Reference InlineSequence `json:"reference"`
	Reads     []InlineRead   `json:"reads"`
}

// InlineSequence is a FASTA record inline in a request.
type InlineSequence struct {
	// Name is the sequence name (default "ref").
	Name string `json:"name,omitempty"`
	// Sequence is the nucleotide string (A/C/G/T/N, case-insensitive),
	// at least 16 bases (the aligner's seed length).
	Sequence string `json:"sequence"`
}

// InlineRead is one FASTQ record inline in a request.
type InlineRead struct {
	// ID names the read (default "read<N>").
	ID string `json:"id,omitempty"`
	// Sequence is the read's bases (A/C/G/T/N, case-insensitive).
	Sequence string `json:"sequence"`
	// Quality is the Phred+33 quality string; when present it must match
	// the sequence length, when absent a uniform high quality is assumed.
	Quality string `json:"quality,omitempty"`
}

// SubmitJobRequest creates a job. Exactly one dataset source must be set —
// Synthetic or Inline (FASTQ), Proteome (MGF), Imaging (TIFF), Network
// (FeatureTable), or Dataset (a registered upload of any family) — and the
// workflow must consume that source's data type.
type SubmitJobRequest struct {
	// Workflow names the catalogued workflow to execute. It defaults by
	// dataset source (dna-variant-detection, proteome-maxquant,
	// cell-imaging, integrative-network) and must have an executor for
	// every stage; see GET /api/v1/workflows.
	Workflow string `json:"workflow,omitempty"`
	// Synthetic asks the daemon to generate a sequencing dataset (FASTQ).
	Synthetic *SyntheticSpec `json:"synthetic,omitempty"`
	// Inline carries a sequencing dataset in the request body (FASTQ).
	Inline *InlineDataset `json:"inline,omitempty"`
	// Proteome asks the daemon to generate MS/MS spectra (MGF).
	Proteome *ProteomeSpec `json:"proteome,omitempty"`
	// Imaging asks the daemon to generate microscopy frames (TIFF).
	Imaging *ImagingSpec `json:"imaging,omitempty"`
	// Network asks the daemon to generate gene measurements (FeatureTable).
	Network *NetworkSpec `json:"network,omitempty"`
	// Dataset references a registered dataset (POST /api/v2/datasets) by id
	// or name. The job runs over the registry's copy of the records — no
	// payload rides in the submission.
	Dataset string `json:"dataset,omitempty"`
	// Reference names a registered reference genome (a dataset of family
	// "reference") by id or name. Valid for sequencing submissions only:
	// with Inline it replaces the inline reference sequence, with a FASTQ
	// Dataset it overrides (or supplies) the dataset's reference — so one
	// registered genome serves any number of read sets.
	Reference string `json:"reference,omitempty"`
	// ShardRecords overrides the Data Broker's shard sizing when > 0.
	ShardRecords int `json:"shard_records,omitempty"`
}

// Job source values.
const (
	SourceSynthetic = "synthetic"
	SourceInline    = "inline"
	SourceDataset   = "dataset"
)

// DatasetInfo is the v2 dataset resource: a named, uploaded dataset jobs
// reference by id instead of shipping records per submission.
type DatasetInfo struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Family is the upload family: fastq, mgf, tiff, feature-table or
	// reference.
	Family string `json:"family"`
	// Hash is the hex SHA-256 of the uploaded payload bytes.
	Hash string `json:"hash"`
	// Records counts the payload's records (reads, spectra, frames, rows;
	// 1 for a reference).
	Records int `json:"records"`
	// Bytes is the upload size accounted against the registry's byte bound.
	Bytes int64 `json:"bytes"`
	// Reference reports whether a FASTQ dataset carries an embedded
	// reference sequence (and is therefore submittable without naming one).
	Reference bool      `json:"reference,omitempty"`
	Created   time.Time `json:"created"`
}

// DatasetList is GET /api/v2/datasets: every registered dataset, oldest
// first. The registry is bounded (oldest unreferenced datasets are evicted
// to admit new uploads), so the listing needs no pagination.
type DatasetList struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// UploadCreateRequest is POST /api/v2/uploads: open a resumable upload
// session for a named dataset.
type UploadCreateRequest struct {
	Name   string `json:"name"`
	Family string `json:"family"`
}

// UploadPartInfo is one part's progress inside an upload session.
type UploadPartInfo struct {
	Field string `json:"field"`
	// Size is how many bytes the server has durably spooled — the offset the
	// next append must start at.
	Size int64 `json:"size"`
	// SHA256 is the running hex digest of the spooled bytes. A resuming
	// client hashes its local prefix of the same length and compares before
	// sending anything, so no verified byte is ever re-sent.
	SHA256 string `json:"sha256"`
}

// UploadInfo is the v2 upload-session resource.
type UploadInfo struct {
	ID      string           `json:"id"`
	Name    string           `json:"name"`
	Family  string           `json:"family"`
	Created time.Time        `json:"created"`
	Parts   []UploadPartInfo `json:"parts"`
}

// UploadList is GET /api/v2/uploads: every open session, oldest first.
// Sessions are process-local and bounded; committed or aborted sessions
// disappear from the listing.
type UploadList struct {
	Uploads []UploadInfo `json:"uploads"`
}

// Job is the v2 job resource.
type Job struct {
	ID    int      `json:"id"`
	State JobState `json:"state"`
	// Workflow and Family mirror the catalogue entry being executed;
	// Family ("genomic", "proteomic", "imaging", "integrative") lets
	// clients render family-shaped results without re-deriving the
	// classification from tool names.
	Family   string `json:"family,omitempty"`
	Workflow string `json:"workflow"`
	Source   string `json:"source"`
	// Dataset is the registered dataset id the job runs over, for
	// source "dataset" jobs.
	Dataset string `json:"dataset,omitempty"`
	// Tenant names the submitting tenant when the daemon runs with
	// tenancy enabled; empty otherwise (and for v1 submissions).
	Tenant    string     `json:"tenant,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Error is set for failed and canceled jobs.
	Error *JobError `json:"error,omitempty"`
	// Result is set for done jobs.
	Result *JobResult `json:"result,omitempty"`
}

// JobError explains a terminal failure with a machine-readable code
// (canceled, shutdown, execution_failed).
type JobError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// JobResult is a completed job's structured outcome. The counts populate
// by family: Mapped/Variants for sequencing runs, Features for imaging
// (one row per segmented cell) and expression, Proteins for proteomics,
// Nodes/Edges/Modules for network integration. TotalRecords counts the
// input payload's records whatever its type (reads, spectra, frames,
// measurements); TotalReads keeps the original name for FASTQ runs.
type JobResult struct {
	Mapped       int     `json:"mapped"`
	TotalReads   int     `json:"total_reads"`
	TotalRecords int     `json:"total_records,omitempty"`
	Variants     int     `json:"variants"`
	Features     int     `json:"features"`
	Proteins     int     `json:"proteins,omitempty"`
	Nodes        int     `json:"nodes,omitempty"`
	Edges        int     `json:"edges,omitempty"`
	Modules      int     `json:"modules,omitempty"`
	Recovered    int     `json:"recovered"`
	Planted      int     `json:"planted"`
	Shards       int     `json:"shards"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	// Stages is the per-stage breakdown, in execution order — never null.
	Stages []StageBreakdown `json:"stages"`
}

// StageBreakdown reports one executed workflow stage.
type StageBreakdown struct {
	Name       string  `json:"name"`
	Tool       string  `json:"tool"`
	Shards     int     `json:"shards"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// Records counts the records the stage's shards processed (absent for
	// stages that do not scatter by record).
	Records int `json:"records,omitempty"`
	// Streamed, FirstShardStartSec and Overlap are never set, so they never
	// reach the wire; they stay only because bench/ reads them.
	Streamed           bool    `json:"streamed,omitempty"`
	FirstShardStartSec float64 `json:"first_shard_start_sec,omitempty"`
	Overlap            float64 `json:"overlap,omitempty"`
}

// JobPage is one page of GET /api/v2/jobs. Jobs is never null; a non-empty
// NextPageToken means more jobs match the filters.
type JobPage struct {
	Jobs          []Job  `json:"jobs"`
	NextPageToken string `json:"next_page_token,omitempty"`
}

// ListJobsOptions filters and paginates GET /api/v2/jobs.
type ListJobsOptions struct {
	// State keeps only jobs in the given state when non-empty.
	State JobState
	// Workflow keeps only jobs of the given workflow when non-empty.
	Workflow string
	// Limit bounds the page size (default 100, max 1000).
	Limit int
	// PageToken resumes a previous listing from its NextPageToken.
	PageToken string
}

// Event types on the job event stream.
const (
	EventState = "state"
	EventStage = "stage"
)

// JobEvent is one entry on a job's event stream
// (GET /api/v2/jobs/{id}/events, served as SSE): a lifecycle state
// transition or a completed workflow stage. Seq numbers events from 0 per
// job; terminal state events carry the full Job resource so watchers need no
// follow-up fetch.
type JobEvent struct {
	Seq   int             `json:"seq"`
	Type  string          `json:"type"`
	Time  time.Time       `json:"time"`
	State JobState        `json:"state,omitempty"`
	Stage *StageBreakdown `json:"stage,omitempty"`
	Job   *Job            `json:"job,omitempty"`
}

// Terminal reports whether the state is final (done, failed or canceled).
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// clone deep-copies the job so snapshots handed to clients cannot alias the
// store's mutable record.
func (j Job) clone() Job {
	out := j
	if j.Started != nil {
		t := *j.Started
		out.Started = &t
	}
	if j.Finished != nil {
		t := *j.Finished
		out.Finished = &t
	}
	if j.Error != nil {
		e := *j.Error
		out.Error = &e
	}
	if j.Result != nil {
		r := *j.Result
		r.Stages = append([]StageBreakdown(nil), j.Result.Stages...)
		if r.Stages == nil {
			r.Stages = []StageBreakdown{}
		}
		out.Result = &r
	}
	return out
}
