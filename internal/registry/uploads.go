package registry

// Resumable upload sessions — the server half of the v2 uploads API. A
// session spools each named part to disk while tracking its size and
// running SHA-256; chunked appends are verified by offset, interrupted
// appends keep every byte that arrived, and commit decodes the spooled
// parts, ingests them into the blob store and promotes the dataset into the
// registry in one step. The legacy one-shot dataset POST is a thin wrapper
// over the same sessions: AppendDecoded streams a part through its decoder
// *while* spooling, so that path keeps its exact streaming error behavior
// and still converges on the same commit.
//
// Sessions are process-local. A durable store's sessions spool under the
// blob store's "uploads" directory (same filesystem, so commit ingests by
// rename), which a restart sweeps; a heap-only store's sessions spool in a
// private temp directory that Close removes. What survives a restart is
// committed datasets — the durable registry — not half-finished uploads.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Upload-session errors.
var (
	// ErrNoUpload reports an unknown upload session id.
	ErrNoUpload = errors.New("registry: no such upload session")
	// ErrTooManyUploads reports a Create beyond the session bound.
	ErrTooManyUploads = errors.New("registry: too many open upload sessions")
)

// OffsetError reports an append whose offset does not match the part's
// current size; Size tells the client where to resume.
type OffsetError struct {
	Field string
	Size  int64
}

func (e *OffsetError) Error() string {
	return fmt.Sprintf("registry: part %q is at offset %d", e.Field, e.Size)
}

// UploadConfig configures an UploadManager. Sessions spool under a durable
// Store's blob directory, in "uploads", or else in a private temp directory
// the manager removes on Close.
type UploadConfig struct {
	// Store is the destination registry.
	Store *Store
	// LimitsFor returns the decode caps for one part. Required.
	LimitsFor func(family Family, field string) Limits
	// Logf receives spool-cleanup warnings (default: silent).
	Logf func(format string, args ...any)
}

// Upload-session bounds. maxSessions leaves room for the one-shot dataset
// POST, which rides a transient session per request; maxParts covers the
// largest family (reference + data, peptides + spectra) with room to spare.
const (
	maxSessions = 64
	maxParts    = 4
)

// UploadManager owns the open upload sessions. Safe for concurrent use.
type UploadManager struct {
	mu       sync.Mutex
	cfg      UploadConfig
	dir      string // spool directory
	sessions map[string]*UploadSession
	next     int
}

// UploadSession is one open resumable upload.
type UploadSession struct {
	mu      sync.Mutex
	mgr     *UploadManager
	id      string
	name    string
	family  Family
	owner   string // opening tenant; "" when tenancy is off
	created time.Time
	parts   []*uploadPart // arrival order
	payload Payload       // fragments decoded so far (AppendDecoded)
	done    bool          // committed or aborted; spools gone
}

// uploadPart is one spooling part.
type uploadPart struct {
	field   string
	spool   *os.File
	h       hash.Hash
	size    int64
	decoded bool  // AppendDecoded already produced st
	st      Stats // valid when decoded
}

// PartStatus is one part's progress, as reported to clients.
type PartStatus struct {
	Field string
	Size  int64
	// SHA256 is the running hex digest of the bytes spooled so far; a
	// resuming client verifies its local prefix against it before sending
	// anything.
	SHA256 string
}

// UploadStatus is one session's client-visible state.
type UploadStatus struct {
	ID      string
	Name    string
	Family  Family
	Created time.Time
	Parts   []PartStatus
}

// NewUploadManager builds a manager. A durable store's spool directory is
// swept of the spool files a previous process left behind; a heap-only
// store gets a fresh private one.
func NewUploadManager(cfg UploadConfig) (*UploadManager, error) {
	if cfg.Store == nil {
		return nil, errors.New("registry: upload manager needs a store")
	}
	if cfg.LimitsFor == nil {
		return nil, errors.New("registry: upload manager needs decode limits")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	m := &UploadManager{cfg: cfg, sessions: make(map[string]*UploadSession), next: 1}
	if cfg.Store.disk == nil {
		dir, err := os.MkdirTemp("", "scan-uploads-")
		if err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		m.dir = dir
		return m, nil
	}
	m.dir = filepath.Join(cfg.Store.disk.Dir(), "uploads")
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	if names, err := filepath.Glob(filepath.Join(m.dir, "*.part")); err == nil {
		for _, n := range names {
			if err := os.Remove(n); err != nil {
				cfg.Logf("registry: sweeping stale spool %s: %v", n, err)
			}
		}
	}
	return m, nil
}

// Create opens a validated session owned by the named tenant ("" when
// tenancy is off): the name must be registrable (shape and uniqueness
// checked now for fast feedback; uniqueness is re-checked at commit, which
// is what counts).
func (m *UploadManager) Create(name string, family Family, owner string) (*UploadSession, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	st := m.cfg.Store
	st.mu.Lock()
	_, dup := st.byName[name]
	st.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	return m.stage(name, family, owner)
}

// Stage opens a session without name validation — the compat path for the
// one-shot dataset POST, which historically validated names only at store
// time so a malformed body fails before a malformed name.
func (m *UploadManager) Stage(name string, family Family, owner string) (*UploadSession, error) {
	return m.stage(name, family, owner)
}

func (m *UploadManager) stage(name string, family Family, owner string) (*UploadSession, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.sessions) >= maxSessions {
		return nil, fmt.Errorf("%w: %d open", ErrTooManyUploads, len(m.sessions))
	}
	u := &UploadSession{
		mgr:     m,
		id:      fmt.Sprintf("up-%d", m.next),
		name:    name,
		family:  family,
		owner:   owner,
		created: m.cfg.Store.now(),
	}
	m.next++
	m.sessions[u.id] = u
	return u, nil
}

// Get returns an open session by id.
func (m *UploadManager) Get(id string) (*UploadSession, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	u, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoUpload, id)
	}
	return u, nil
}

// List returns every open session's status, oldest id first.
func (m *UploadManager) List() []UploadStatus {
	m.mu.Lock()
	sessions := make([]*UploadSession, 0, len(m.sessions))
	for _, u := range m.sessions {
		sessions = append(sessions, u)
	}
	m.mu.Unlock()
	out := make([]UploadStatus, 0, len(sessions))
	for _, u := range sessions {
		out = append(out, u.Status())
	}
	// Creation order: ids are "up-N" with monotonic N.
	sort.Slice(out, func(i, j int) bool {
		a, _ := strconv.Atoi(strings.TrimPrefix(out[i].ID, "up-"))
		b, _ := strconv.Atoi(strings.TrimPrefix(out[j].ID, "up-"))
		return a < b
	})
	return out
}

// Close aborts every open session, deleting their spools, and removes a
// private spool directory. Called on server shutdown.
func (m *UploadManager) Close() {
	m.mu.Lock()
	sessions := make([]*UploadSession, 0, len(m.sessions))
	for _, u := range m.sessions {
		sessions = append(sessions, u)
	}
	m.mu.Unlock()
	for _, u := range sessions {
		u.Abort()
	}
	if m.cfg.Store.disk == nil {
		os.RemoveAll(m.dir) // the private temp dir
	}
}

func (m *UploadManager) drop(id string) {
	m.mu.Lock()
	delete(m.sessions, id)
	m.mu.Unlock()
}

// ID returns the session's id.
func (u *UploadSession) ID() string { return u.id }

// Owner returns the tenant that opened the session ("" when tenancy is
// off). It is fixed at creation, so no request ever sees an unowned
// session.
func (u *UploadSession) Owner() string { return u.owner }

// Status snapshots the session's progress.
func (u *UploadSession) Status() UploadStatus {
	u.mu.Lock()
	defer u.mu.Unlock()
	st := UploadStatus{ID: u.id, Name: u.name, Family: u.family, Created: u.created, Parts: []PartStatus{}}
	for _, p := range u.parts {
		st.Parts = append(st.Parts, PartStatus{
			Field:  p.field,
			Size:   p.size,
			SHA256: hex.EncodeToString(p.h.Sum(nil)),
		})
	}
	return st
}

// validUploadField reports whether field names a decodable part for family —
// the same pairs DecodeUploadPart accepts.
func validUploadField(family Family, field string) bool {
	switch family {
	case FASTQ:
		return field == "data" || field == "reference"
	case MGF:
		return field == "peptides" || field == "spectra"
	default:
		return field == "data"
	}
}

// partLocked finds or opens the named part. The caller holds u.mu.
func (u *UploadSession) partLocked(field string) (*uploadPart, error) {
	if u.done {
		return nil, fmt.Errorf("%w: %q", ErrNoUpload, u.id)
	}
	for _, p := range u.parts {
		if p.field == field {
			return p, nil
		}
	}
	if !validUploadField(u.family, field) {
		return nil, fmt.Errorf("unexpected part %q for family %q", field, u.family)
	}
	if len(u.parts) >= maxParts {
		return nil, fmt.Errorf("registry: more than %d parts", maxParts)
	}
	spool, err := os.OpenFile(
		filepath.Join(u.mgr.dir, fmt.Sprintf("%s-%s.part", u.id, field)),
		os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	p := &uploadPart{field: field, spool: spool, h: sha256.New()}
	u.parts = append(u.parts, p)
	return p, nil
}

// errTooBig renders the part-size-cap error in the decoders' wording, so
// the cap reads the same whether it trips here or mid-decode.
func errTooBig(max int64) error {
	return fmt.Errorf("%w: body larger than %d bytes", ErrTooLarge, max)
}

// Append spools r onto the named part starting at offset, which must equal
// the part's current size (OffsetError carries the real size otherwise —
// the client's resume point). A failed read keeps every byte that did
// arrive: the part's size and running hash advance together, so a
// disconnected client can verify its prefix and resume without re-sending.
// Returns the part's new size.
func (u *UploadSession) Append(field string, offset int64, r io.Reader) (int64, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	p, err := u.partLocked(field)
	if err != nil {
		return 0, err
	}
	if offset != p.size {
		return p.size, &OffsetError{Field: field, Size: p.size}
	}
	if p.decoded {
		return p.size, fmt.Errorf("registry: part %q is complete", field)
	}
	max := u.mgr.cfg.LimitsFor(u.family, field).MaxBytes
	w := io.MultiWriter(p.spool, p.h)
	buf := make([]byte, 64*1024)
	for {
		// The cap trips at >=, matching the decoders' source wrapper: a body
		// of exactly the cap still needs one more read to find EOF.
		if max > 0 && p.size >= max {
			return p.size, errTooBig(max)
		}
		n, rerr := r.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return p.size, fmt.Errorf("registry: spooling part %q: %w", field, werr)
			}
			p.size += int64(n)
		}
		if rerr == io.EOF {
			return p.size, nil
		}
		if rerr != nil {
			return p.size, rerr
		}
	}
}

// AppendDecoded streams one complete part through its family decoder while
// spooling it — the one-shot compat path. Decode errors surface exactly as
// the streaming upload API always surfaced them (mid-body, before later
// parts are read); the spooled bytes still participate in the same commit
// as resumable parts. Parts appended this way are complete: Append cannot
// extend them.
func (u *UploadSession) AppendDecoded(field string, r io.Reader) (Stats, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	p, err := u.partLocked(field)
	if err != nil {
		return Stats{}, err
	}
	if p.size > 0 || p.decoded {
		return Stats{}, fmt.Errorf("registry: part %q already has data", field)
	}
	tee := io.TeeReader(r, io.MultiWriter(p.spool, p.h))
	st, err := DecodeUploadPart(&u.payload, u.family, field, tee, u.mgr.cfg.LimitsFor(u.family, field))
	p.size = st.Bytes
	if err != nil {
		return st, err
	}
	p.decoded = true
	p.st = st
	return st, nil
}

// Abort discards the session and its spools. Safe to call twice.
func (u *UploadSession) Abort() {
	u.mu.Lock()
	if !u.done {
		u.done = true
		u.discardSpoolsLocked()
	}
	u.mu.Unlock()
	u.mgr.drop(u.id)
}

// discardSpoolsLocked closes and deletes the spool files; caller holds u.mu.
func (u *UploadSession) discardSpoolsLocked() {
	for _, p := range u.parts {
		p.spool.Close()
		os.Remove(p.spool.Name())
	}
}

// Commit decodes any parts not already decoded (arrival order, errors
// wrapped exactly as the one-shot upload wraps them), settles dataset-level
// stats, ingests the spooled parts into the blob store and promotes the
// dataset into the registry. On success the session is gone; on failure
// after validation the session is gone too (its spools were consumed), but
// validation failures — bad payloads, missing parts, name conflicts — leave
// the session open so a resumable client can inspect and abort it.
func (u *UploadSession) Commit() (Dataset, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.done {
		return Dataset{}, fmt.Errorf("%w: %q", ErrNoUpload, u.id)
	}
	stats := map[string]Stats{}
	for _, p := range u.parts {
		if !p.decoded {
			lim := u.mgr.cfg.LimitsFor(u.family, p.field)
			st, err := DecodeUploadPart(&u.payload, u.family, p.field, io.NewSectionReader(p.spool, 0, p.size), lim)
			if err != nil {
				return Dataset{}, fmt.Errorf("part %q: %v", p.field, err)
			}
			if st.Bytes != p.size || hex.EncodeToString(p.h.Sum(nil)) != st.Hash {
				return Dataset{}, fmt.Errorf("part %q: spool corrupted during upload", p.field)
			}
			p.decoded = true
			p.st = st
		}
		stats[p.field] = p.st
	}
	combined, err := settleUploadStats(u.family, stats)
	if err != nil {
		return Dataset{}, err
	}
	if err := validateName(u.name); err != nil {
		return Dataset{}, err
	}
	store := u.mgr.cfg.Store
	// Pre-check the name collision before the ingest consumes the spools,
	// so the common conflict leaves the session intact (Put re-checks under
	// its own lock either way, with the identical error).
	store.mu.Lock()
	_, dup := store.byName[u.name]
	store.mu.Unlock()
	if dup {
		return Dataset{}, fmt.Errorf("%w: %q", ErrDuplicateName, u.name)
	}

	if store.disk == nil {
		// No blob store: promote heap-only, exactly the legacy Put.
		meta, err := store.Put(u.name, u.family, u.payload, combined)
		if err != nil {
			return Dataset{}, err
		}
		u.done = true
		u.discardSpoolsLocked()
		u.mgr.drop(u.id)
		return meta, nil
	}

	// Ingest spools into the blob store (one caller reference each), then
	// promote. Ingest renames the spool away; from here on the session
	// cannot be retried, so any later failure tears it down.
	parts := make([]Part, 0, len(u.parts))
	for i, p := range u.parts {
		if err := p.spool.Sync(); err != nil {
			return Dataset{}, fmt.Errorf("registry: %w", err)
		}
		if err := store.disk.Ingest(p.spool.Name(), p.st.Hash); err != nil {
			for _, q := range parts[:i] {
				store.disk.Release(q.Hash)
			}
			return Dataset{}, err
		}
		parts = append(parts, Part{Field: p.field, Hash: p.st.Hash, Bytes: p.st.Bytes, Records: p.st.Records})
	}
	meta, err := store.put(u.name, u.family, u.payload, combined, parts)
	for _, q := range parts {
		// Release the ingest references: on success the blob owns its own.
		store.disk.Release(q.Hash)
	}
	u.done = true
	for _, p := range u.parts {
		p.spool.Close() // files already renamed or deduped away by Ingest
	}
	u.mgr.drop(u.id)
	if err != nil {
		return Dataset{}, err
	}
	return meta, nil
}

// DecodeUploadPart streams one upload part into payload with the decoder
// the (family, field) pair selects — the single mapping the upload API, the
// one-shot compat path and spill rematerialization all share.
func DecodeUploadPart(payload *Payload, family Family, field string, body io.Reader, lim Limits) (Stats, error) {
	switch {
	case family == FASTQ && field == "data":
		reads, st, err := DecodeFASTQ(body, lim)
		payload.Reads = reads
		return st, err
	case family == FASTQ && field == "reference",
		family == Reference && field == "data":
		ref, st, err := DecodeFASTA(body, lim)
		payload.Ref = ref
		return st, err
	case family == MGF && field == "peptides":
		db, st, err := DecodePeptides(body, lim)
		payload.PeptideDB = db
		return st, err
	case family == MGF && field == "spectra":
		spectra, st, err := DecodeMGFSpectra(body, lim)
		payload.Spectra = spectra
		return st, err
	case family == TIFF && field == "data":
		frames, st, err := DecodeFrames(body, lim)
		payload.Images = frames
		return st, err
	case family == FeatureTable && field == "data":
		rows, st, err := DecodeFeatures(body, lim)
		payload.Features = rows
		return st, err
	}
	return Stats{}, fmt.Errorf("unexpected part %q for family %q", field, family)
}

// settleUploadStats checks every required part arrived and combines the
// per-part stats into the dataset-level accounting, in the upload API's
// fixed part order (reference before data, peptides before spectra).
func settleUploadStats(family Family, parts map[string]Stats) (Stats, error) {
	switch family {
	case FASTQ:
		data, ok := parts["data"]
		if !ok {
			return Stats{}, errors.New(`fastq upload needs a "data" part (FASTQ records)`)
		}
		if ref, ok := parts["reference"]; ok {
			return CombineStats(data.Records, ref, data), nil
		}
		return data, nil
	case MGF:
		pep, okP := parts["peptides"]
		spec, okS := parts["spectra"]
		if !okP || !okS {
			return Stats{}, errors.New(`mgf upload needs "peptides" and "spectra" parts`)
		}
		return CombineStats(spec.Records, pep, spec), nil
	default:
		data, ok := parts["data"]
		if !ok {
			return Stats{}, fmt.Errorf(`%s upload needs a "data" part`, family)
		}
		return data, nil
	}
}
