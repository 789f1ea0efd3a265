package registry

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"scan/internal/blobstore"
	"scan/internal/genomics"
	"scan/internal/imaging"
	"scan/internal/proteome"
	"scan/internal/workflow"
)

// Family classifies a stored dataset by the upload format it was decoded
// from. Four families are submittable as a job's input payload; Reference
// datasets are the registry's reference genomes, named by a submission's
// reference field rather than its dataset field.
type Family string

// The dataset families the registry stores.
const (
	FASTQ        Family = "fastq"         // sequencing reads
	MGF          Family = "mgf"           // MS/MS spectra + their peptide database
	TIFF         Family = "tiff"          // microscopy frames
	FeatureTable Family = "feature-table" // gene-level measurements
	Reference    Family = "reference"     // a reference genome (FASTA)
)

// ParseFamily validates a wire-level family string.
func ParseFamily(s string) (Family, error) {
	switch f := Family(s); f {
	case FASTQ, MGF, TIFF, FeatureTable, Reference:
		return f, nil
	default:
		return "", fmt.Errorf("registry: unknown dataset family %q (want fastq, mgf, tiff, feature-table or reference)", s)
	}
}

// DataType maps a submittable family to the workflow data type its records
// enter the engine as. Reference datasets have no workflow type of their
// own — they ride along a FASTQ submission — so they map to "".
func (f Family) DataType() workflow.DataType {
	switch f {
	case FASTQ:
		return workflow.FASTQ
	case MGF:
		return workflow.MGF
	case TIFF:
		return workflow.TIFF
	case FeatureTable:
		return workflow.FeatureTable
	default:
		return ""
	}
}

// Payload is a decoded dataset's records, immutable once stored. Jobs that
// reference a dataset build their workflow input around these very slices —
// the registry holds the only copy of the records, however many submissions
// name them.
type Payload struct {
	// Ref is the reference sequence: the payload of a Reference dataset, or
	// the optional embedded reference of a FASTQ upload.
	Ref genomics.Sequence
	// Reads is the FASTQ payload.
	Reads []genomics.Read
	// PeptideDB and Spectra are the MGF payload.
	PeptideDB proteome.Database
	Spectra   []proteome.Spectrum
	// Images is the TIFF payload.
	Images []imaging.Image
	// Features is the FeatureTable payload.
	Features []workflow.Feature
}

// Dataset is one stored dataset's metadata — the wire-visible resource.
type Dataset struct {
	// ID is the registry-assigned opaque identifier ("ds-N").
	ID string
	// Name is the client-chosen unique name.
	Name string
	// Family is the dataset family the payload was decoded as.
	Family Family
	// Hash is the hex SHA-256 of the uploaded payload bytes, in the order
	// they were consumed.
	Hash string
	// Records counts the payload's records in the family's record unit
	// (reads, spectra, frames, rows; 1 for a reference).
	Records int
	// Bytes is the payload size the store accounts against its byte bound:
	// the consumed upload size, or the decoded in-memory footprint where
	// that is larger (text-encoded frames expand into float64 pixels).
	Bytes int64
	// HasReference reports an embedded reference sequence (a FASTQ upload
	// with a reference part, or a Reference dataset itself).
	HasReference bool
	// Created is the upload time.
	Created time.Time
	// Owner is the tenant that committed the dataset; "" when tenancy is
	// off. It persists in the manifest with the rest of the metadata, so
	// ownership and quotas survive a restart.
	Owner string
}

// Store errors.
var (
	// ErrNotFound reports an unknown dataset id or name.
	ErrNotFound = errors.New("registry: no such dataset")
	// ErrDuplicateName reports a name collision on Put.
	ErrDuplicateName = errors.New("registry: dataset name already in use")
	// ErrPinned reports a Delete of a dataset still referenced by jobs.
	ErrPinned = errors.New("registry: dataset is referenced by unfinished jobs")
	// ErrStoreFull reports a Put that cannot fit even after evicting every
	// unreferenced dataset.
	ErrStoreFull = errors.New("registry: store is full")
)

// Quota bounds what one owner's datasets may hold. It is fixed when an
// upload session opens and checked again in the step that stores the
// dataset. The zero Quota is unowned and unbounded; a bound of zero or less
// is unlimited.
type Quota struct {
	Owner       string
	MaxDatasets int
	MaxBytes    int64
}

// QuotaError reports a dataset its owner's quota has no room for: Datasets
// and Bytes are what the owner already holds, Adding the rejected size.
type QuotaError struct {
	Quota    Quota
	Datasets int
	Bytes    int64
	Adding   int64
}

func (e *QuotaError) Error() string {
	if q := e.Quota; q.MaxDatasets > 0 && e.Datasets >= q.MaxDatasets {
		return fmt.Sprintf("registry: owner %q holds %d of %d datasets; delete one first",
			q.Owner, e.Datasets, q.MaxDatasets)
	}
	return fmt.Sprintf("registry: dataset of %d bytes would put owner %q over its %d-byte quota (%d in use); delete datasets first",
		e.Adding, e.Quota.Owner, e.Quota.MaxBytes, e.Bytes)
}

// Options bounds a Store.
type Options struct {
	// MaxDatasets bounds the stored dataset count (default 64).
	MaxDatasets int
	// MaxBytes bounds the summed Dataset.Bytes accounting (default 256 MiB).
	// With Blobs attached this is the resident-memory budget decoded
	// payloads spill against, not a capacity limit (persist.go).
	MaxBytes int64
	// Blobs attaches the disk-backed blob store that makes datasets durable
	// and spillable. Nil keeps the registry heap-only (the pre-durability
	// behavior, byte for byte).
	Blobs *blobstore.Store
	// Dir is where the dataset manifest persists (requires Blobs). Empty
	// disables metadata persistence even when payload parts are durable.
	Dir string
	// Logf receives persistence warnings (default: silent).
	Logf func(format string, args ...any)
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Default store bounds.
const (
	DefaultMaxDatasets = 64
	DefaultMaxBytes    = 256 << 20
)

// Store is the bounded, concurrency-safe dataset registry. Capacity is
// reclaimed retention-style: when a Put would exceed a bound, the oldest
// datasets not referenced by any unfinished job are evicted first; a later
// submission naming an evicted dataset gets ErrNotFound, which the API
// surfaces as a machine-readable 4xx.
type Store struct {
	mu      sync.Mutex
	byID    map[string]*entry
	byName  map[string]string // name -> id
	blobs   map[blobKey]*blob // content-addressed payload index
	order   []string          // insertion order (oldest first), compacted on removal
	next    int
	total   int64 // resident decoded payload bytes (spilled blobs excluded)
	maxN    int
	maxB    int64
	now     func() time.Time
	evicted int
	deduped int

	// Durable data plane (persist.go); disk nil = heap-only store.
	disk    *blobstore.Store
	dir     string
	logf    func(format string, args ...any)
	spilled int
	remats  int
}

type entry struct {
	meta Dataset
	blob *blob
	pins int // unfinished jobs referencing the dataset
}

// blobKey addresses a payload by its decoded family and content hash: two
// uploads with identical bytes decoded the same way hold identical records.
type blobKey struct {
	family Family
	hash   string
}

// blob is one refcounted payload. Datasets whose uploads hash identically
// alias the same blob, so the store holds (and accounts) the records once
// however many names they are registered under.
type blob struct {
	payload Payload
	bytes   int64
	refs    int

	// Durable state (persist.go). parts lists the raw upload parts held in
	// the blob store (nil = heap-only blob, never spillable); spilled marks
	// the payload dropped pending rematerialization; pins aggregates entry
	// pins plus in-flight fetches — a pinned blob is never spilled; fetchMu
	// serializes rematerializations so concurrent resolvers decode once.
	parts   []Part
	spilled bool
	pins    int
	fetchMu sync.Mutex
}

// NewStore builds a store with the given bounds.
func NewStore(opts Options) *Store {
	if opts.MaxDatasets <= 0 {
		opts.MaxDatasets = DefaultMaxDatasets
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	s := &Store{
		byID:   make(map[string]*entry),
		byName: make(map[string]string),
		blobs:  make(map[blobKey]*blob),
		next:   1,
		maxN:   opts.MaxDatasets,
		maxB:   opts.MaxBytes,
		now:    opts.Now,
		disk:   opts.Blobs,
		logf:   opts.Logf,
	}
	if s.disk != nil && opts.Dir != "" {
		s.dir = opts.Dir
		s.loadManifest()
	}
	return s
}

// Put stores a decoded heap-only dataset under a unique name and returns
// its metadata. The payload's Bytes/Hash/Records come from the decoder's
// Stats. Oldest unpinned datasets are evicted to make room; if the new
// dataset still cannot fit (every resident dataset is pinned, or it is
// larger than the store bound on its own), Put returns ErrStoreFull.
func (s *Store) Put(name string, family Family, payload Payload, st Stats) (Dataset, error) {
	return s.put(name, family, payload, st, nil, Quota{})
}

// put is the one insert path. parts, when non-nil, are the dataset's raw
// upload parts, already ingested into the blob store (the upload-session
// commit): the byte bound then spills instead of rejecting, since the blob
// store holds the bytes either way, and the blob takes its own reference
// on each part — the caller's ingest references remain the caller's to
// release. The name and the owner's quota are checked first, so a rejected
// dataset stores, evicts and spills nothing.
func (s *Store) put(name string, family Family, payload Payload, st Stats, parts []Part, q Quota) (Dataset, error) {
	// Names share a resolution namespace with ids and content hashes
	// (Resolve prefers hashes, then ids), so id-shaped and "sha256:"-prefixed
	// names are reserved. '/' would make the name unaddressable through the
	// one-segment HTTP resource path.
	if err := validateName(name); err != nil {
		return Dataset{}, err
	}
	size := st.footprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(name, q, size); err != nil {
		return Dataset{}, err
	}
	if parts == nil && size > s.maxB {
		return Dataset{}, fmt.Errorf("%w: %d bytes exceeds the %d-byte store bound", ErrStoreFull, size, s.maxB)
	}
	// Content dedup: an upload hashing identically to a resident blob of the
	// same family aliases that blob instead of storing a second copy, so it
	// costs no new payload bytes. The ref is taken before the eviction loop
	// so evicting the blob's other datasets cannot free it out from under
	// the new one.
	key := blobKey{family: family, hash: st.Hash}
	b := s.blobs[key]
	addBytes := size
	if b != nil {
		b.refs++
		addBytes = 0
		s.deduped++
	}
	// Retention-style reclamation: drop oldest unpinned entries until the
	// new dataset fits the count bound and, heap-only, the byte bound.
	for len(s.byID) >= s.maxN || (parts == nil && s.total+addBytes > s.maxB) {
		if !s.evictOldestLocked() {
			if b != nil {
				s.releaseBlobLocked(key, b)
			}
			return Dataset{}, fmt.Errorf("%w: every resident dataset is referenced by unfinished jobs", ErrStoreFull)
		}
	}
	if b == nil {
		b = &blob{payload: payload, bytes: size, refs: 1}
		if st.Hash != "" {
			s.blobs[key] = b
		}
		s.total += size
	}
	if parts != nil && b.parts == nil {
		// New blob — or an upgrade of a heap-only blob a plain Put created:
		// either way the blob now owns one store reference per part.
		for i, p := range parts {
			if err := s.disk.AddRef(p.Hash); err != nil {
				for _, q := range parts[:i] {
					s.disk.Release(q.Hash)
				}
				s.releaseBlobLocked(key, b)
				return Dataset{}, err
			}
		}
		b.parts = parts
	}
	id := fmt.Sprintf("ds-%d", s.next)
	s.next++
	e := &entry{
		meta: Dataset{
			ID:           id,
			Name:         name,
			Family:       family,
			Hash:         st.Hash,
			Records:      st.Records,
			Bytes:        size,
			HasReference: payload.Ref.Len() > 0,
			Created:      s.now(),
			Owner:        q.Owner,
		},
		blob: b,
	}
	s.byID[id] = e
	s.byName[name] = id
	s.order = append(s.order, id)
	s.reclaimLocked()
	s.persistLocked()
	return e.meta, nil
}

// admitLocked reports why a dataset named name (when name is non-empty) of
// size bytes could not be stored under q now: the name is taken, or the
// owner is at a bound. The caller holds s.mu.
func (s *Store) admitLocked(name string, q Quota, size int64) error {
	if _, dup := s.byName[name]; name != "" && dup {
		return fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	if q.Owner == "" {
		return nil
	}
	n, b := s.ownedLocked(q.Owner)
	if (q.MaxDatasets > 0 && n >= q.MaxDatasets) || (q.MaxBytes > 0 && b+size > q.MaxBytes) {
		return &QuotaError{Quota: q, Datasets: n, Bytes: b, Adding: size}
	}
	return nil
}

// admit is admitLocked under the store lock: the early checks that let an
// upload fail before its bytes are spent. A pass is advisory; put checks
// again in the step that stores.
func (s *Store) admit(name string, q Quota, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitLocked(name, q, size)
}

// Owned reports how many datasets owner holds and their summed Bytes.
func (s *Store) Owned(owner string) (datasets int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ownedLocked(owner)
}

func (s *Store) ownedLocked(owner string) (datasets int, bytes int64) {
	for _, e := range s.byID {
		if e.meta.Owner == owner {
			datasets++
			bytes += e.meta.Bytes
		}
	}
	return datasets, bytes
}

// releaseBlobLocked drops one blob reference, freeing the payload and its
// byte accounting at zero — along with the blob-store references a durable
// blob owns on its parts, which lets the disk store unlink chunk files
// nothing references anymore. The caller holds s.mu.
func (s *Store) releaseBlobLocked(key blobKey, b *blob) {
	b.refs--
	if b.refs > 0 {
		return
	}
	if !b.spilled {
		s.total -= b.bytes
	}
	for _, p := range b.parts {
		s.disk.Release(p.Hash)
	}
	if key.hash != "" {
		delete(s.blobs, key)
	}
}

// removable reports whether e may leave the store: no unfinished job pins
// it, and no pin on its blob — a job of a dedup alias, or an in-flight
// rematerialization — would lose its records. A blob another dataset still
// references outlives e, so only an unshared blob's pins hold e.
func (e *entry) removable() bool {
	return e.pins == 0 && (e.blob.pins == 0 || e.blob.refs > 1)
}

// evictOldestLocked removes the oldest removable dataset; false when none
// qualifies. The caller holds s.mu.
func (s *Store) evictOldestLocked() bool {
	for _, id := range s.order {
		if e := s.byID[id]; e != nil && e.removable() {
			s.removeLocked(id)
			s.evicted++
			return true
		}
	}
	return false
}

func (s *Store) removeLocked(id string) {
	e := s.byID[id]
	delete(s.byID, id)
	delete(s.byName, e.meta.Name)
	s.releaseBlobLocked(blobKey{family: e.meta.Family, hash: e.meta.Hash}, e.blob)
	keep := s.order[:0]
	for _, o := range s.order {
		if o != id {
			keep = append(keep, o)
		}
	}
	s.order = keep
}

// Resolve finds a dataset by id, name or "sha256:"-prefixed content hash
// and returns its metadata and payload, rematerializing a spilled payload
// from the blob store first. The payload's slices alias the stored records —
// callers must treat them as read-only.
func (s *Store) Resolve(idOrName string) (Dataset, Payload, error) {
	s.mu.Lock()
	e, err := s.lookupLocked(idOrName)
	if err != nil {
		s.mu.Unlock()
		return Dataset{}, Payload{}, err
	}
	meta := e.meta
	if !e.blob.spilled {
		p := e.blob.payload
		s.mu.Unlock()
		return meta, p, nil
	}
	// Spilled: take a fetch pin so the blob is neither evicted nor
	// re-spilled while the decode runs outside the lock.
	e.blob.pins++
	s.mu.Unlock()
	p, err := s.fetch(e)
	s.mu.Lock()
	e.blob.pins--
	s.reclaimLocked()
	s.mu.Unlock()
	if err != nil {
		return Dataset{}, Payload{}, err
	}
	return meta, p, nil
}

func (s *Store) lookupLocked(idOrName string) (*entry, error) {
	// Content addressing: an explicit "sha256:" prefix resolves to the
	// oldest dataset whose combined upload hash matches — the first dataset
	// registered with that content, stable under later dedup aliases.
	if hash, ok := strings.CutPrefix(idOrName, "sha256:"); ok {
		for _, id := range s.order {
			if e := s.byID[id]; e != nil && e.meta.Hash == hash {
				return e, nil
			}
		}
		return nil, fmt.Errorf("%w: %q", ErrNotFound, idOrName)
	}
	if e, ok := s.byID[idOrName]; ok {
		return e, nil
	}
	if id, ok := s.byName[idOrName]; ok {
		return s.byID[id], nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNotFound, idOrName)
}

// Pin resolves a dataset (id, name or "sha256:" hash) and marks it
// referenced by one unfinished job: pinned datasets are neither evicted,
// deleted nor spilled — the job is about to walk the returned record
// slices. Every successful Pin must be paired with an Unpin of the returned
// id when the job reaches a terminal state. A spilled payload
// rematerializes before the pin is visible as resident; pin counts are
// re-checked under the lock after the decode, so a concurrent reclaim
// cannot spill the payload a just-pinned job holds.
func (s *Store) Pin(idOrName string) (Dataset, Payload, error) {
	s.mu.Lock()
	e, err := s.lookupLocked(idOrName)
	if err != nil {
		s.mu.Unlock()
		return Dataset{}, Payload{}, err
	}
	e.pins++
	e.blob.pins++
	meta := e.meta
	if !e.blob.spilled {
		p := e.blob.payload
		s.mu.Unlock()
		return meta, p, nil
	}
	s.mu.Unlock()
	p, err := s.fetch(e)
	if err != nil {
		s.mu.Lock()
		e.pins--
		e.blob.pins--
		s.mu.Unlock()
		return Dataset{}, Payload{}, err
	}
	return meta, p, nil
}

// Unpin releases one job reference. Unknown ids are a no-op, so releasing
// after an eviction race stays safe. Dropping a blob's last pin re-runs the
// reclaim pass: the records the job held resident become spillable.
func (s *Store) Unpin(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byID[id]; ok && e.pins > 0 {
		e.pins--
		if e.blob.pins > 0 {
			e.blob.pins--
		}
		if e.blob.pins == 0 {
			s.reclaimLocked()
		}
	}
}

// Delete removes a dataset by id or name. Datasets pinned by unfinished
// jobs return ErrPinned — cancel or wait out the jobs first.
func (s *Store) Delete(idOrName string) (Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.lookupLocked(idOrName)
	if err != nil {
		return Dataset{}, err
	}
	if !e.removable() {
		return Dataset{}, fmt.Errorf("%w: %q (%d)", ErrPinned, e.meta.ID, e.blob.pins)
	}
	s.removeLocked(e.meta.ID)
	s.persistLocked()
	return e.meta, nil
}

// List returns every stored dataset's metadata, oldest first.
func (s *Store) List() []Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Dataset, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.byID[id].meta)
	}
	return out
}

// isIDShaped reports whether name matches the store's "ds-N" id pattern.
func isIDShaped(name string) bool {
	rest, ok := strings.CutPrefix(name, "ds-")
	if !ok || rest == "" {
		return false
	}
	for _, r := range rest {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// Stats reports store occupancy: datasets resident, bytes accounted
// (content-deduplicated — aliased payloads count once), and datasets
// evicted to make room since the store was built.
func (s *Store) Stats() (datasets int, bytes int64, evicted int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID), s.total, s.evicted
}

// Deduped reports how many Puts aliased an already-resident payload instead
// of storing a second copy.
func (s *Store) Deduped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deduped
}
