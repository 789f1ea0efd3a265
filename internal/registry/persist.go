package registry

// The registry's durable data plane. A Store built with Options.Blobs keeps
// every dataset's raw upload parts in the disk-backed content-addressed
// blob store and treats MaxBytes as a *resident-memory* budget instead of a
// hard capacity: when decoded payloads exceed the budget, the oldest
// unpinned ones spill — the records are dropped and the dataset lives on as
// its blob-store parts, re-decoded (rematerialized) on the next Resolve or
// Pin. Dataset metadata persists in a manifest JSON next to the blobs, so a
// restarted daemon resolves every committed dataset by id, name or content
// hash, rematerializing payloads lazily. The manifest is also the one
// durable record of which blobs are live: blob-store references are
// process-local, and startup claims them again from the manifest.
//
// Pinning and eviction interplay: a pinned dataset (one referenced by an
// unfinished job) is never spilled and never evicted, because jobs hold its
// record slices; spilling re-checks pin counts under the store lock *after*
// a rematerialization completes, so a pin taken while the payload was being
// decoded off disk keeps it resident. Resident accounting can therefore
// overshoot the budget by the working set of pinned datasets; it falls back
// under the budget as jobs finish and unpin.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"scan/internal/blobstore"
)

// Part is one raw upload part of a durable dataset: the blob-store hash of
// its bytes plus what a rematerializing decode needs to reproduce the
// payload fragment exactly.
type Part struct {
	// Field is the upload part name ("data", "reference", "peptides",
	// "spectra") that selects the decoder for Family.
	Field string `json:"field"`
	// Hash is the hex SHA-256 of the part's bytes — its blob-store key.
	Hash string `json:"sha256"`
	// Bytes is the part's wire size.
	Bytes int64 `json:"bytes"`
	// Records is the part's decoded record count, replayed as the exact
	// decode limit on rematerialization.
	Records int `json:"records"`
}

// manifestEntry is one dataset in the on-disk manifest.
type manifestEntry struct {
	Dataset Dataset `json:"dataset"`
	Parts   []Part  `json:"parts"`
}

// storeManifest is the manifest.json schema: enough to rebuild the
// registry's metadata maps, with payload bytes living in the blob store.
type storeManifest struct {
	Next     int             `json:"next"`
	Datasets []manifestEntry `json:"datasets"`
}

const manifestFile = "manifest.json"

// reclaimLocked spills oldest-first until resident payload bytes fit the
// budget. Only durable, unpinned, resident blobs qualify: a spilled blob's
// records are reachable solely through its blob-store parts, so anything a
// job still points at (pins > 0) must stay. The caller holds s.mu.
func (s *Store) reclaimLocked() {
	if s.disk == nil || s.total <= s.maxB {
		return
	}
	for _, id := range s.order {
		e := s.byID[id]
		if e == nil {
			continue
		}
		b := e.blob
		if b.spilled || b.parts == nil || b.pins > 0 {
			continue
		}
		b.payload = Payload{}
		b.spilled = true
		s.total -= b.bytes
		s.spilled++
		if s.total <= s.maxB {
			return
		}
	}
}

// fetch rematerializes a spilled blob by re-decoding its parts from the
// blob store. The caller must hold a fetch pin (blob.pins) and NOT hold
// s.mu; fetchMu collapses concurrent fetches of the same blob into one
// decode. After the decode, pin counts and the budget are re-checked under
// the store lock — the decoded payload is installed and accounted, and the
// reclaim pass runs again, because pins and puts may have moved while the
// decode ran unlocked.
func (s *Store) fetch(e *entry) (Payload, error) {
	b := e.blob
	b.fetchMu.Lock()
	defer b.fetchMu.Unlock()
	s.mu.Lock()
	if !b.spilled {
		p := b.payload
		s.mu.Unlock()
		return p, nil
	}
	parts := b.parts
	family := e.meta.Family
	s.mu.Unlock()

	var payload Payload
	for _, pt := range parts {
		if err := s.decodePartFromDisk(&payload, family, pt); err != nil {
			return Payload{}, err
		}
	}

	s.mu.Lock()
	if b.spilled {
		b.payload = payload
		b.spilled = false
		s.total += b.bytes
		s.remats++
		s.reclaimLocked()
	}
	p := b.payload
	s.mu.Unlock()
	return p, nil
}

// decodePartFromDisk streams one stored part through its family decoder.
// The limits replay the recorded record count exactly — Limits treats
// MaxRecords 0 as "reject everything", so the stored count (always >= 1 for
// a committed part) must be passed explicitly — and leave bytes unbounded:
// the part's size was bounded at upload time and is fixed on disk.
func (s *Store) decodePartFromDisk(payload *Payload, family Family, pt Part) error {
	bl, err := s.disk.Get(pt.Hash)
	if err != nil {
		return fmt.Errorf("registry: rematerializing part %q: %w", pt.Field, err)
	}
	defer bl.Close()
	lim := Limits{MaxRecords: pt.Records}
	if _, err := DecodeUploadPart(payload, family, pt.Field, bl.Reader(), lim); err != nil {
		return fmt.Errorf("registry: rematerializing part %q: %w", pt.Field, err)
	}
	return nil
}

// persistLocked rewrites the manifest atomically. Only durable datasets
// (those with blob-store parts) are recorded: a heap-only Put on a durable
// store is legal but cannot be rebuilt after a restart. Persistence errors
// are logged and otherwise ignored — the in-memory store stays
// authoritative. The caller holds s.mu.
func (s *Store) persistLocked() {
	if s.dir == "" {
		return
	}
	m := storeManifest{Next: s.next, Datasets: []manifestEntry{}}
	for _, id := range s.order {
		e := s.byID[id]
		if e == nil || e.blob.parts == nil {
			continue
		}
		m.Datasets = append(m.Datasets, manifestEntry{Dataset: e.meta, Parts: e.blob.parts})
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		s.logf("registry: encoding manifest: %v", err)
		return
	}
	tmp := filepath.Join(s.dir, manifestFile+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		s.logf("registry: writing manifest: %v", err)
		return
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestFile)); err != nil {
		os.Remove(tmp)
		s.logf("registry: writing manifest: %v", err)
	}
}

// loadManifest rebuilds dataset metadata from the manifest — the one
// durable record of which blobs are live. Each rebuilt blob claims its
// parts in the blob store; a dataset whose part is missing
// (blobstore.ErrNoBlob) is dropped, and a corrupt manifest loads as empty.
// The blob store then sweeps every blob nobody claimed — e.g. an upload
// ingested right before a crash that never reached commit. Every rebuilt
// blob starts spilled; payloads decode on first use. Called from NewStore
// before the store is shared.
func (s *Store) loadManifest() {
	// Claims a dropped dataset took are released only once every surviving
	// dataset holds its own: releasing the last claim unlinks the blob.
	var dropped []Part
	defer func() {
		for _, p := range dropped {
			s.disk.Release(p.Hash)
		}
		s.disk.Sweep()
	}()
	raw, err := os.ReadFile(filepath.Join(s.dir, manifestFile))
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		s.logf("registry: reading manifest: %v", err)
		return
	}
	var m storeManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		s.logf("registry: corrupt manifest, starting empty: %v", err)
		return
	}
	if m.Next > s.next {
		s.next = m.Next
	}
	for _, me := range m.Datasets {
		d := me.Dataset
		if d.ID == "" || d.Name == "" || len(me.Parts) == 0 {
			continue
		}
		if _, dup := s.byID[d.ID]; dup {
			continue
		}
		if _, dup := s.byName[d.Name]; dup {
			continue
		}
		key := blobKey{family: d.Family, hash: d.Hash}
		b := s.blobs[key]
		if b != nil {
			b.refs++
		} else {
			if claimed, err := s.claim(me.Parts); err != nil {
				s.logf("registry: dropping dataset %s (%s): %v", d.ID, d.Name, err)
				dropped = append(dropped, claimed...)
				continue
			}
			b = &blob{bytes: d.Bytes, refs: 1, parts: me.Parts, spilled: true}
			if d.Hash != "" {
				s.blobs[key] = b
			}
		}
		s.byID[d.ID] = &entry{meta: d, blob: b}
		s.byName[d.Name] = d.ID
		s.order = append(s.order, d.ID)
	}
	if len(s.order) < len(m.Datasets) {
		s.mu.Lock()
		s.persistLocked() // record the healed state
		s.mu.Unlock()
	}
}

// claim takes one blob-store reference per part. On a missing part it
// returns the parts it did claim along with the error.
func (s *Store) claim(parts []Part) ([]Part, error) {
	for i, p := range parts {
		if err := s.disk.AddRef(p.Hash); err != nil {
			return parts[:i], err
		}
	}
	return nil, nil
}

// validateName applies the dataset name rules (shared with Create).
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("registry: dataset needs a name")
	}
	if isIDShaped(name) {
		return fmt.Errorf("registry: name %q is reserved for dataset ids", name)
	}
	if strings.HasPrefix(name, "sha256:") {
		return fmt.Errorf("registry: name %q is reserved for content addressing", name)
	}
	if strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("registry: name %q must not contain path separators", name)
	}
	return nil
}

// Blobs exposes the attached blob store (nil when the store is heap-only) —
// the daemon hands it to the fleet coordinator so workers fetch dataset
// parts from the same content-addressed plane the registry persists into.
func (s *Store) Blobs() *blobstore.Store { return s.disk }

// Resident reports the decoded payload bytes currently accounted against
// the MaxBytes budget, plus how many blobs have spilled to disk and how
// many were rematerialized since the store was built.
func (s *Store) Resident() (bytes int64, spilled, remats int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total, s.spilled, s.remats
}
