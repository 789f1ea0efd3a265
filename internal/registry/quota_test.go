package registry

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wantQuotaError asserts err is a *QuotaError reporting what the owner
// held when it was rejected.
func wantQuotaError(t *testing.T, err error, datasets int, bytes int64) {
	t.Helper()
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Datasets != datasets || qe.Bytes != bytes {
		t.Fatalf("err = %v, want a quota error at %d datasets / %d bytes", err, datasets, bytes)
	}
}

// TestOwnerQuota: put checks the owner's count and byte bounds in the step
// that stores the dataset, and every way a dataset leaves the store —
// delete or eviction — frees its owner's quota.
func TestOwnerQuota(t *testing.T) {
	s := NewStore(Options{MaxDatasets: 3})
	alice := Quota{Owner: "alice", MaxDatasets: 2, MaxBytes: 100}
	put := func(name string, bytes int64, q Quota) (Dataset, error) {
		return s.put(name, FeatureTable, Payload{}, testStats(bytes), nil, q)
	}

	a1, err := put("a1", 60, alice)
	if err != nil || a1.Owner != "alice" {
		t.Fatalf("a1 = %+v, %v", a1, err)
	}
	// Byte bound: 60 + 60 > 100 is rejected and stores nothing.
	_, err = put("a2", 60, alice)
	wantQuotaError(t, err, 1, 60)
	if _, err := s.Resolve("a2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rejected dataset resolves: %v", err)
	}
	// Exactly at the byte bound is accepted.
	if _, err := put("a2", 40, alice); err != nil {
		t.Fatalf("a2 at exactly the byte bound: %v", err)
	}
	if n, b := s.Owned("alice"); n != 2 || b != 100 {
		t.Fatalf("Owned(alice) = %d / %d, want 2 / 100", n, b)
	}
	// Count bound: a third dataset is rejected even at zero bytes.
	_, err = put("a3", 0, alice)
	wantQuotaError(t, err, 2, 100)

	// Unowned commits are unbounded and count against nobody's quota.
	if _, err := put("u1", 1000, Quota{MaxDatasets: 1, MaxBytes: 1}); err != nil {
		t.Fatalf("unowned put: %v", err)
	}
	if n, b := s.Owned("alice"); n != 2 || b != 100 {
		t.Fatalf("Owned(alice) after an unowned put = %d / %d", n, b)
	}

	// Eviction frees quota: the store's count bound evicts a1, the oldest.
	if _, err := put("u2", 1, Quota{}); err != nil {
		t.Fatal(err)
	}
	if _, _, evicted := s.Stats(); evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if n, b := s.Owned("alice"); n != 1 || b != 40 {
		t.Fatalf("Owned(alice) after eviction = %d / %d, want 1 / 40", n, b)
	}
	// Delete frees quota too.
	if _, err := s.Delete("a2"); err != nil {
		t.Fatal(err)
	}
	if n, b := s.Owned("alice"); n != 0 || b != 0 {
		t.Fatalf("Owned(alice) after delete = %d / %d, want 0 / 0", n, b)
	}
	if _, err := put("a4", 100, alice); err != nil {
		t.Fatalf("put after the quota freed: %v", err)
	}
}

// TestQuotaRejectionHasNoSideEffects: an over-quota put is rejected before
// content dedup or eviction, so a full store keeps every other dataset.
func TestQuotaRejectionHasNoSideEffects(t *testing.T) {
	s := NewStore(Options{MaxDatasets: 2})
	for _, name := range []string{"a1", "a2"} {
		if _, err := s.put(name, FeatureTable, Payload{}, testStats(10), nil, Quota{Owner: "alice"}); err != nil {
			t.Fatal(err)
		}
	}
	mallory := Quota{Owner: "mallory", MaxDatasets: 1, MaxBytes: 50}
	// Same content as a1: a dedup alias would take a blob reference first.
	st := Stats{Records: 1, Bytes: 60, Hash: s.List()[0].Hash}
	_, err := s.put("m1", FeatureTable, Payload{}, st, nil, mallory)
	wantQuotaError(t, err, 0, 0)
	if n, _, evicted := s.Stats(); n != 2 || evicted != 0 {
		t.Fatalf("after the rejection: %d datasets, %d evicted; want 2, 0", n, evicted)
	}
	if s.Deduped() != 0 {
		t.Fatalf("the rejected put aliased a blob")
	}
}

// TestResumableCommitOverQuota: sessions opened while the owner had room
// all pass the early check, but the commits are what count. A commit the
// pre-check rejects consumes nothing and leaves its session open; the
// manifest still names exactly the blobs on disk.
func TestResumableCommitOverQuota(t *testing.T) {
	dir := t.TempDir()
	s, m := durableStore(t, dir, 1<<20)
	q := Quota{Owner: "mallory", MaxDatasets: 1}
	var sessions []*UploadSession
	for _, name := range []string{"m1", "m2"} {
		u, err := m.Create(name, FeatureTable, q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := u.Append("data", 0, strings.NewReader(rowsBody(10))); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, u)
	}
	m1, err := sessions[0].Commit()
	if err != nil {
		t.Fatal(err)
	}
	_, err = sessions[1].Commit()
	wantQuotaError(t, err, 1, m1.Bytes)
	if _, err := m.Get(sessions[1].ID()); err != nil {
		t.Fatalf("rejected session closed: %v", err)
	}
	// At the count bound the early check fails a new session at open.
	_, err = m.Create("m3", FeatureTable, q)
	wantQuotaError(t, err, 1, m1.Bytes)
	_, err = m.Stage("m3", FeatureTable, q)
	wantQuotaError(t, err, 1, m1.Bytes)
	sessions[1].Abort()
	if n, _, _ := s.Stats(); n != 1 {
		t.Fatalf("datasets = %d, want 1", n)
	}
	assertBlobsMatchManifest(t, dir)
}

// TestOwnerSurvivesRestart: the owner persists in the manifest with the rest
// of the metadata, and a manifest entry written without one loads unowned.
func TestOwnerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, m := durableStore(t, dir, 1<<20)
	u, err := m.Create("expr", FeatureTable, Quota{Owner: "alice", MaxDatasets: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Append("data", 0, strings.NewReader(rowsBody(10))); err != nil {
		t.Fatal(err)
	}
	meta, err := u.Commit()
	if err != nil {
		t.Fatal(err)
	}

	s2, _ := durableStore(t, dir, 1<<20)
	if got, err := s2.Resolve("expr"); err != nil || got.Owner != "alice" {
		t.Fatalf("restarted meta = %+v (%v), want owner alice", got, err)
	}
	if n, b := s2.Owned("alice"); n != 1 || b != meta.Bytes {
		t.Fatalf("Owned(alice) after restart = %d / %d, want 1 / %d", n, b, meta.Bytes)
	}

	// Strip the owner, as a manifest written before owners existed.
	path := filepath.Join(dir, manifestFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc["datasets"].([]any) {
		delete(e.(map[string]any)["dataset"].(map[string]any), "Owner")
	}
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, _ := durableStore(t, dir, 1<<20)
	if got, err := s3.Resolve("expr"); err != nil || got.Owner != "" || got.ID != meta.ID {
		t.Fatalf("old-manifest meta = %+v (%v), want %s unowned", got, err, meta.ID)
	}
	if n, _ := s3.Owned("alice"); n != 0 {
		t.Fatalf("Owned(alice) over an old manifest = %d, want 0", n)
	}
}
