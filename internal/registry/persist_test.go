package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"scan/internal/blobstore"
)

// durableStore builds a blob-store-backed registry in dir with the given
// resident budget, plus an upload manager spooling under its blobs.
func durableStore(t *testing.T, dir string, maxBytes int64) (*Store, *UploadManager) {
	t.Helper()
	bs, err := blobstore.Open(dir + "/blobs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(Options{MaxBytes: maxBytes, Blobs: bs, Dir: dir, Logf: t.Logf})
	m, err := NewUploadManager(UploadConfig{
		Store: s,
		LimitsFor: func(Family, string) Limits {
			return Limits{MaxRecords: 100000, MaxBytes: 1 << 20}
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// uploadRows commits one feature-table dataset of n rows through the
// resumable path and returns its metadata.
func uploadRows(t *testing.T, m *UploadManager, name string, n int) Dataset {
	t.Helper()
	u, err := m.Create(name, FeatureTable, Quota{})
	if err != nil {
		t.Fatal(err)
	}
	body := rowsBody(n)
	if _, err := u.Append("data", 0, strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	meta, err := u.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

func rowsBody(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "gene%05d %d.5\n", i, i)
	}
	return b.String()
}

// assertBlobsMatchManifest checks the manifest is the one record of what is
// durable: the blob files under dir are exactly its datasets' part hashes,
// and no other file (such as a per-blob ".ref") sits beside them.
func assertBlobsMatchManifest(t *testing.T, dir string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var m storeManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, me := range m.Datasets {
		for _, p := range me.Parts {
			want[p.Hash] = true
		}
	}
	if got := blobFiles(t, dir); !maps.Equal(got, want) {
		t.Fatalf("blob files %v, want the manifest's part hashes %v", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
	}
}

// blobFiles lists the files in dir's blob store.
func blobFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			got[e.Name()] = true
		}
	}
	return got
}

func TestDurablePutSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, m := durableStore(t, dir, 1<<20)
	meta := uploadRows(t, m, "expr", 100)
	if meta.Records != 100 {
		t.Fatalf("records = %d", meta.Records)
	}
	// Resolvable by id, name and content hash before the restart.
	for _, key := range []string{meta.ID, "expr", "sha256:" + meta.Hash} {
		if _, err := s.Resolve(key); err != nil {
			t.Fatalf("Resolve(%q): %v", key, err)
		}
	}

	// "Restart": reopen the blob store and registry over the same dir.
	s2, _ := durableStore(t, dir, 1<<20)
	assertBlobsMatchManifest(t, dir)
	got, payload, err := s2.Pin("sha256:" + meta.Hash)
	if err != nil {
		t.Fatal(err)
	}
	s2.Unpin(got.ID)
	if got.ID != meta.ID || got.Name != "expr" || got.Records != 100 {
		t.Fatalf("restarted meta = %+v, want %+v", got, meta)
	}
	if len(payload.Features) != 100 || payload.Features[42].Name != "gene00042" {
		t.Fatalf("rematerialized payload wrong: %d rows", len(payload.Features))
	}
	if _, spilled, remats := s2.Resident(); spilled != 0 || remats != 1 {
		t.Fatalf("spilled=%d remats=%d, want 0/1", spilled, remats)
	}
}

func TestOversizePayloadSpills(t *testing.T) {
	dir := t.TempDir()
	s, m := durableStore(t, dir, 64) // budget far below one dataset
	meta := uploadRows(t, m, "big", 50)
	if meta.Bytes <= 64 {
		t.Fatalf("test needs an oversize dataset, got %d bytes", meta.Bytes)
	}
	// Over budget and unpinned: the new blob spilled immediately.
	if resident, spilled, _ := s.Resident(); resident != 0 || spilled != 1 {
		t.Fatalf("resident=%d spilled=%d, want 0/1", resident, spilled)
	}
	// Resolve reads the metadata alone: nothing rematerializes.
	if got, err := s.Resolve("big"); err != nil || got.Records != 50 {
		t.Fatalf("Resolve = %+v, %v", got, err)
	}
	if _, _, remats := s.Resident(); remats != 0 {
		t.Fatalf("remats=%d after Resolve, want 0", remats)
	}
	// Pin rematerializes; once unpinned, the blob spills again.
	_, payload, err := s.Pin("big")
	if err != nil {
		t.Fatal(err)
	}
	if len(payload.Features) != 50 {
		t.Fatalf("rematerialized %d rows", len(payload.Features))
	}
	s.Unpin(meta.ID)
	if resident, _, _ := s.Resident(); resident != 0 {
		t.Fatalf("resident=%d after Unpin, want 0", resident)
	}
	// A pinned dataset stays resident even over budget...
	if _, _, err := s.Pin("big"); err != nil {
		t.Fatal(err)
	}
	if resident, _, _ := s.Resident(); resident != meta.Bytes {
		t.Fatalf("resident=%d while pinned, want %d", resident, meta.Bytes)
	}
	// ...and spills once the job unpins.
	s.Unpin(meta.ID)
	if resident, _, _ := s.Resident(); resident != 0 {
		t.Fatalf("resident=%d after unpin, want 0", resident)
	}
}

func TestSpillPrefersOldestAndSkipsPinned(t *testing.T) {
	dir := t.TempDir()
	s, m := durableStore(t, dir, 1<<20)
	old := uploadRows(t, m, "old", 10)
	newer := uploadRows(t, m, "newer", 12)
	// Pin the oldest, then shrink the effective budget by uploading until
	// reclaim has to act: only the unpinned newer dataset may spill.
	if _, _, err := s.Pin("old"); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.maxB = old.Bytes // room for the pinned one alone
	s.reclaimLocked()
	s.mu.Unlock()
	s.mu.Lock()
	oldSpilled := s.byID[old.ID].blob.spilled
	newerSpilled := s.byID[newer.ID].blob.spilled
	s.mu.Unlock()
	if oldSpilled || !newerSpilled {
		t.Fatalf("old spilled=%v newer spilled=%v; want pinned old resident, newer spilled", oldSpilled, newerSpilled)
	}
}

func TestDeleteReleasesBlobFiles(t *testing.T) {
	dir := t.TempDir()
	s, m := durableStore(t, dir, 1<<20)
	meta := uploadRows(t, m, "gone", 10)
	blobs := s.Blobs()
	if n, _ := blobs.Len(); n != 1 {
		t.Fatalf("blob files = %d, want 1", n)
	}
	if _, err := s.Delete(meta.ID); err != nil {
		t.Fatal(err)
	}
	if n, _ := blobs.Len(); n != 0 {
		t.Fatalf("blob files after delete = %d, want 0", n)
	}
	// And the manifest no longer resurrects it.
	s2, _ := durableStore(t, dir, 1<<20)
	assertBlobsMatchManifest(t, dir)
	if _, err := s2.Resolve("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted dataset resurrected: %v", err)
	}
}

func TestManifestSelfHealsMissingBlobs(t *testing.T) {
	dir := t.TempDir()
	s, m := durableStore(t, dir, 1<<20)
	keep := uploadRows(t, m, "keep", 10)
	lose := uploadRows(t, m, "lose", 20)
	// Sabotage: delete the second dataset's blob out from under the store,
	// simulating disk damage.
	s.mu.Lock()
	loseParts := s.byID[lose.ID].blob.parts
	s.mu.Unlock()
	for _, p := range loseParts {
		s.Blobs().Release(p.Hash)
	}

	s2, _ := durableStore(t, dir, 1<<20)
	assertBlobsMatchManifest(t, dir)
	if _, err := s2.Resolve("keep"); err != nil {
		t.Fatalf("intact dataset lost: %v", err)
	}
	if _, err := s2.Resolve("lose"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("damaged dataset should drop, got %v", err)
	}
	if _, err := s2.Resolve(keep.ID); err != nil {
		t.Fatal(err)
	}
}

// TestDroppedDatasetKeepsSharedParts: two datasets share a part (the same
// reference genome) but not their reads. Losing the first one's reads blob
// drops it at startup, and must not unlink the shared part the second
// dataset still needs.
func TestDroppedDatasetKeepsSharedParts(t *testing.T) {
	dir := t.TempDir()
	s, m := durableStore(t, dir, 1<<20)
	var metas []Dataset
	for i, reads := range []string{"@r1\nACGT\n+\nIIII\n", "@r2\nCGTA\n+\nIIII\n"} {
		u, err := m.Create(fmt.Sprintf("sample%d", i), FASTQ, Quota{})
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range [][2]string{{"reference", ">chr1\nACGTACGTACGTACGT\n"}, {"data", reads}} {
			if _, err := u.Append(part[0], 0, strings.NewReader(part[1])); err != nil {
				t.Fatal(err)
			}
		}
		meta, err := u.Commit()
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, meta)
	}
	s.mu.Lock()
	parts := s.byID[metas[0].ID].blob.parts
	s.mu.Unlock()
	for _, p := range parts {
		if p.Field == "data" {
			if err := os.Remove(filepath.Join(dir, "blobs", p.Hash)); err != nil {
				t.Fatal(err)
			}
		}
	}

	s2, _ := durableStore(t, dir, 1<<20)
	if _, err := s2.Resolve(metas[0].ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dataset with a lost part should drop, got %v", err)
	}
	if _, payload, err := s2.Pin(metas[1].ID); err != nil || payload.Ref.Len() == 0 || len(payload.Reads) != 1 {
		t.Fatalf("intact dataset sharing the reference part: %v", err)
	}
	s2.Unpin(metas[1].ID)
	assertBlobsMatchManifest(t, dir)
}

func TestReconcileReleasesOrphanedIngests(t *testing.T) {
	dir := t.TempDir()
	s, m := durableStore(t, dir, 1<<20)
	uploadRows(t, m, "committed", 10)
	// A crash between ingest and commit: a blob nothing in the manifest owns.
	hash, _, err := s.Blobs().Write(strings.NewReader("orphaned upload bytes"))
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := durableStore(t, dir, 1<<20)
	if _, err := os.Stat(filepath.Join(s2.Blobs().Dir(), hash)); !os.IsNotExist(err) {
		t.Fatalf("orphaned ingest survived the startup sweep: %v", err)
	}
	assertBlobsMatchManifest(t, dir)
}

// TestUnreadableManifestDeletesNothing: a manifest that exists but does not
// parse may still name every blob. Reopening leaves the file and every blob
// as they are, and the store runs without persistence: a later commit
// rewrites no manifest, and a second reopen sweeps nothing.
func TestUnreadableManifestDeletesNothing(t *testing.T) {
	dir := t.TempDir()
	_, m := durableStore(t, dir, 1<<20)
	uploadRows(t, m, "expr", 100)
	path := filepath.Join(dir, manifestFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	truncated := raw[:len(raw)/2]
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	before := blobFiles(t, dir)
	if len(before) == 0 {
		t.Fatal("the upload left no blob file")
	}
	assertUntouched := func(stage string, wantBlobs int) {
		t.Helper()
		got := blobFiles(t, dir)
		for h := range before {
			if !got[h] {
				t.Fatalf("%s: blob %s was deleted", stage, h)
			}
		}
		if len(got) != wantBlobs {
			t.Fatalf("%s: %d blob files, want %d", stage, len(got), wantBlobs)
		}
		if now, err := os.ReadFile(path); err != nil || string(now) != string(truncated) {
			t.Fatalf("%s: manifest rewritten (err %v)", stage, err)
		}
	}

	s2, m2 := durableStore(t, dir, 1<<20)
	if n := len(s2.List()); n != 0 {
		t.Fatalf("store over an unreadable manifest lists %d datasets, want 0", n)
	}
	assertUntouched("reopen", len(before))
	uploadRows(t, m2, "more", 10)
	assertUntouched("commit", len(before)+1)
	durableStore(t, dir, 1<<20)
	assertUntouched("second reopen", len(before)+1)
}

// TestOpensRefFileLayout: a data dir written by a store that kept a
// "<hash>.ref" refcount file beside every blob opens cleanly. The manifest
// alone decides what is live: every dataset resolves, an unlisted blob is
// swept despite its ref file, and no ref file remains.
func TestOpensRefFileLayout(t *testing.T) {
	dir := t.TempDir()
	_, m := durableStore(t, dir, 1<<20)
	var metas []Dataset
	for _, name := range []string{"rows", "alias", "other"} {
		n := 10
		if name == "other" {
			n = 12
		}
		metas = append(metas, uploadRows(t, m, name, n))
	}
	u, err := m.Create("spectra", MGF, Quota{})
	if err != nil {
		t.Fatal(err)
	}
	for field, body := range map[string]string{"peptides": "prot pep 10.5\n", "spectra": "BEGIN IONS\n100.5\nEND IONS\n"} {
		if _, err := u.Append(field, 0, strings.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	mgf, err := u.Commit()
	if err != nil {
		t.Fatal(err)
	}
	metas = append(metas, mgf)
	blobs := filepath.Join(dir, "blobs")
	orphan := strings.Repeat("0", 63) + "a"
	files := map[string]string{orphan: "junk", orphan + ".ref": "1", strings.Repeat("1", 64) + ".ref": "3"}
	entries, err := os.ReadDir(blobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && e.Name() != orphan {
			files[e.Name()+".ref"] = "2"
		}
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(blobs, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, _ := durableStore(t, dir, 1<<20)
	for _, meta := range metas {
		for _, key := range []string{meta.ID, meta.Name, "sha256:" + meta.Hash} {
			got, payload, err := s2.Pin(key)
			if err != nil {
				t.Fatalf("Pin(%q): %v", key, err)
			}
			if got.Records != meta.Records || len(payload.Features)+len(payload.Spectra) != meta.Records {
				t.Fatalf("Pin(%q) = %+v, want %d records", key, got, meta.Records)
			}
			s2.Unpin(got.ID)
		}
	}
	if refs, _ := filepath.Glob(filepath.Join(blobs, "*.ref")); len(refs) != 0 {
		t.Fatalf("ref files survived Open: %v", refs)
	}
	assertBlobsMatchManifest(t, dir)
}

func TestHashResolutionPicksOldest(t *testing.T) {
	dir := t.TempDir()
	s, m := durableStore(t, dir, 1<<20)
	first := uploadRows(t, m, "first", 10)
	second := uploadRows(t, m, "second", 10) // identical content → same hash
	if first.Hash != second.Hash {
		t.Fatal("expected identical hashes")
	}
	got, err := s.Resolve("sha256:" + first.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != first.ID {
		t.Fatalf("hash resolved to %s, want oldest %s", got.ID, first.ID)
	}
	if s.Deduped() != 1 {
		t.Fatalf("deduped = %d, want 1", s.Deduped())
	}
}

func TestReservedNames(t *testing.T) {
	s := NewStore(Options{})
	_, err := s.Put("sha256:abc", FeatureTable, Payload{}, Stats{Records: 1, Bytes: 1})
	if err == nil || !strings.Contains(err.Error(), "content addressing") {
		t.Fatalf("sha256: name accepted: %v", err)
	}
}

// TestConcurrentPinEvictSpillStress drives pins, resolves, uploads and
// deletes against a budget small enough that every resolve rematerializes
// and every commit spills — run under -race this is the regression test for
// the eviction/pin/spill interleavings (a reclaim racing a
// rematerialization must never spill a payload a pinned job just received).
func TestConcurrentPinEvictSpillStress(t *testing.T) {
	dir := t.TempDir()
	s, m := durableStore(t, dir, 100) // everything spills when unpinned
	const datasets = 4
	for i := 0; i < datasets; i++ {
		uploadRows(t, m, fmt.Sprintf("ds%d", i), 20+i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("ds%d", g%datasets)
			for i := 0; i < 30; i++ {
				switch i % 3 {
				case 0:
					meta, payload, err := s.Pin(name)
					if err != nil {
						t.Errorf("Pin(%s): %v", name, err)
						return
					}
					// The satellite fix under test: the payload handed to a
					// pinned job must be materialized, however the reclaim
					// pass interleaved.
					if len(payload.Features) != meta.Records {
						t.Errorf("pinned %s: %d rows, want %d", name, len(payload.Features), meta.Records)
					}
					s.Unpin(meta.ID)
				case 1:
					if meta, err := s.Resolve(name); err != nil {
						t.Errorf("Resolve(%s): %v", name, err)
					} else if meta.Records == 0 {
						t.Errorf("Resolve(%s): no records", name)
					}
				case 2:
					extra := fmt.Sprintf("tmp-%d-%d", g, i)
					u, err := m.Create(extra, FeatureTable, Quota{})
					if err != nil {
						continue // session table full under contention
					}
					if _, err := u.Append("data", 0, strings.NewReader(rowsBody(5))); err != nil {
						t.Errorf("Append: %v", err)
						u.Abort()
						continue
					}
					if _, err := u.Commit(); err != nil {
						t.Errorf("Commit(%s): %v", extra, err)
						continue
					}
					if _, err := s.Delete(extra); err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrPinned) {
						t.Errorf("Delete(%s): %v", extra, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Steady state: nothing pinned, so resident accounting is back under
	// the budget.
	if resident, _, _ := s.Resident(); resident > 100 {
		t.Fatalf("resident=%d > budget after quiesce", resident)
	}
}
