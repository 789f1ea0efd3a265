package blobstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestWriteGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("spill me to disk\n"), 1000)
	hash, size, err := s.Write(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(payload)) {
		t.Fatalf("size = %d, want %d", size, len(payload))
	}
	sum := sha256.Sum256(payload)
	if want := hex.EncodeToString(sum[:]); hash != want {
		t.Fatalf("hash = %s, want %s", hash, want)
	}
	if got := s.Refs(hash); got != 1 {
		t.Fatalf("refs = %d, want 1", got)
	}
	b, err := s.Get(hash)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := io.ReadAll(b.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload round-trip mismatch")
	}
	// Ranged pread.
	mid := make([]byte, 7)
	if _, err := b.ReadAt(mid, 17); err != nil {
		t.Fatal(err)
	}
	if string(mid) != string(payload[17:24]) {
		t.Fatalf("ReadAt = %q", mid)
	}
}

func TestDedupAndRefcountLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hash, _, err := s.Write(strings.NewReader("same bytes"))
	if err != nil {
		t.Fatal(err)
	}
	// Second write of identical content dedups onto the same blob.
	hash2, _, err := s.Write(strings.NewReader("same bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if hash != hash2 {
		t.Fatalf("dedup split hashes: %s vs %s", hash, hash2)
	}
	if got := s.Refs(hash); got != 2 {
		t.Fatalf("refs = %d, want 2", got)
	}
	if err := s.AddRef(hash); err != nil {
		t.Fatal(err)
	}
	s.Release(hash)
	s.Release(hash)
	if _, err := s.Get(hash); err != nil {
		t.Fatalf("blob evicted while referenced: %v", err)
	}
	s.Release(hash)
	if _, err := s.Get(hash); err == nil {
		t.Fatal("blob survived its last release")
	}
	if got := dirNames(t, dir); len(got) != 0 {
		t.Fatalf("files after eviction = %v", got)
	}
}

// TestOpenClearsCrashDebris: Open removes interrupted writes and the
// ".ref" files earlier stores kept, but leaves every blob file for the
// owner to claim — a fresh store holds no references.
func TestOpenClearsCrashDebris(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hash, _, err := s.Write(strings.NewReader("durable"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ingest-zz.tmp", hash + ".ref", hash + ".ref.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("3"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Refs(hash); got != 0 {
		t.Fatalf("reopened refs = %d, want 0 (refcounts are process-local)", got)
	}
	if got := dirNames(t, dir); len(got) != 1 || got[0] != hash {
		t.Fatalf("files after Open = %v, want only the blob", got)
	}
}

// TestSweepUnlinksUnclaimedBlobs: after Open, the blobs the owner claims
// survive Sweep and every other blob file goes.
func TestSweepUnlinksUnclaimedBlobs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep, _, err := s.Write(strings.NewReader("claimed"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Write(strings.NewReader("orphaned")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "uploads"), 0o755); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AddRef(keep); err != nil {
		t.Fatal(err)
	}
	if err := s2.AddRef(strings.Repeat("0", 64)); !errors.Is(err, ErrNoBlob) {
		t.Fatalf("AddRef of a missing blob: %v", err)
	}
	s2.Sweep()
	if got := dirNames(t, dir); len(got) != 2 || got[0] != keep || got[1] != "uploads" {
		t.Fatalf("files after Sweep = %v, want the claimed blob and the uploads dir", got)
	}
	s2.Release(keep)
	if got := dirNames(t, dir); len(got) != 1 {
		t.Fatalf("files after the last release = %v", got)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestRejectsBadHashes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"", "short", "../../etc/passwd", strings.Repeat("Z", 64)} {
		if _, err := s.Get(h); err == nil {
			t.Fatalf("Get(%q) accepted", h)
		}
		if err := s.Ingest("nowhere", h); err == nil {
			t.Fatalf("Ingest(%q) accepted", h)
		}
	}
}

func TestConcurrentWriteReleaseRace(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				hash, _, err := s.Write(strings.NewReader("contended content"))
				if err != nil {
					t.Error(err)
					return
				}
				if b, err := s.Get(hash); err == nil {
					_, _ = io.ReadAll(b.Reader())
					b.Close()
				}
				s.Release(hash)
			}
		}()
	}
	wg.Wait()
}
