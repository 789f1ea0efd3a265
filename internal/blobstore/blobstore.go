// Package blobstore implements the platform's disk-backed, content-addressed
// payload store: every blob is one file named by the hex SHA-256 of its
// bytes, written through a temp file and atomically renamed into place, and
// served back through pread-style section readers so consumers slice large
// payloads without the store ever buffering them on the heap.
//
// pread over an ordinary *os.File was chosen over mmap deliberately: it is
// portable, it needs no unsafe, and the access pattern here — sequential
// re-decode of a whole part, or ranged reads by the fleet data plane — gets
// no locality win from a mapping while an mmap'd slice would pin address
// space per open blob.
//
// Reference counts are process-local; the store keeps no record of who owns
// a blob. That record is the owner's: after a restart the registry claims
// the blobs its manifest lists with AddRef, then calls Sweep, which unlinks
// every blob nobody claimed. At runtime the release that drops a blob's last
// reference unlinks its file. Open itself clears only crash debris: temp
// files from interrupted writes, and the per-blob ".ref" files earlier
// versions of the store kept.
package blobstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ErrNoBlob reports an unknown blob hash.
var ErrNoBlob = errors.New("blobstore: no such blob")

// Store is a directory of content-addressed blobs with process-local
// refcounts. Safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	dir  string
	refs map[string]int
}

// Open opens (creating if needed) the blob store rooted at dir, removing
// temp files left by interrupted writes and leftover ".ref" files. Blob files
// are kept until Sweep: a fresh Store holds no references, so its owner
// claims what it still needs first.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blobstore: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("blobstore: %w", err)
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ".ref") {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	return &Store{dir: dir, refs: make(map[string]int)}, nil
}

// Sweep unlinks every blob file that holds no reference. Called once the
// owner has claimed its blobs after Open, it reclaims bytes ingested just
// before a crash and blobs whose owner let them go.
func (s *Store) Sweep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if name := e.Name(); ValidHash(name) && s.refs[name] == 0 {
			_ = os.Remove(s.blobPath(name))
		}
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// ValidHash reports whether hash is a well-formed lowercase hex SHA-256 —
// the only names the store will touch on disk, which keeps URL-supplied
// hashes from escaping the store directory.
func ValidHash(hash string) bool {
	if len(hash) != 64 {
		return false
	}
	for i := 0; i < len(hash); i++ {
		c := hash[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) blobPath(hash string) string { return filepath.Join(s.dir, hash) }

// Write streams r into the store and returns the blob's hash and size,
// holding one reference for the caller (pass ownership on with AddRef /
// Release). The bytes spool through a temp file in the store directory and
// rename into place only once fully written and hashed, so a crash mid-write
// leaves a sweepable .tmp, never a half-blob under a valid name.
func (s *Store) Write(r io.Reader) (hash string, size int64, err error) {
	tmp, err := os.CreateTemp(s.dir, "ingest-*.tmp")
	if err != nil {
		return "", 0, fmt.Errorf("blobstore: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	h := sha256.New()
	size, err = io.Copy(io.MultiWriter(tmp, h), r)
	if err != nil {
		return "", 0, fmt.Errorf("blobstore: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return "", 0, fmt.Errorf("blobstore: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return "", 0, fmt.Errorf("blobstore: %w", err)
	}
	hash = hex.EncodeToString(h.Sum(nil))
	if err = s.Ingest(tmp.Name(), hash); err != nil {
		return "", 0, err
	}
	return hash, size, nil
}

// Ingest moves the file at path into the store as the blob named hash,
// taking one reference for the caller. The caller vouches for the hash
// (upload sessions hash while spooling); if the blob already exists the
// file is discarded and the existing blob gains the reference — the
// content-dedup path. The rename is atomic within the filesystem, which is
// what "commit atomically promotes the blob" means mechanically, so path
// must live on the same filesystem as the store (spool into Dir()).
func (s *Store) Ingest(path, hash string) error {
	if !ValidHash(hash) {
		return fmt.Errorf("blobstore: bad hash %q", hash)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := os.Stat(s.blobPath(hash)); err == nil {
		_ = os.Remove(path)
	} else if err := os.Rename(path, s.blobPath(hash)); err != nil {
		return fmt.Errorf("blobstore: %w", err)
	}
	s.refs[hash]++
	return nil
}

// AddRef takes one reference on an existing blob.
func (s *Store) AddRef(hash string) error {
	if !ValidHash(hash) {
		return fmt.Errorf("%w: %q", ErrNoBlob, hash)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := os.Stat(s.blobPath(hash)); err != nil {
		return fmt.Errorf("%w: %q", ErrNoBlob, hash)
	}
	s.refs[hash]++
	return nil
}

// Release drops one reference; dropping the last unlinks the blob. Open
// Blobs stay readable (POSIX unlink semantics). Unknown hashes are a no-op.
func (s *Store) Release(hash string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch n := s.refs[hash]; {
	case n > 1:
		s.refs[hash] = n - 1
	case n == 1:
		delete(s.refs, hash)
		_ = os.Remove(s.blobPath(hash))
	}
}

// Refs reports a blob's reference count (0 for unknown blobs).
func (s *Store) Refs(hash string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs[hash]
}

// Len reports resident blobs and their summed sizes.
func (s *Store) Len() (blobs int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for hash := range s.refs {
		if fi, err := os.Stat(s.blobPath(hash)); err == nil {
			blobs++
			bytes += fi.Size()
		}
	}
	return blobs, bytes
}

// Blob is one open blob: a pread-backed io.ReaderAt over the chunk file.
// Readers built on it slice the file without buffering it, so resident
// memory stays bounded however large the blob is. Close when done; an open
// Blob stays readable even if the blob is evicted (POSIX unlink semantics).
type Blob struct {
	f    *os.File
	size int64
}

// Get opens a blob for reading.
func (s *Store) Get(hash string) (*Blob, error) {
	if !ValidHash(hash) {
		return nil, fmt.Errorf("%w: %q", ErrNoBlob, hash)
	}
	f, err := os.Open(s.blobPath(hash))
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrNoBlob, hash)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blobstore: %w", err)
	}
	return &Blob{f: f, size: fi.Size()}, nil
}

// Size returns the blob's byte length.
func (b *Blob) Size() int64 { return b.size }

// ReadAt reads from the blob at the given offset (pread).
func (b *Blob) ReadAt(p []byte, off int64) (int, error) { return b.f.ReadAt(p, off) }

// Reader returns a sequential reader over the whole blob. Multiple readers
// are independent: each is its own section over the shared pread handle.
func (b *Blob) Reader() io.Reader { return io.NewSectionReader(b, 0, b.size) }

// Close releases the underlying file handle.
func (b *Blob) Close() error { return b.f.Close() }
