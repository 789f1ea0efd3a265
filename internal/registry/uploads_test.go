package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// heapManager builds an upload manager over a heap-only store (no blob
// store): the session machinery must work without persistence configured.
func heapManager(t *testing.T) (*Store, *UploadManager) {
	t.Helper()
	s := NewStore(Options{})
	m, err := NewUploadManager(UploadConfig{
		Store: s,
		LimitsFor: func(Family, string) Limits {
			return Limits{MaxRecords: 1000, MaxBytes: 1 << 16}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return s, m
}

// failAfter returns a reader that yields the first n bytes of s and then
// fails — a mid-chunk disconnect.
type failAfter struct {
	r    io.Reader
	left int
}

func (f *failAfter) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errors.New("connection reset")
	}
	if len(p) > f.left {
		p = p[:f.left]
	}
	n, err := f.r.Read(p)
	f.left -= n
	return n, err
}

func TestUploadSessionResumeAfterDisconnect(t *testing.T) {
	s, m := heapManager(t)
	u, err := m.Create("rows", FeatureTable, Quota{})
	if err != nil {
		t.Fatal(err)
	}
	body := rowsBody(40)

	// First append dies 100 bytes in; those 100 bytes must stick.
	size, err := u.Append("data", 0, &failAfter{r: strings.NewReader(body), left: 100})
	if err == nil {
		t.Fatal("expected the disconnect to surface")
	}
	if size != 100 {
		t.Fatalf("retained %d bytes, want 100", size)
	}

	// The running hash covers exactly the retained prefix.
	st := u.Status()
	if len(st.Parts) != 1 || st.Parts[0].Size != 100 {
		t.Fatalf("status = %+v", st.Parts)
	}
	sum := sha256.Sum256([]byte(body[:100]))
	if st.Parts[0].SHA256 != hex.EncodeToString(sum[:]) {
		t.Fatal("running hash does not match the retained prefix")
	}

	// A resume at the wrong offset is rejected with the real size.
	if _, err := u.Append("data", 0, strings.NewReader(body)); err == nil {
		t.Fatal("offset 0 re-append accepted")
	} else {
		var oe *OffsetError
		if !errors.As(err, &oe) || oe.Size != 100 {
			t.Fatalf("want OffsetError{Size:100}, got %v", err)
		}
	}

	// Resume from the verified offset and commit.
	if _, err := u.Append("data", 100, strings.NewReader(body[100:])); err != nil {
		t.Fatal(err)
	}
	meta, err := u.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Records != 40 {
		t.Fatalf("records = %d, want 40", meta.Records)
	}
	// The committed hash equals a one-shot upload's hash of the same bytes.
	whole := sha256.Sum256([]byte(body))
	if meta.Hash != hex.EncodeToString(whole[:]) {
		t.Fatal("committed hash differs from the one-shot hash")
	}
	if _, _, err := s.Resolve("rows"); err != nil {
		t.Fatal(err)
	}
	// The session is gone.
	if _, err := m.Get(u.ID()); !errors.Is(err, ErrNoUpload) {
		t.Fatalf("committed session still listed: %v", err)
	}
}

func TestUploadCommitValidationKeepsSession(t *testing.T) {
	_, m := heapManager(t)
	u, err := m.Create("mgfset", MGF, Quota{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Append("peptides", 0, strings.NewReader("prot pep 10.5\n")); err != nil {
		t.Fatal(err)
	}
	// Missing the spectra part: commit fails, session survives for resume.
	if _, err := u.Commit(); err == nil || !strings.Contains(err.Error(), `"peptides" and "spectra"`) {
		t.Fatalf("want missing-part error, got %v", err)
	}
	if _, err := m.Get(u.ID()); err != nil {
		t.Fatalf("session gone after validation failure: %v", err)
	}
	if _, err := u.Append("spectra", 0, strings.NewReader("BEGIN IONS\n100.5\nEND IONS\n")); err != nil {
		t.Fatal(err)
	}
	meta, err := u.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Family != MGF || meta.Records != 1 {
		t.Fatalf("meta = %+v", meta)
	}
}

func TestUploadRejectsUnknownFieldAndDuplicateName(t *testing.T) {
	s, m := heapManager(t)
	if _, err := s.Put("taken", FeatureTable, Payload{Features: nil}, Stats{Records: 1, Bytes: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("taken", FeatureTable, Quota{}); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("want ErrDuplicateName, got %v", err)
	}
	u, err := m.Create("fresh", FeatureTable, Quota{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Append("spectra", 0, strings.NewReader("x")); err == nil ||
		!strings.Contains(err.Error(), `unexpected part "spectra" for family "feature-table"`) {
		t.Fatalf("unknown field accepted: %v", err)
	}
	u.Abort()
}

func TestUploadAbortRemovesSpools(t *testing.T) {
	_, m := heapManager(t)
	u, err := m.Create("tmp", FeatureTable, Quota{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Append("data", 0, strings.NewReader("g0 1.5\n")); err != nil {
		t.Fatal(err)
	}
	spools, _ := filepath.Glob(filepath.Join(m.dir, "*.part"))
	if len(spools) != 1 {
		t.Fatalf("spools = %v", spools)
	}
	u.Abort()
	spools, _ = filepath.Glob(filepath.Join(m.dir, "*.part"))
	if len(spools) != 0 {
		t.Fatalf("spools after abort = %v", spools)
	}
	if _, err := u.Append("data", 7, strings.NewReader("more")); !errors.Is(err, ErrNoUpload) {
		t.Fatalf("append on aborted session: %v", err)
	}
}

func TestUploadByteCapMatchesDecoderWording(t *testing.T) {
	s := NewStore(Options{})
	m, err := NewUploadManager(UploadConfig{
		Store: s,
		LimitsFor: func(Family, string) Limits {
			return Limits{MaxRecords: 1000, MaxBytes: 32}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	u, err := m.Create("capped", FeatureTable, Quota{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = u.Append("data", 0, strings.NewReader(strings.Repeat("g0 1.5\n", 10)))
	if !errors.Is(err, ErrTooLarge) || !strings.Contains(err.Error(), "body larger than 32 bytes") {
		t.Fatalf("cap error = %v", err)
	}
	u.Abort()
}

func TestNewUploadManagerSweepsStaleSpools(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "blobs", "uploads", "up-9-data.part")
	if err := os.MkdirAll(filepath.Dir(stale), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, []byte("left by a dead process"), 0o600); err != nil {
		t.Fatal(err)
	}
	_, m := durableStore(t, dir, 1<<20)
	if m.dir != filepath.Dir(stale) {
		t.Fatalf("durable spool dir = %s, want %s", m.dir, filepath.Dir(stale))
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale spool survived manager startup")
	}
	// A heap-only store spools in a private directory Close removes.
	_, heap := heapManager(t)
	heap.Close()
	if _, err := os.Stat(heap.dir); !os.IsNotExist(err) {
		t.Fatalf("private spool dir %s survived Close: %v", heap.dir, err)
	}
}

// TestResumableTIFFMatchesOneShot: frames decode into a resident footprint
// larger than their wire size. The spool check compares wire bytes, so a
// resumable upload commits — and both paths account the same dataset.
func TestResumableTIFFMatchesOneShot(t *testing.T) {
	_, m := durableStore(t, t.TempDir(), 1<<20)
	body := pgmFrame(32, 32, 1) + pgmFrame(32, 32, 7)

	one, err := m.Create("one-shot", TIFF, Quota{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.AppendDecoded("data", strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	want, err := one.Commit()
	if err != nil {
		t.Fatal(err)
	}

	res, err := m.Create("resumable", TIFF, Quota{})
	if err != nil {
		t.Fatal(err)
	}
	half := len(body) / 2
	if _, err := res.Append("data", 0, strings.NewReader(body[:half])); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Append("data", int64(half), strings.NewReader(body[half:])); err != nil {
		t.Fatal(err)
	}
	got, err := res.Commit()
	if err != nil {
		t.Fatalf("resumable TIFF commit: %v", err)
	}

	if got.Hash != want.Hash || got.Records != want.Records || got.Bytes != want.Bytes {
		t.Fatalf("resumable = {%s %d %d}, one-shot = {%s %d %d}",
			got.Hash, got.Records, got.Bytes, want.Hash, want.Records, want.Bytes)
	}
	if resident := int64(2 * 32 * 32 * 8); got.Bytes != resident || resident <= int64(len(body)) {
		t.Fatalf("Dataset.Bytes = %d, want the %d-byte pixel footprint (wire %d)", got.Bytes, resident, len(body))
	}
	sum := sha256.Sum256([]byte(body))
	if got.Hash != hex.EncodeToString(sum[:]) {
		t.Fatal("dataset hash does not cover the wire bytes")
	}
}
