package registry

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"scan/internal/genomics"
	"scan/internal/workflow"
)

var statsSeq int

// testStats fabricates decoder stats with a unique content hash, so puts
// model distinct uploads (the content-dedup tests hash-collide on purpose).
func testStats(bytes int64) Stats {
	statsSeq++
	return Stats{Records: 1, Bytes: bytes, Hash: fmt.Sprintf("h%d", statsSeq)}
}

func TestStorePutResolveDelete(t *testing.T) {
	s := NewStore(Options{})
	meta, err := s.Put("sample", FeatureTable, Payload{}, Stats{Records: 3, Bytes: 42, Hash: "abc"})
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID == "" || meta.Name != "sample" || meta.Records != 3 || meta.Bytes != 42 || meta.Hash != "abc" {
		t.Fatalf("meta = %+v", meta)
	}
	for _, key := range []string{meta.ID, "sample"} {
		got, err := s.Resolve(key)
		if err != nil || got.ID != meta.ID {
			t.Fatalf("Resolve(%q) = %+v, %v", key, got, err)
		}
	}
	if _, err := s.Resolve("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve(nope) err = %v", err)
	}
	if _, err := s.Put("sample", FeatureTable, Payload{}, testStats(1)); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate name err = %v", err)
	}
	if _, err := s.Delete("sample"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(meta.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted dataset still resolves: %v", err)
	}
}

func TestStoreEvictsOldestUnpinned(t *testing.T) {
	now := time.Unix(0, 0)
	s := NewStore(Options{MaxDatasets: 2, Now: func() time.Time { now = now.Add(time.Second); return now }})
	d1, err := s.Put("a", FASTQ, Payload{}, testStats(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("b", FASTQ, Payload{}, testStats(1)); err != nil {
		t.Fatal(err)
	}
	// Third upload exceeds MaxDatasets: the oldest (a) is evicted.
	if _, err := s.Put("c", FASTQ, Payload{}, testStats(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(d1.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest dataset survived eviction: %v", err)
	}
	if n, _, evicted := s.Stats(); n != 2 || evicted != 1 {
		t.Fatalf("stats = %d datasets, %d evicted", n, evicted)
	}
	// Pinned datasets are skipped: with b pinned, the next eviction removes c.
	db, _, err := s.Pin("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("d", FASTQ, Payload{}, testStats(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve("b"); err != nil {
		t.Fatalf("pinned dataset was evicted: %v", err)
	}
	if _, err := s.Resolve("c"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected c evicted, got %v", err)
	}
	// A store whose entire residency is pinned rejects rather than evicts.
	if _, _, err := s.Pin("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("e", FASTQ, Payload{}, testStats(1)); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("full pinned store err = %v", err)
	}
	// Deleting a pinned dataset conflicts until the pin is released.
	if _, err := s.Delete("b"); !errors.Is(err, ErrPinned) {
		t.Fatalf("delete pinned err = %v", err)
	}
	s.Unpin(db.ID)
	if _, err := s.Delete("b"); err != nil {
		t.Fatal(err)
	}
}

// TestDedupAliasOfPinnedDatasetIsRemovable: identical uploads alias one
// blob, so a job pinning one alias leaves the blob pinned — but deleting or
// evicting another alias only drops a reference, and must not be refused.
func TestDedupAliasOfPinnedDatasetIsRemovable(t *testing.T) {
	payload := Payload{Features: []workflow.Feature{{Name: "g0", Value: 1.5}}}
	st := Stats{Records: 1, Bytes: 8, Hash: "same-bytes"}
	aliasedStore := func(t *testing.T) *Store {
		t.Helper()
		s := NewStore(Options{MaxDatasets: 2})
		for _, name := range []string{"a", "b"} {
			if _, err := s.Put(name, FeatureTable, payload, st); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.Pin("b"); err != nil {
			t.Fatal(err)
		}
		return s
	}
	stillResolves := func(t *testing.T, s *Store) {
		t.Helper()
		meta, p, err := s.Pin("b")
		if err != nil || len(p.Features) != 1 || p.Features[0].Name != "g0" {
			t.Fatalf("pinned alias b: %v, %d features", err, len(p.Features))
		}
		s.Unpin(meta.ID)
	}
	t.Run("delete", func(t *testing.T) {
		s := aliasedStore(t)
		if _, err := s.Delete("a"); err != nil {
			t.Fatalf("Delete(a) with only alias b pinned: %v", err)
		}
		stillResolves(t, s)
	})
	t.Run("evict", func(t *testing.T) {
		s := aliasedStore(t)
		if _, err := s.Put("c", FeatureTable, Payload{}, testStats(1)); err != nil {
			t.Fatalf("Put(c) at MaxDatasets 2 with only alias b pinned: %v", err)
		}
		if _, err := s.Resolve("a"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("unpinned alias a was not evicted: %v", err)
		}
		stillResolves(t, s)
	})
}

func TestStoreByteBound(t *testing.T) {
	s := NewStore(Options{MaxBytes: 100})
	if _, err := s.Put("big", FASTQ, Payload{}, testStats(101)); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("oversized put err = %v", err)
	}
	if _, err := s.Put("a", FASTQ, Payload{}, testStats(60)); err != nil {
		t.Fatal(err)
	}
	// 60+60 > 100: a is evicted to fit b.
	if _, err := s.Put("b", FASTQ, Payload{}, testStats(60)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve("a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("byte bound did not evict")
	}
	if _, total, _ := s.Stats(); total != 60 {
		t.Fatalf("total bytes = %d", total)
	}
}

func TestPutRejectsUnaddressableNames(t *testing.T) {
	s := NewStore(Options{})
	for _, bad := range []string{"", "ds-7", "ds-0", "a/b", `a\b`} {
		if _, err := s.Put(bad, FASTQ, Payload{}, testStats(1)); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	// Merely id-prefixed names are fine — only the exact ds-N shape is
	// reserved.
	for _, ok := range []string{"ds-", "ds-7x", "dataset-7"} {
		if _, err := s.Put(ok, FASTQ, Payload{}, testStats(1)); err != nil {
			t.Errorf("name %q rejected: %v", ok, err)
		}
	}
}

func TestDecodeFramesAccountsResidentBytes(t *testing.T) {
	// Single-digit pixels: 32×32 floats (8 KiB resident) arrive as ~2 KiB
	// of text; the store must account what stays in memory.
	body := pgmFrame(32, 32, 1)
	frames, st, err := DecodeFrames(strings.NewReader(body), Limits{MaxRecords: 1, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(32 * 32 * 8)
	if st.Bytes != int64(len(body)) || st.Resident != want {
		t.Fatalf("stats = %d wire / %d resident bytes, want %d / %d", st.Bytes, st.Resident, len(body), want)
	}
	meta, err := NewStore(Options{}).Put("frames", TIFF, Payload{Images: frames}, st)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Bytes != want {
		t.Fatalf("store accounted %d bytes, want %d (resident pixels)", meta.Bytes, want)
	}
}

func TestUnpinUnknownIsNoop(t *testing.T) {
	s := NewStore(Options{})
	s.Unpin("ds-404") // must not panic; eviction can race a job's release
}

func TestDecodeFASTQ(t *testing.T) {
	body := "@r1\nACGT\n+\nIIII\n@r2\nggta\n+\nJJJJ\n"
	reads, st, err := DecodeFASTQ(strings.NewReader(body), Limits{MaxRecords: 10, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 2 || reads[0].ID != "r1" || string(reads[1].Seq) != "GGTA" {
		t.Fatalf("reads = %+v", reads)
	}
	if st.Records != 2 || st.Bytes != int64(len(body)) || len(st.Hash) != 64 {
		t.Fatalf("stats = %+v", st)
	}
	// Decoding is a pure function of the bytes: same body, same hash.
	_, st2, err := DecodeFASTQ(strings.NewReader(body), Limits{MaxRecords: 10, MaxBytes: 1 << 20})
	if err != nil || st2.Hash != st.Hash {
		t.Fatalf("hash not reproducible: %q vs %q (%v)", st.Hash, st2.Hash, err)
	}
}

func TestDecodeFASTQRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"truncated record": "@r1\nACGT\n+\n",
		"bad bases":        "@r1\nAXGT\n+\nIIII\n",
		"length mismatch":  "@r1\nACGT\n+\nII\n",
		"empty":            "",
		"not fastq":        "hello world\n",
	}
	for name, body := range cases {
		if _, _, err := DecodeFASTQ(strings.NewReader(body), Limits{MaxRecords: 10, MaxBytes: 1 << 20}); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// endlessFASTQ yields valid FASTQ records forever — the adversarial
// unbounded upload.
type endlessFASTQ struct {
	buf []byte
	n   int64
}

func (e *endlessFASTQ) Read(p []byte) (int, error) {
	if len(e.buf) == 0 {
		e.buf = []byte("@r\nACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIII\n")
	}
	n := copy(p, e.buf[e.n%int64(len(e.buf)):])
	e.n += int64(n)
	return n, nil
}

func TestDecodeFASTQOverCapAbortsEarly(t *testing.T) {
	src := &endlessFASTQ{}
	_, st, err := DecodeFASTQ(src, Limits{MaxRecords: 100, MaxBytes: 1 << 30})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	// Bounded memory: the decoder stopped at the record cap — it decoded at
	// most the cap and consumed only the scanner's readahead past it, not
	// the (endless) remainder of the stream.
	if st.Records > 100 {
		t.Fatalf("decoded %d records past the cap", st.Records)
	}
	if src.n > 1<<20 {
		t.Fatalf("consumed %d bytes from an endless stream; cap should stop it within the readahead window", src.n)
	}
}

func TestDecodeFASTQByteCapAbortsEarly(t *testing.T) {
	src := &endlessFASTQ{}
	_, _, err := DecodeFASTQ(src, Limits{MaxRecords: 1 << 30, MaxBytes: 4096})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if src.n > 128*1024 {
		t.Fatalf("consumed %d bytes past a 4096-byte cap", src.n)
	}
}

func TestDecodeFASTA(t *testing.T) {
	ref, st, err := DecodeFASTA(strings.NewReader(">chr1 assembly\nacgtACGTacgtACGT\nACGT\n"),
		Limits{MaxRecords: 1, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Name != "chr1" || string(ref.Seq) != "ACGTACGTACGTACGTACGT" {
		t.Fatalf("ref = %+v", ref)
	}
	if st.Records != 1 {
		t.Fatalf("stats = %+v", st)
	}
	for name, body := range map[string]string{
		"two sequences": ">a\nACGTACGTACGTACGT\n>b\nACGTACGTACGTACGT\n",
		"short":         ">a\nACGT\n",
		"headerless":    "ACGTACGTACGTACGT\n",
		"bad bases":     ">a\nACGTACGTACGTACGQ\n",
	} {
		if _, _, err := DecodeFASTA(strings.NewReader(body), Limits{MaxRecords: 1, MaxBytes: 1 << 20}); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

func TestDecodeMGFSpectra(t *testing.T) {
	body := `# acquisition export
BEGIN IONS
TITLE=scan_a
PEPMASS=442.7
500.1 12.0
250.2 3.0
750.3
END IONS
BEGIN IONS
300.5
END IONS
`
	spectra, st, err := DecodeMGFSpectra(strings.NewReader(body), Limits{MaxRecords: 10, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(spectra) != 2 || spectra[0].ID != "scan_a" || spectra[1].ID != "spec00001" {
		t.Fatalf("spectra = %+v", spectra)
	}
	// Peaks arrive unsorted and are normalized ascending.
	if p := spectra[0].Peaks; len(p) != 3 || p[0] != 250.2 || p[2] != 750.3 {
		t.Fatalf("peaks = %v", p)
	}
	if st.Records != 2 {
		t.Fatalf("stats = %+v", st)
	}
	for name, bad := range map[string]string{
		"unterminated": "BEGIN IONS\n100.0\n",
		"stray end":    "END IONS\n",
		"stray peak":   "100.0\n",
		"bad peak":     "BEGIN IONS\nnope\nEND IONS\n",
		"NaN peak":     "BEGIN IONS\n100.0\nNaN 3.0\nEND IONS\n",
		"+Inf peak":    "BEGIN IONS\n+Inf\nEND IONS\n",
		"infinity":     "BEGIN IONS\ninfinity\nEND IONS\n",
		"zero peak":    "BEGIN IONS\n0\nEND IONS\n",
		"empty":        "\n",
	} {
		if _, _, err := DecodeMGFSpectra(strings.NewReader(bad), Limits{MaxRecords: 10, MaxBytes: 1 << 20}); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

func TestDecodeMGFSpectraCap(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, "BEGIN IONS\n%f\nEND IONS\n", 100.0+float64(i))
	}
	if _, _, err := DecodeMGFSpectra(strings.NewReader(b.String()), Limits{MaxRecords: 3, MaxBytes: 1 << 20}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestDecodePeptides(t *testing.T) {
	body := "# protein peptide masses\nP1 P1.pep0 300.0,100.0,200.0\nP1 P1.pep1 150.5,450.5\n"
	db, st, err := DecodePeptides(strings.NewReader(body), Limits{MaxRecords: 10, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Peptides) != 2 || db.Proteins() != 1 {
		t.Fatalf("db = %+v", db)
	}
	if m := db.Peptides[0].Masses; m[0] != 100.0 || m[2] != 300.0 {
		t.Fatalf("masses not sorted: %v", m)
	}
	if st.Records != 2 {
		t.Fatalf("stats = %+v", st)
	}
	for name, bad := range map[string]string{
		"wrong columns": "P1 pep\n",
		"bad mass":      "P1 pep x,y\n",
		"NaN mass":      "P1 p1 nan,200\n",
		"+Inf mass":     "P1 p1 200,inf\n",
		"infinity":      "P1 p1 Infinity\n",
		"-Inf mass":     "P1 p1 -inf,200\n",
		"empty":         "# nothing\n",
	} {
		if _, _, err := DecodePeptides(strings.NewReader(bad), Limits{MaxRecords: 10, MaxBytes: 1 << 20}); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// pgmFrame renders one flat-intensity P2 frame.
func pgmFrame(w, h, val int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "P2\n# synthetic frame\n%d %d\n255\n", w, h)
	for i := 0; i < w*h; i++ {
		fmt.Fprintf(&b, "%d\n", val)
	}
	return b.String()
}

func TestDecodeFrames(t *testing.T) {
	body := pgmFrame(32, 32, 10) + pgmFrame(32, 32, 200)
	frames, st, err := DecodeFrames(strings.NewReader(body), Limits{MaxRecords: 4, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 || frames[0].W != 32 || frames[1].ID != "frame1" {
		t.Fatalf("frames = %+v", frames)
	}
	if got := frames[1].Pix[3*frames[1].W+3]; got != 200.0/255.0 {
		t.Fatalf("pixel = %v", got)
	}
	if st.Records != 2 {
		t.Fatalf("stats = %+v", st)
	}
	for name, bad := range map[string]string{
		"bad magic":  "P5\n32 32\n255\n0\n",
		"too small":  pgmFrame(8, 8, 1),
		"truncated":  "P2\n32 32\n255\n1 2 3\n",
		"overbright": "P2\n32 32\n8\n9 " + strings.Repeat("1 ", 32*32-1),
		"empty":      "",
	} {
		if _, _, err := DecodeFrames(strings.NewReader(bad), Limits{MaxRecords: 4, MaxBytes: 1 << 20}); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	if _, _, err := DecodeFrames(strings.NewReader(body), Limits{MaxRecords: 1, MaxBytes: 1 << 20}); !errors.Is(err, ErrTooLarge) {
		t.Fatal("frame cap not enforced")
	}
}

func TestDecodeFeatures(t *testing.T) {
	// A value may be a log ratio: negatives and zero decode.
	body := "# name value count\ng0 1.5\ng1 -2.25 7\ng2 0\n"
	rows, st, err := DecodeFeatures(strings.NewReader(body), Limits{MaxRecords: 10, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Name != "g0" || rows[0].Count != 1 || rows[1].Count != 7 || rows[1].Value != -2.25 || rows[2].Value != 0 {
		t.Fatalf("rows = %+v", rows)
	}
	if st.Records != 3 {
		t.Fatalf("stats = %+v", st)
	}
	for name, bad := range map[string]string{
		"bad value":   "g0 abc\n",
		"bad count":   "g0 1.0 -3\n",
		"columns":     "g0\n",
		"empty":       "#\n",
		"NaN value":   "g0 1\ng1 nan\n",
		"+Inf value":  "g0 1\ng1 +Inf 3\n",
		"-Inf value":  "g0 1\ng1 -inf\n",
		"infinity":    "g0 1\ng1 Infinity\n",
		"overflowing": "g0 1\ng1 1e309\n",
	} {
		_, _, err := DecodeFeatures(strings.NewReader(bad), Limits{MaxRecords: 10, MaxBytes: 1 << 20})
		if err == nil {
			t.Errorf("%s: decode succeeded", name)
		} else if strings.HasPrefix(bad, "g0 1\n") && !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: error %q does not name line 2", name, err)
		}
	}
}

func TestCombineStats(t *testing.T) {
	a := Stats{Records: 4, Bytes: 10, Hash: "aa"}
	b := Stats{Records: 9, Bytes: 5, Hash: "bb"}
	got := CombineStats(9, a, b)
	if got.Records != 9 || got.Bytes != 15 || len(got.Hash) != 64 {
		t.Fatalf("combined = %+v", got)
	}
	if again := CombineStats(9, a, b); again.Hash != got.Hash {
		t.Fatal("combined hash not deterministic")
	}
	if swapped := CombineStats(9, b, a); swapped.Hash == got.Hash {
		t.Fatal("combined hash ignores part order")
	}
}

func TestParseFamily(t *testing.T) {
	for _, ok := range []string{"fastq", "mgf", "tiff", "feature-table", "reference"} {
		if _, err := ParseFamily(ok); err != nil {
			t.Errorf("ParseFamily(%q) = %v", ok, err)
		}
	}
	if _, err := ParseFamily("bam"); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestPutDedupsIdenticalContent(t *testing.T) {
	s := NewStore(Options{MaxBytes: 100})
	same := Stats{Records: 5, Bytes: 60, Hash: "cafe"}
	reads := Payload{Reads: make([]genomics.Read, 5)}
	a, err := s.Put("a", FASTQ, reads, same)
	if err != nil {
		t.Fatal(err)
	}
	// Identical bytes under a second name: the payload is aliased, not
	// stored again, so 60+60 fits the 100-byte bound without eviction.
	b, err := s.Put("b", FASTQ, Payload{Reads: make([]genomics.Read, 5)}, same)
	if err != nil {
		t.Fatalf("dedup put err = %v", err)
	}
	if a.ID == b.ID || b.Bytes != 60 {
		t.Fatalf("aliased metadata = %+v", b)
	}
	if n, total, evicted := s.Stats(); n != 2 || total != 60 || evicted != 0 {
		t.Fatalf("stats after dedup: n=%d total=%d evicted=%d", n, total, evicted)
	}
	if s.Deduped() != 1 {
		t.Fatalf("deduped = %d, want 1", s.Deduped())
	}
	// Both names resolve to the same records.
	_, pa, err := s.Pin("a")
	if err != nil {
		t.Fatal(err)
	}
	_, pb, err := s.Pin("b")
	if err != nil {
		t.Fatal(err)
	}
	if &pa.Reads[0] != &pb.Reads[0] {
		t.Fatal("aliased datasets do not share records")
	}
	s.Unpin(a.ID)
	s.Unpin(b.ID)
	// The blob survives deleting one alias and is freed with the last.
	if _, err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve("b"); err != nil {
		t.Fatalf("surviving alias broken: %v", err)
	}
	if _, total, _ := s.Stats(); total != 60 {
		t.Fatalf("total after one delete = %d, want 60", total)
	}
	if _, err := s.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if _, total, _ := s.Stats(); total != 0 {
		t.Fatalf("total after last delete = %d, want 0", total)
	}
	// Same bytes, different family: no aliasing across decoders.
	if _, err := s.Put("c", FASTQ, Payload{}, Stats{Records: 1, Bytes: 10, Hash: "beef"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("d", Reference, Payload{}, Stats{Records: 1, Bytes: 10, Hash: "beef"}); err != nil {
		t.Fatal(err)
	}
	if _, total, _ := s.Stats(); total != 20 {
		t.Fatalf("cross-family total = %d, want 20", total)
	}
}
