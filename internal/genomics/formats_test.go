package genomics

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// TestFASTARoundTrip pins WriteFASTA's bytes: each record's header, then
// its sequence wrapped at the given width, with a short last line and no
// empty line when the length is a multiple of the width; width <= 0 wraps
// at 60. Uploads decode FASTA with registry.DecodeFASTA (TestDecodeFASTA).
func TestFASTARoundTrip(t *testing.T) {
	seqs := []Sequence{
		{Name: "chr1", Seq: []byte("ACGTACGTACGTACGTACGT")},
		{Name: "chr2", Seq: []byte("TTTT")},
		{Name: "chr3", Seq: []byte("GGGGCCCC")},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, seqs, 8); err != nil {
		t.Fatal(err)
	}
	want := ">chr1\nACGTACGT\nACGTACGT\nACGT\n>chr2\nTTTT\n>chr3\nGGGGCCCC\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteFASTA wrote %q, want %q", got, want)
	}
	long := Sequence{Name: "chr4", Seq: bytes.Repeat([]byte("A"), 61)}
	buf.Reset()
	if err := WriteFASTA(&buf, []Sequence{long}, 0); err != nil {
		t.Fatal(err)
	}
	want = ">chr4\n" + strings.Repeat("A", 60) + "\nA\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteFASTA at the default width wrote %q, want %q", got, want)
	}
}

func TestValidateBases(t *testing.T) {
	if err := ValidateBases([]byte("ACGTNacgtn")); err != nil {
		t.Fatalf("valid bases rejected: %v", err)
	}
	if err := ValidateBases([]byte("ACGX")); err == nil {
		t.Fatal("invalid base accepted")
	}
}

func BenchmarkValidateBases(b *testing.B) {
	seq := GenerateReference(rand.New(rand.NewSource(1)), "chr1", 1<<20).Seq
	b.SetBytes(int64(len(seq)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ValidateBases(seq); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUpper(t *testing.T) {
	if got := Upper([]byte("acGt")); string(got) != "ACGT" {
		t.Fatalf("Upper = %q", got)
	}
	in := []byte("ACGT")
	if got := Upper(in); &got[0] != &in[0] {
		t.Fatal("Upper copied an already-upper sequence")
	}
}

// readFASTQ reads every record from r through a FASTQReader.
func readFASTQ(r io.Reader) ([]Read, error) {
	fr := NewFASTQReader(r)
	var out []Read
	for {
		rd, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rd)
	}
}

func TestFASTQRoundTrip(t *testing.T) {
	reads := []Read{
		{ID: "r1", Seq: []byte("ACGT"), Qual: []byte("IIII")},
		{ID: "r2", Seq: []byte("GGCC"), Qual: []byte("!!!!")},
	}
	var buf bytes.Buffer
	if err := WriteAllFASTQ(&buf, reads); err != nil {
		t.Fatal(err)
	}
	got, err := readFASTQ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "r1" || string(got[1].Seq) != "GGCC" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestFASTQErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":      "r1\nACGT\n+\nIIII\n",
		"bad separator":   "@r1\nACGT\nIIII\n@r2\n",
		"length mismatch": "@r1\nACGT\n+\nII\n",
		"truncated":       "@r1\nACGT\n+\n",
	}
	for name, src := range cases {
		if _, err := readFASTQ(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestFASTQWriterRejectsMismatch(t *testing.T) {
	fw := NewFASTQWriter(&bytes.Buffer{})
	if err := fw.Write(Read{ID: "x", Seq: []byte("ACGT"), Qual: []byte("I")}); err == nil {
		t.Fatal("expected error")
	}
}

// TestSortAlignmentsOrder: position order, unmapped last, and equal
// positions in input order. MapQ names the records.
func TestSortAlignmentsOrder(t *testing.T) {
	alns := []Alignment{
		{MapQ: 4, Flag: FlagUnmapped},
		{MapQ: 2, Pos: 7},
		{MapQ: 3, Pos: 100},
		{MapQ: 1, Pos: 5},
		{MapQ: 5, Pos: 7},
	}
	SortAlignments(alns)
	for i, want := range []int{1, 2, 5, 3, 4} {
		if alns[i].MapQ != want {
			t.Fatalf("position %d = record %d, want %d (%+v)", i, alns[i].MapQ, want, alns)
		}
	}
}

func TestMergeSorted(t *testing.T) {
	a := []Alignment{{MapQ: 1, Pos: 1}, {MapQ: 2, Pos: 50}}
	b := []Alignment{{MapQ: 3, Pos: 25}}
	merged := MergeSorted(a, b)
	if len(merged) != 3 || merged[1].MapQ != 3 {
		t.Fatalf("merge order wrong: %+v", merged)
	}
}

func TestAlignmentEnd(t *testing.T) {
	a := Alignment{Pos: 10, Seq: []byte("ACGTA")}
	if a.End() != 14 {
		t.Fatalf("End = %d, want 14", a.End())
	}
	u := Alignment{Flag: FlagUnmapped}
	if u.End() != 0 {
		t.Fatal("unmapped End must be 0")
	}
}

func TestMergeVariantsDedupe(t *testing.T) {
	a := []Variant{{Pos: 10, Ref: 'A', Alt: 'T', Qual: 20}}
	b := []Variant{
		{Pos: 10, Ref: 'A', Alt: 'T', Qual: 35},
		{Pos: 5, Ref: 'G', Alt: 'C', Qual: 10},
	}
	merged := MergeVariants(a, b)
	if len(merged) != 2 {
		t.Fatalf("got %d variants, want 2", len(merged))
	}
	if merged[0].Pos != 5 {
		t.Fatal("merge not sorted")
	}
	if merged[1].Qual != 35 {
		t.Fatalf("dedupe kept lower quality: %+v", merged[1])
	}
}

func TestGenerateReferenceDeterministic(t *testing.T) {
	a := GenerateReference(rand.New(rand.NewSource(9)), "chr1", 500)
	b := GenerateReference(rand.New(rand.NewSource(9)), "chr1", 500)
	if string(a.Seq) != string(b.Seq) {
		t.Fatal("same seed produced different references")
	}
	if err := ValidateBases(a.Seq); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 500 {
		t.Fatalf("Len = %d", a.Len())
	}
}

func TestPlantSNVs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := GenerateReference(rng, "chr1", 1000)
	mut, muts := PlantSNVs(rng, ref, 25)
	if len(muts) != 25 {
		t.Fatalf("planted %d mutations", len(muts))
	}
	diff := 0
	for i := range ref.Seq {
		if ref.Seq[i] != mut.Seq[i] {
			diff++
		}
	}
	if diff != 25 {
		t.Fatalf("%d bases differ, want 25", diff)
	}
	for i, m := range muts {
		if ref.Seq[m.Pos] != m.Ref || mut.Seq[m.Pos] != m.Alt || m.Ref == m.Alt {
			t.Fatalf("mutation %d inconsistent: %+v", i, m)
		}
		if i > 0 && muts[i-1].Pos >= m.Pos {
			t.Fatal("mutations not sorted by position")
		}
	}
	// Original reference untouched.
	if &ref.Seq[0] == &mut.Seq[0] {
		t.Fatal("PlantSNVs aliased the reference")
	}
}

func TestPlantSNVsCountClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := GenerateReference(rng, "c", 10)
	_, muts := PlantSNVs(rng, ref, 100)
	if len(muts) != 10 {
		t.Fatalf("planted %d, want clamp to 10", len(muts))
	}
}

func TestSimulateReads(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	genome := GenerateReference(rng, "chr1", 2000)
	reads, err := SimulateReads(rng, genome, ReadSimConfig{Count: 100, Length: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 100 {
		t.Fatalf("got %d reads", len(reads))
	}
	for _, r := range reads {
		if len(r.Seq) != 50 || len(r.Qual) != 50 {
			t.Fatalf("bad read shape: %+v", r)
		}
		// With zero error rate every read must be an exact substring.
		if !bytes.Contains(genome.Seq, r.Seq) {
			t.Fatalf("read %s not a substring of the genome", r.ID)
		}
	}
}

func TestSimulateReadsWithErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	genome := GenerateReference(rng, "chr1", 5000)
	reads, err := SimulateReads(rng, genome, ReadSimConfig{Count: 200, Length: 80, ErrorRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	exact := 0
	for _, r := range reads {
		if bytes.Contains(genome.Seq, r.Seq) {
			exact++
		}
	}
	// At 5% per-base error over 80 bases, an error-free read has p ≈ 1.6%.
	if exact > 40 {
		t.Fatalf("%d/200 reads error-free; error injection looks broken", exact)
	}
}

func TestSimulateReadsInvalidConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	genome := GenerateReference(rng, "c", 100)
	if _, err := SimulateReads(rng, genome, ReadSimConfig{Count: 1, Length: 0}); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := SimulateReads(rng, genome, ReadSimConfig{Count: 1, Length: 200}); err == nil {
		t.Fatal("length > genome accepted")
	}
}

func BenchmarkFASTQScan(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	genome := GenerateReference(rng, "chr1", 10000)
	reads, _ := SimulateReads(rng, genome, ReadSimConfig{Count: 1000, Length: 100})
	var buf bytes.Buffer
	if err := WriteAllFASTQ(&buf, reads); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := NewFASTQReader(bytes.NewReader(data))
		for {
			if _, err := fr.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
