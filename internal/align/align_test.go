package align

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"scan/internal/genomics"
)

func mkAligner(t *testing.T, refLen int, seed int64) (*Aligner, genomics.Sequence, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := genomics.GenerateReference(rng, "chr1", refLen)
	a, err := New(ref, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return a, ref, rng
}

func TestAlignExactReads(t *testing.T) {
	a, ref, rng := mkAligner(t, 5000, 1)
	reads, err := genomics.SimulateReads(rng, ref, genomics.ReadSimConfig{Count: 200, Length: 100})
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	mapped := 0
	for _, r := range reads {
		aln := a.AlignRead(r, &s)
		if aln.Unmapped() {
			continue
		}
		mapped++
		start := aln.Pos - 1
		if int(aln.Len) != len(r.Seq) || !bytes.Equal(ref.Seq[start:start+len(r.Seq)], r.Seq) {
			t.Fatalf("read %s placed at %d but sequence differs", r.ID, aln.Pos)
		}
		if aln.NM != 0 {
			t.Fatalf("exact read has NM=%d", aln.NM)
		}
	}
	if mapped != 200 {
		t.Fatalf("mapped %d/200 exact reads", mapped)
	}
}

func TestAlignReadsWithErrors(t *testing.T) {
	a, ref, rng := mkAligner(t, 20000, 2)
	reads, err := genomics.SimulateReads(rng, ref, genomics.ReadSimConfig{
		Count: 300, Length: 100, ErrorRate: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	mapped := 0
	for _, r := range reads {
		if !a.AlignRead(r, &s).Unmapped() {
			mapped++
		}
	}
	// At 1% error over 100 bases, nearly every read has ≤ 6 mismatches and
	// still seeds (expected mismatches per read = 1).
	if mapped < 280 {
		t.Fatalf("mapped only %d/300 noisy reads", mapped)
	}
}

func TestAlignReverseComplement(t *testing.T) {
	a, ref, _ := mkAligner(t, 5000, 3)
	start := 1234
	fwd := append([]byte(nil), ref.Seq[start:start+80]...)
	rc := ReverseComplement(fwd)
	qual := bytes.Repeat([]byte("I"), 80)
	var s Scratch
	aln := a.AlignRead(genomics.Read{ID: "rc-read", Seq: rc, Qual: qual}, &s)
	if aln.Unmapped() {
		t.Fatal("reverse-complement read unmapped")
	}
	if aln.Flag&genomics.FlagReverseStrand == 0 {
		t.Fatal("reverse strand flag not set")
	}
	if aln.Pos != start+1 || aln.Len != 80 || aln.NM != 0 {
		t.Fatalf("Pos, Len, NM = %d, %d, %d, want %d, 80, 0", aln.Pos, aln.Len, aln.NM, start+1)
	}
}

func TestAlignUnmappableRead(t *testing.T) {
	a, _, rng := mkAligner(t, 5000, 4)
	// A random read is overwhelmingly unlikely to seed anywhere.
	junk, err := genomics.SimulateReads(rng,
		genomics.GenerateReference(rng, "other", 1000),
		genomics.ReadSimConfig{Count: 5, Length: 100})
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	unmapped := 0
	for _, r := range junk {
		if a.AlignRead(r, &s).Unmapped() {
			unmapped++
		}
	}
	if unmapped < 4 {
		t.Fatalf("only %d/5 foreign reads unmapped", unmapped)
	}
}

func TestAlignRepeatAmbiguityLowersMapQ(t *testing.T) {
	// Build a reference with an exact tandem repeat: reads inside the
	// repeat must get MapQ 0.
	rng := rand.New(rand.NewSource(5))
	unit := genomics.GenerateReference(rng, "u", 300)
	seq := append(append([]byte{}, unit.Seq...), unit.Seq...)
	tail := genomics.GenerateReference(rng, "t", 400)
	seq = append(seq, tail.Seq...)
	ref := genomics.Sequence{Name: "chrR", Seq: seq}
	a, err := New(ref, Config{})
	if err != nil {
		t.Fatal(err)
	}
	read := genomics.Read{
		ID:   "rep",
		Seq:  append([]byte(nil), unit.Seq[50:150]...),
		Qual: bytes.Repeat([]byte("I"), 100),
	}
	var s Scratch
	aln := a.AlignRead(read, &s)
	if aln.Unmapped() {
		t.Fatal("repeat read unmapped")
	}
	if aln.MapQ != 0 {
		t.Fatalf("repeat read MapQ = %d, want 0", aln.MapQ)
	}
	// A unique read keeps high MapQ.
	uniq := genomics.Read{
		ID:   "uniq",
		Seq:  append([]byte(nil), tail.Seq[100:200]...),
		Qual: bytes.Repeat([]byte("I"), 100),
	}
	if got := a.AlignRead(uniq, &s); got.MapQ != 60 {
		t.Fatalf("unique read MapQ = %d, want 60", got.MapQ)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(genomics.Sequence{Name: "s", Seq: []byte("ACG")}, Config{K: 16}); err != ErrShortReference {
		t.Fatalf("short reference: err = %v", err)
	}
	if _, err := New(genomics.Sequence{Name: "s", Seq: bytes.Repeat([]byte("Z"), 100)}, Config{}); !errors.Is(err, ErrBadReference) {
		t.Fatalf("invalid bases: err = %v, want ErrBadReference", err)
	}
	if _, err := New(genomics.Sequence{Name: "s", Seq: bytes.Repeat([]byte("A"), 100)}, Config{K: 33}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("K = 33: err = %v, want ErrBadConfig", err)
	}
}

// TestNewFailsExactlyWhenCheckDoes: New's only failures are Check's, so a
// caller that has passed Check may build the index later with no new
// error path (the align stream checks in Stream and indexes in Transform).
func TestNewFailsExactlyWhenCheckDoes(t *testing.T) {
	const alphabet = "ACGTNacgtnX"
	f := func(raw []byte, k uint8) bool {
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = alphabet[int(b)%len(alphabet)]
		}
		ref := genomics.Sequence{Name: "r", Seq: seq}
		cfg := Config{K: int(k % 40)}
		checkErr := Check(ref, cfg)
		a, err := New(ref, cfg)
		if checkErr == nil {
			return err == nil && a != nil
		}
		return a == nil && err != nil && err.Error() == checkErr.Error()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReverseComplement(t *testing.T) {
	if got := ReverseComplement([]byte("ACGTN")); string(got) != "NACGT" {
		t.Fatalf("ReverseComplement = %q", got)
	}
	// Involution on ACGT-only strings.
	in := []byte("GATTACA")
	if got := ReverseComplement(ReverseComplement(in)); !bytes.Equal(got, in) {
		t.Fatalf("double complement = %q", got)
	}
}

func TestShortReadUnmapped(t *testing.T) {
	a, _, _ := mkAligner(t, 1000, 6)
	var s Scratch
	aln := a.AlignRead(genomics.Read{ID: "tiny", Seq: []byte("ACGT"), Qual: []byte("IIII")}, &s)
	if !aln.Unmapped() {
		t.Fatal("read shorter than K must be unmapped")
	}
}

// Property: every exact substring of length ≥ K+stride aligns back to its
// source position (or an identical copy elsewhere).
func TestAlignExactSubstringProperty(t *testing.T) {
	a, ref, _ := mkAligner(t, 3000, 7)
	var s Scratch
	f := func(startRaw, lenRaw uint16) bool {
		length := 40 + int(lenRaw%80)
		if length > ref.Len() {
			return true
		}
		start := int(startRaw) % (ref.Len() - length + 1)
		read := genomics.Read{
			ID:   "p",
			Seq:  append([]byte(nil), ref.Seq[start:start+length]...),
			Qual: bytes.Repeat([]byte("I"), length),
		}
		aln := a.AlignRead(read, &s)
		if aln.Unmapped() || aln.NM != 0 {
			return false
		}
		// The placement must be sequence-identical to the read.
		p := aln.Pos - 1
		return bytes.Equal(ref.Seq[p:p+length], read.Seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAlignRead cycles through 256 reads, which stay warm in cache,
// all from one strand; BenchmarkAlignShard is the figure for a
// shard-sized run.
func BenchmarkAlignRead(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ref := genomics.GenerateReference(rng, "chr1", 100000)
	a, err := New(ref, Config{})
	if err != nil {
		b.Fatal(err)
	}
	reads, err := genomics.SimulateReads(rng, ref, genomics.ReadSimConfig{
		Count: 256, Length: 100, ErrorRate: 0.01,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, strand := range []string{"forward", "reverse"} {
		b.Run("strand="+strand, func(b *testing.B) {
			var s Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.AlignRead(reads[i%len(reads)], &s)
			}
		})
		for i, r := range reads {
			reads[i].Seq = ReverseComplement(r.Seq)
		}
	}
}

// BenchmarkAlignShard aligns one shard as the Align stage does: 15 000
// reads of 100 bases at error rate 0.002 over a 100 kb reference, through
// one scratch, then the coordinate sort. It reports ns per read.
func BenchmarkAlignShard(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ref := genomics.GenerateReference(rng, "chr1", 100000)
	a, err := New(ref, Config{})
	if err != nil {
		b.Fatal(err)
	}
	reads, err := genomics.SimulateReads(rng, ref, genomics.ReadSimConfig{
		Count: 15000, Length: 100, ErrorRate: 0.002,
	})
	if err != nil {
		b.Fatal(err)
	}
	alns := make([]genomics.Alignment, len(reads))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s Scratch
		for j, r := range reads {
			alns[j] = a.AlignRead(r, &s)
		}
		genomics.SortAlignments(alns)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reads)), "ns/read")
}

// BenchmarkAlignRepetitive aligns reads to 20 kb references made of one
// repeated unit, where each seed hits thousands of positions: the
// candidates' deduplication sets the pace.
func BenchmarkAlignRepetitive(b *testing.B) {
	for _, unit := range []string{"ACGTTGCAAGT", "A"} {
		b.Run(fmt.Sprintf("period=%d", len(unit)), func(b *testing.B) {
			seq := bytes.Repeat([]byte(unit), 20000/len(unit))
			a, err := New(genomics.Sequence{Name: "chr1", Seq: seq}, Config{})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			reads := make([]genomics.Read, 64)
			for i := range reads {
				st := rng.Intn(len(seq) - 100)
				reads[i] = genomics.Read{Seq: seq[st : st+100], Qual: bytes.Repeat([]byte("I"), 100)}
			}
			var s Scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.AlignRead(reads[i%len(reads)], &s)
			}
		})
	}
}

func BenchmarkNew(b *testing.B) {
	ref := genomics.GenerateReference(rand.New(rand.NewSource(1)), "chr1", 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(ref, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAlignReadAllocations: once its scratch has warmed up, aligning a
// read allocates nothing, on either strand.
func TestAlignReadAllocations(t *testing.T) {
	a, ref, rng := mkAligner(t, 20000, 9)
	reads, err := genomics.SimulateReads(rng, ref, genomics.ReadSimConfig{Count: 200, Length: 100, ErrorRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for i, r := range reads {
		rev := genomics.Read{ID: r.ID, Seq: ReverseComplement(r.Seq), Qual: r.Qual}
		if got := a.AlignRead(rev, &s); got.Flag != genomics.FlagReverseStrand {
			t.Fatalf("read %d: reverse complement aligned with flag %#x", i, got.Flag)
		}
		reads = append(reads, rev)
	}
	for _, c := range []struct {
		strand string
		first  int
	}{{"forward", 0}, {"reverse", 200}} {
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			a.AlignRead(reads[c.first+i%200], &s)
			i++
		})
		if allocs != 0 {
			t.Errorf("%v allocations per %s read, want 0", allocs, c.strand)
		}
	}
}

// TestReverseRecordHoldsOnlyItsBytes: a reverse-strand record keeps alive
// none of its read's bytes and nothing of its scratch, even when every
// read is a shard of its own with a fresh scratch.
func TestReverseRecordHoldsOnlyItsBytes(t *testing.T) {
	a, ref, rng := mkAligner(t, 20000, 10)
	reads, err := genomics.SimulateReads(rng, ref, genomics.ReadSimConfig{Count: 2000, Length: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		reads[i].Seq = ReverseComplement(r.Seq)
	}
	alns := make([]genomics.Alignment, len(reads))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for i, r := range reads {
		alns[i] = a.AlignRead(r, new(Scratch))
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if per := (int64(ms.HeapAlloc) - int64(before)) / int64(len(reads)); per > 8 {
		t.Fatalf("%d bytes held per reverse record, want none", per)
	}
	for i, aln := range alns {
		if aln.Flag != genomics.FlagReverseStrand || aln.Len != 100 {
			t.Fatalf("read %d aligned with flag %#x, length %d", i, aln.Flag, aln.Len)
		}
	}
}
