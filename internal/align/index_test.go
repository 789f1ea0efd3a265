package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"scan/internal/genomics"
)

// mapAligner is the aligner with the seed index it had before the packed
// one: a map from every k-mer of the uppercased reference, N-holding ones
// included, to its ascending positions. It is the reference the bucketed
// index is checked against, so it keeps the old lookup verbatim; it
// verifies candidates against the uppercased reference, as Aligner does.
type mapAligner struct {
	cfg   Config
	seq   []byte
	seeds map[string][]int32
}

func newMapAligner(ref genomics.Sequence, cfg Config) *mapAligner {
	cfg.fill()
	m := &mapAligner{cfg: cfg, seq: genomics.Upper(ref.Seq), seeds: make(map[string][]int32)}
	for i := 0; i+cfg.K <= len(m.seq); i++ {
		kmer := string(m.seq[i : i+cfg.K])
		m.seeds[kmer] = append(m.seeds[kmer], int32(i))
	}
	return m
}

func (m *mapAligner) alignRead(r genomics.Read) genomics.Alignment {
	fwd, fwdMM, fwdSecond := m.bestPlacement(r.Seq)
	rcSeq := ReverseComplement(r.Seq)
	rev, revMM, revSecond := m.bestPlacement(rcSeq)
	best, bestMM, second := fwd, fwdMM, fwdSecond
	reverse := false
	if revMM < bestMM {
		best, bestMM, second = rev, revMM, revSecond
		reverse = true
	} else if revMM == bestMM && rev >= 0 && fwd >= 0 && rev != fwd {
		second = bestMM
	}
	n := int32(len(r.Seq))
	if best < 0 || bestMM > m.cfg.MaxMismatches {
		return genomics.Alignment{Len: n, Flag: genomics.FlagUnmapped, NM: -1}
	}
	aln := genomics.Alignment{
		Pos: best + 1, Len: n, MapQ: mapQ(bestMM, second, m.cfg.MaxMismatches), NM: bestMM,
	}
	if reverse {
		aln.Flag |= genomics.FlagReverseStrand
	}
	return aln
}

// byteHamming is the byte-at-a-time count hamming replaced: it stops at
// limit+1.
func byteHamming(a, b []byte, limit int) int {
	mm := 0
	for i := range a {
		if a[i] != b[i] {
			mm++
			if mm > limit {
				return mm
			}
		}
	}
	return mm
}

// ReverseComplement returns the reverse complement of seq (N maps to N).
func ReverseComplement(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		out[len(seq)-1-i] = complement[b]
	}
	return out
}

func (m *mapAligner) bestPlacement(seq []byte) (pos, mismatches, second int) {
	const none = 1 << 30
	pos, mismatches, second = -1, none, none
	if len(seq) < m.cfg.K {
		return
	}
	tried := make(map[int32]struct{})
	consider := func(cand int32) {
		if cand < 0 || int(cand)+len(seq) > len(m.seq) {
			return
		}
		if _, dup := tried[cand]; dup {
			return
		}
		tried[cand] = struct{}{}
		mm := byteHamming(m.seq[cand:int(cand)+len(seq)], seq, min(second, len(seq)))
		switch {
		case mm < mismatches:
			second, mismatches, pos = mismatches, mm, int(cand)
		case mm < second:
			second = mm
		}
	}
	for off := 0; off+m.cfg.K <= len(seq); off += m.cfg.SeedStride {
		for _, p := range m.seeds[string(seq[off:off+m.cfg.K])] {
			consider(p - int32(off))
		}
	}
	if tail := len(seq) - m.cfg.K; tail > 0 && tail%m.cfg.SeedStride != 0 {
		for _, p := range m.seeds[string(seq[tail:])] {
			consider(p - int32(tail))
		}
	}
	return
}

// randomReference draws length bases of ACGT with runs of N and stretches
// of soft-masked (lowercase) sequence.
func randomReference(rng *rand.Rand, length int) []byte {
	seq := make([]byte, length)
	for i := range seq {
		seq[i] = "ACGT"[rng.Intn(4)]
	}
	for r := rng.Intn(4); r > 0; r-- {
		at := rng.Intn(length)
		for i := at; i < min(length, at+1+rng.Intn(40)); i++ {
			seq[i] = 'N'
		}
	}
	for r := rng.Intn(3); r > 0; r-- {
		at := rng.Intn(length)
		for i := at; i < min(length, at+1+rng.Intn(200)); i++ {
			seq[i] |= 0x20
		}
	}
	return seq
}

// randomRead draws a read from either strand of ref, or from nowhere, then
// mutates a few bytes to other bases, N or lowercase.
func randomRead(rng *rand.Rand, ref []byte) []byte {
	length := 1 + rng.Intn(150)
	var seq []byte
	if rng.Intn(8) == 0 || length > len(ref) {
		seq = randomReference(rng, length)
	} else {
		at := rng.Intn(len(ref) - length + 1)
		seq = bytes.ToUpper(ref[at : at+length])
		if rng.Intn(2) == 0 {
			seq = ReverseComplement(seq)
		}
	}
	for m := rng.Intn(6); m > 0; m-- {
		seq[rng.Intn(len(seq))] = "ACGTNacgtn"[rng.Intn(10)]
	}
	return seq
}

// sameAsMapIndex aligns every read with both indexes, the bucketed one
// through a single scratch, and reports the first difference. It compares
// only after the last read, so a scratch buffer reused under an earlier
// record shows as a difference.
func sameAsMapIndex(ref genomics.Sequence, cfg Config, reads [][]byte) error {
	a, err := New(ref, cfg)
	if err != nil {
		return err
	}
	m := newMapAligner(ref, cfg)
	rs := make([]genomics.Read, len(reads))
	got := make([]genomics.Alignment, len(reads))
	var s Scratch
	for i, seq := range reads {
		qual := make([]byte, len(seq))
		for j := range qual {
			qual[j] = byte('!' + (i+j)%40)
		}
		rs[i] = genomics.Read{ID: fmt.Sprint("r", i), Seq: seq, Qual: qual}
		got[i] = a.AlignRead(rs[i], &s)
	}
	for i, r := range rs {
		if want := m.alignRead(r); !reflect.DeepEqual(got[i], want) {
			return fmt.Errorf("cfg %+v read %q:\n got %+v\nwant %+v", cfg, r.Seq, got[i], want)
		}
	}
	return nil
}

// TestBucketIndexMatchesMapIndex: the bucketed index proposes the same
// candidates in the same order as the map index it replaced, so AlignRead
// output is identical — across seed lengths 1–32, strides, mismatch
// limits, N runs and soft-masking in the reference, and N and lowercase
// bytes in reads.
func TestBucketIndexMatchesMapIndex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{K: 1 + rng.Intn(maxK), SeedStride: rng.Intn(40), MaxMismatches: rng.Intn(12)}
		ref := genomics.Sequence{Name: "chr1", Seq: randomReference(rng, cfg.K+rng.Intn(1500))}
		reads := make([][]byte, 60)
		for i := range reads {
			reads[i] = randomRead(rng, ref.Seq)
		}
		if err := sameAsMapIndex(ref, cfg, reads); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBucketIndex compares the two indexes on fuzzed reference and read
// bytes, each folded onto ACGTN in both cases (the reference) or that plus
// one invalid byte (the reads). The two reads go through one scratch.
func FuzzBucketIndex(f *testing.F) {
	f.Add([]byte("ACGTACGTTTGACNNACGTAGCTAGCTAGGA"), []byte("GTAGCTAGC"), []byte("TCCTAGCTAGCTA"), uint8(4), uint8(0), uint8(0))
	f.Add([]byte("acgtNNNNacgtACGTacgtAAAAAAAAAAAAAAAAAAAA"), []byte("AAAAAAAAAAAAA"), []byte("TTTTTTTTTT"), uint8(3), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, rawRef, rawRead, rawRead2 []byte, k, stride, mm uint8) {
		fold := func(raw []byte, alphabet string) []byte {
			out := make([]byte, len(raw))
			for i, b := range raw {
				out[i] = alphabet[int(b)%len(alphabet)]
			}
			return out
		}
		ref := genomics.Sequence{Name: "chr1", Seq: fold(rawRef, "ACGTNacgtn")}
		cfg := Config{K: 1 + int(k)%maxK, SeedStride: int(stride % 40), MaxMismatches: int(mm % 12)}
		if Check(ref, cfg) != nil {
			return
		}
		reads := [][]byte{fold(rawRead, "ACGTNacgtnX"), fold(rawRead2, "ACGTNacgtnX")}
		if err := sameAsMapIndex(ref, cfg, reads); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHammingCountsExactlyUpToLimit: the word-at-a-time count equals the
// full byte-at-a-time count whenever that is within the limit, and exceeds
// the limit otherwise.
func TestHammingCountsExactlyUpToLimit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(70)
		a, b := randomReference(rng, n), randomReference(rng, n)
		for i := range b {
			if rng.Intn(3) > 0 {
				b[i] = a[i]
			}
		}
		want := byteHamming(a, b, n)
		limit := rng.Intn(n + 2)
		got := hamming(a, b, limit)
		if want <= limit {
			return got == want
		}
		return got > limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSoftMaskedReferenceMapsLikeUppercase: lowercase (soft-masked) bases
// are ordinary bases to the aligner, so reads land where they land on the
// uppercase form of the same reference.
func TestSoftMaskedReferenceMapsLikeUppercase(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	upper := genomics.GenerateReference(rng, "chr1", 5000)
	masked := genomics.Sequence{Name: "chr1", Seq: append([]byte(nil), upper.Seq...)}
	for i := 0; i < len(masked.Seq); i += 600 {
		copy(masked.Seq[i:], bytes.ToLower(masked.Seq[i:min(i+300, len(masked.Seq))]))
	}
	reads, err := genomics.SimulateReads(rng, upper, genomics.ReadSimConfig{Count: 200, Length: 100, ErrorRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	onUpper, _ := New(upper, Config{})
	onMasked, _ := New(masked, Config{})
	var s Scratch
	mapped := 0
	for _, r := range reads {
		want := onUpper.AlignRead(r, &s)
		if got := onMasked.AlignRead(r, &s); !reflect.DeepEqual(got, want) {
			t.Fatalf("read %s: soft-masked %+v, uppercase %+v", r.ID, got, want)
		}
		if !want.Unmapped() {
			mapped++
		}
	}
	if mapped < 190 {
		t.Fatalf("mapped %d/200 reads", mapped)
	}
}
