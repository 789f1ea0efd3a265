// Package align implements the read aligner that stands in for BWA in the
// SCAN platform: a k-mer seed-and-extend mapper against a single reference
// sequence. It indexes every k-mer of the uppercased reference, seeds
// candidate placements from several read offsets, verifies candidates by
// Hamming distance against the same uppercased sequence (the synthetic read
// simulator produces substitution errors only), and emits ungapped
// alignment records with mapping qualities derived from the gap between the
// best and second-best placements.
//
// The seed index packs each A/C/G/T-only k-mer into a 2-bit code (so K is at
// most 32) and counting-sorts the codes into buckets keyed by their top
// bits: a lookup scans one bucket of about one entry. K-mers that hold an N
// live in a small side table keyed by their bytes.
package align

import (
	"errors"
	"fmt"
	"math/bits"

	"scan/internal/genomics"
)

// Config controls alignment.
type Config struct {
	// K is the seed length (default 16, at most 32).
	K int
	// SeedStride is the distance between seed offsets within the read
	// (default K, i.e. non-overlapping seeds).
	SeedStride int
	// MaxMismatches is the largest Hamming distance accepted before a read
	// is reported unmapped (default 6).
	MaxMismatches int
}

// maxK is the longest seed whose 2-bit code fits in a uint64.
const maxK = 32

func (c *Config) fill() {
	if c.K <= 0 {
		c.K = 16
	}
	if c.SeedStride <= 0 {
		c.SeedStride = c.K
	}
	if c.MaxMismatches <= 0 {
		c.MaxMismatches = 6
	}
}

// Aligner maps reads against one indexed reference.
type Aligner struct {
	cfg Config
	seq []byte // the uppercased reference, as indexed
	idx index
}

// index holds every k-mer position of the reference. The A/C/G/T-only
// k-mers are a CSR table: bucket b's entries are codes[start[b]:start[b+1]]
// with their positions in pos, ascending, where b is a code's top bits.
// K-mers holding an N are in nkmers.
type index struct {
	shift  uint // code >> shift is the bucket
	start  []int32
	codes  []uint64
	pos    []int32
	nkmers map[string][]int32
}

// Check's (and so New's) errors: a reference shorter than the seed length,
// one holding a byte outside ACGTN, or a seed longer than 32.
var (
	ErrShortReference = errors.New("align: reference shorter than seed length")
	ErrBadReference   = errors.New("align: bad reference")
	ErrBadConfig      = errors.New("align: bad config")
)

// Check validates ref for alignment under cfg without indexing it: a seed
// of at most 32 bases, at least K bases of reference, every one valid. New
// fails exactly when Check does.
func Check(ref genomics.Sequence, cfg Config) error {
	cfg.fill()
	if cfg.K > maxK {
		return fmt.Errorf("%w: seed length %d exceeds %d", ErrBadConfig, cfg.K, maxK)
	}
	if ref.Len() < cfg.K {
		return ErrShortReference
	}
	if err := genomics.ValidateBases(ref.Seq); err != nil {
		return fmt.Errorf("%w: %w", ErrBadReference, err)
	}
	return nil
}

// New checks ref and indexes every k-mer of it for alignment.
func New(ref genomics.Sequence, cfg Config) (*Aligner, error) {
	if err := Check(ref, cfg); err != nil {
		return nil, err
	}
	cfg.fill()
	a := &Aligner{cfg: cfg, seq: genomics.Upper(ref.Seq)}
	a.idx = buildIndex(a.seq, cfg.K)
	return a, nil
}

// baseCode maps A, C, G and T to their 2-bit codes and every other byte,
// lowercase included, to noBase: the index holds the uppercased reference,
// so only uppercase read bytes can match a packed k-mer.
var baseCode = func() (t [256]byte) {
	for i := range t {
		t[i] = noBase
	}
	t['A'], t['C'], t['G'], t['T'] = 0, 1, 2, 3
	return t
}()

const noBase = 4

// kmers calls fn for every k-mer start of seq, in order, with the k-mer's
// 2-bit code and whether it is A/C/G/T-only (the code is meaningless when
// it is not).
func kmers(seq []byte, k int, fn func(i int, code uint64, packed bool)) {
	mask := ^uint64(0) >> (64 - 2*k)
	var code uint64
	run := 0 // A/C/G/T bases ending at i
	for i, b := range seq {
		c := baseCode[b]
		if c == noBase {
			run = 0
		} else {
			code = (code<<2 | uint64(c)) & mask
			run++
		}
		if i >= k-1 {
			fn(i-k+1, code, run >= k)
		}
	}
}

func buildIndex(seq []byte, k int) index {
	n := len(seq) - k + 1
	bucketBits := min(bits.Len(uint(n-1)), 2*k)
	x := index{shift: uint(2*k - bucketBits), start: make([]int32, 1<<bucketBits+1)}
	packed := 0
	kmers(seq, k, func(_ int, code uint64, ok bool) {
		if ok {
			x.start[code>>x.shift+1]++
			packed++
		}
	})
	for b := 1; b < len(x.start); b++ {
		x.start[b] += x.start[b-1]
	}
	x.codes = make([]uint64, packed)
	x.pos = make([]int32, packed)
	fill := append([]int32(nil), x.start[:len(x.start)-1]...)
	kmers(seq, k, func(i int, code uint64, ok bool) {
		if !ok {
			if x.nkmers == nil {
				x.nkmers = make(map[string][]int32)
			}
			kmer := string(seq[i : i+k])
			x.nkmers[kmer] = append(x.nkmers[kmer], int32(i))
			return
		}
		b := code >> x.shift
		x.codes[fill[b]] = code
		x.pos[fill[b]] = int32(i)
		fill[b]++
	})
	return x
}

// hits calls fn with every reference position of kmer, ascending.
func (x *index) hits(kmer []byte, fn func(int32)) {
	var code uint64
	for _, b := range kmer {
		c := baseCode[b]
		if c == noBase {
			for _, p := range x.nkmers[string(kmer)] {
				fn(p)
			}
			return
		}
		code = code<<2 | uint64(c)
	}
	b := code >> x.shift
	for e := x.start[b]; e < x.start[b+1]; e++ {
		if x.codes[e] == code {
			fn(x.pos[e])
		}
	}
}

// AlignRead maps one read, returning its alignment (possibly unmapped).
func (a *Aligner) AlignRead(r genomics.Read) genomics.Alignment {
	fwd, fwdMM, fwdSecond := a.bestPlacement(r.Seq)
	rcSeq := ReverseComplement(r.Seq)
	rev, revMM, revSecond := a.bestPlacement(rcSeq)

	best, bestMM, second := fwd, fwdMM, fwdSecond
	reverse := false
	if revMM < bestMM {
		best, bestMM, second = rev, revMM, revSecond
		reverse = true
	} else if revMM == bestMM && rev >= 0 && fwd >= 0 && rev != fwd {
		// Equally good placement on the other strand: ambiguous.
		second = bestMM
	}

	if best < 0 || bestMM > a.cfg.MaxMismatches {
		return genomics.Alignment{Flag: genomics.FlagUnmapped, NM: -1, Seq: r.Seq, Qual: r.Qual}
	}
	aln := genomics.Alignment{
		Pos:  best + 1, // 1-based
		MapQ: mapQ(bestMM, second, a.cfg.MaxMismatches),
		NM:   bestMM,
	}
	if reverse {
		aln.Flag |= genomics.FlagReverseStrand
		aln.Seq = rcSeq
		aln.Qual = reverseBytes(r.Qual)
	} else {
		aln.Seq = r.Seq
		aln.Qual = r.Qual
	}
	return aln
}

// bestPlacement returns the 0-based best candidate position, its mismatch
// count, and the mismatch count of the second-best distinct candidate
// (maxInt when none). pos is -1 when no candidate was found.
func (a *Aligner) bestPlacement(seq []byte) (pos, mismatches, second int) {
	const none = 1 << 30
	pos, mismatches, second = -1, none, none
	if len(seq) < a.cfg.K {
		return
	}
	tried := make(map[int32]struct{})
	consider := func(cand int32) {
		if cand < 0 || int(cand)+len(seq) > len(a.seq) {
			return
		}
		if _, dup := tried[cand]; dup {
			return
		}
		tried[cand] = struct{}{}
		// Counting beyond the current second-best cannot change the result,
		// so use it as the early-exit limit.
		limit := second
		if limit > len(seq) {
			limit = len(seq)
		}
		mm := hamming(a.seq[cand:int(cand)+len(seq)], seq, limit)
		switch {
		case mm < mismatches:
			second = mismatches
			mismatches = mm
			pos = int(cand)
		case mm < second:
			second = mm
		}
	}
	for off := 0; off+a.cfg.K <= len(seq); off += a.cfg.SeedStride {
		a.idx.hits(seq[off:off+a.cfg.K], func(p int32) { consider(p - int32(off)) })
	}
	// Also seed from the read tail so trailing-unique reads map.
	if tail := len(seq) - a.cfg.K; tail > 0 && tail%a.cfg.SeedStride != 0 {
		a.idx.hits(seq[tail:], func(p int32) { consider(p - int32(tail)) })
	}
	return
}

// hamming counts mismatches between equal-length slices, giving up once the
// count exceeds limit (a standard early-exit optimisation).
func hamming(a, b []byte, limit int) int {
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

// mapQ converts the best/second-best mismatch gap to a Phred-scaled mapping
// quality in [0, 60], echoing how real mappers derive MAPQ.
func mapQ(best, second, maxMM int) int {
	if best > maxMM {
		return 0
	}
	if second >= 1<<29 {
		return 60 // unique placement
	}
	gap := second - best
	if gap <= 0 {
		return 0 // ambiguous
	}
	q := gap * 20
	if q > 60 {
		q = 60
	}
	return q
}

// ReverseComplement returns the reverse complement of seq (N maps to N).
func ReverseComplement(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		out[len(seq)-1-i] = complement[b]
	}
	return out
}

// complement maps each base, either case, to its uppercase complement and
// every other byte to N.
var complement = func() (t [256]byte) {
	for i := range t {
		t[i] = 'N'
	}
	for _, p := range []string{"AT", "CG", "GC", "TA"} {
		t[p[0]], t[p[0]|0x20] = p[1], p[1]
	}
	return t
}()

func reverseBytes(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[len(b)-1-i] = b[i]
	}
	return out
}
