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
//
// A read's lookups are batched, since they are cache misses rather than
// work: AlignRead encodes the seeds of both strands before it looks any up,
// so the lookups' misses overlap, gathers each strand's distinct candidates
// in seed order, then position order, and only then verifies them, eight
// bytes per step. Its buffers live in a Scratch that one shard reuses for
// all of its reads, so a read that maps forward, or not at all, allocates
// nothing; a reverse-strand record takes one exact buffer for its bases and
// qualities.
package align

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

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

const noBase = 4 // a bit of its own, above the 2-bit codes

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

// Scratch is the working memory AlignRead reuses from read to read: the
// reverse-complement probe, the seed probes and the candidate lists. One
// shard owns one Scratch and aligns its reads with it one at a time; the
// zero value is ready. No record points into it.
type Scratch struct {
	rc     []byte
	probes []probe
	nhits  [][]int32  // side-table positions of the read's N-holding seeds
	cands  [2][]int32 // forward, reverse strand
	ends   []int32
}

// probe is one seed of one strand: its offset in the strand and, for an
// A/C/G/T-only seed (n = 0), its code. A seed that holds any other byte has
// its positions in Scratch.nhits[n-1].
type probe struct {
	code uint64
	off  int32
	n    int32
}

// AlignRead maps one read, returning its alignment (possibly unmapped). A
// forward or unmapped record aliases the read's Seq and Qual; a reverse
// one holds them reverse-complemented and reversed in a buffer of its own.
func (a *Aligner) AlignRead(r genomics.Read, s *Scratch) genomics.Alignment {
	n := len(r.Seq)
	s.rc = slices.Grow(s.rc[:0], n)[:n]
	for i, b := range r.Seq {
		s.rc[n-1-i] = complement[b]
	}
	// Both strands' probes are encoded first, so that the bucket reads of
	// all of them overlap their cache misses; then each strand's candidates
	// are gathered and verified in seed order, then position order.
	s.probes, s.nhits = s.probes[:0], s.nhits[:0]
	a.seeds(s, r.Seq)
	a.seeds(s, s.rc)
	half := len(s.probes) / 2
	s.cands[0] = a.candidates(s.cands[0][:0], s, s.probes[:half], n)
	s.cands[1] = a.candidates(s.cands[1][:0], s, s.probes[half:], n)
	fwd, fwdMM, fwdSecond := a.bestPlacement(s.cands[0], r.Seq)
	rev, revMM, revSecond := a.bestPlacement(s.cands[1], s.rc)

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
		Seq:  r.Seq,
		Qual: r.Qual,
	}
	if reverse {
		aln.Flag |= genomics.FlagReverseStrand
		buf := make([]byte, n+len(r.Qual))
		aln.Seq, aln.Qual = buf[:n:n], buf[n:]
		copy(aln.Seq, s.rc)
		for i, q := range r.Qual {
			aln.Qual[len(r.Qual)-1-i] = q
		}
	}
	return aln
}

// seeds appends seq's probes to s.probes: a seed every SeedStride bases,
// plus one at the read tail so trailing-unique reads map. Reads shorter
// than K have none.
func (a *Aligner) seeds(s *Scratch, seq []byte) {
	k := a.cfg.K
	for off := 0; off+k <= len(seq); off += a.cfg.SeedStride {
		a.seed(s, seq[off:off+k], off)
	}
	if tail := len(seq) - k; tail > 0 && tail%a.cfg.SeedStride != 0 {
		a.seed(s, seq[tail:], tail)
	}
}

// seed appends the probe of kmer, found at offset off of its strand. The
// encoding loop has no branch: noBase's bit marks a byte outside A/C/G/T,
// and such a k-mer looks up the side table instead.
func (a *Aligner) seed(s *Scratch, kmer []byte, off int) {
	var code uint64
	var seen byte
	for _, b := range kmer {
		c := baseCode[b]
		seen |= c
		code = code<<2 | uint64(c&3)
	}
	pr := probe{code: code, off: int32(off)}
	if seen&noBase != 0 {
		s.nhits = append(s.nhits, a.idx.nkmers[string(kmer)])
		pr.n = int32(len(s.nhits))
	}
	s.probes = append(s.probes, pr)
}

// candidates appends to dst the distinct placements on the reference that
// probes propose for a strand of n bases, in seed order, then position
// order. A seed's hits ascend, so each seed adds one ascending run, and a
// placement can repeat only an earlier run: add binary-searches those,
// which keeps a repetitive reference's thousands of hits per seed from
// costing a quadratic scan: BenchmarkAlignRepetitive runs about 12 times
// slower with a linear scan on a period-11 repeat, and 90 times on a run
// of A.
func (a *Aligner) candidates(dst []int32, s *Scratch, probes []probe, n int) []int32 {
	ends := s.ends[:0]
	for _, pr := range probes {
		if x := &a.idx; pr.n == 0 {
			b := pr.code >> x.shift
			for e := x.start[b]; e < x.start[b+1]; e++ {
				if x.codes[e] == pr.code {
					dst = a.add(dst, ends, x.pos[e]-pr.off, n)
				}
			}
		} else {
			for _, p := range s.nhits[pr.n-1] {
				dst = a.add(dst, ends, p-pr.off, n)
			}
		}
		ends = append(ends, int32(len(dst)))
	}
	s.ends = ends
	return dst
}

// add appends placement c to dst unless n bases from c overrun the
// reference or an earlier run, ending at ends, already holds c.
func (a *Aligner) add(dst, ends []int32, c int32, n int) []int32 {
	if c < 0 || int(c)+n > len(a.seq) {
		return dst
	}
	lo := int32(0)
	for _, hi := range ends {
		if _, ok := slices.BinarySearch(dst[lo:hi], c); ok {
			return dst
		}
		lo = hi
	}
	return append(dst, c)
}

// bestPlacement verifies cands against seq in order, returning the 0-based
// best candidate position, its mismatch count, and the mismatch count of
// the second-best distinct candidate (none when there is none). pos is -1
// when there was no candidate.
func (a *Aligner) bestPlacement(cands []int32, seq []byte) (pos, mismatches, second int) {
	const none = 1 << 30
	pos, mismatches, second = -1, none, none
	for _, c := range cands {
		// Counting beyond the current second-best cannot change the result,
		// so use it as the early-exit limit.
		mm := hamming(a.seq[c:int(c)+len(seq)], seq, min(second, len(seq)))
		switch {
		case mm < mismatches:
			second = mismatches
			mismatches = mm
			pos = int(c)
		case mm < second:
			second = mm
		}
	}
	return
}

// hamming counts mismatches between equal-length slices, eight bytes at a
// time, giving up once the count exceeds limit: past the limit it returns
// some count above limit, not necessarily the exact one.
func hamming(a, b []byte, limit int) int {
	mm, i := 0, 0
	for ; i+8 <= len(a); i += 8 {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		if x == 0 {
			continue
		}
		// Fold each byte's bits onto its lowest: one bit per differing byte.
		x |= x >> 4
		x |= x >> 2
		x |= x >> 1
		if mm += bits.OnesCount64(x & 0x0101010101010101); mm > limit {
			return mm
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			mm++
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
