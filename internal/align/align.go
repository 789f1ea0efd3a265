// Package align implements the read aligner that stands in for BWA in the
// SCAN platform: a k-mer seed-and-extend mapper against a single reference
// sequence. It indexes every k-mer of the reference, seeds candidate
// placements from several read offsets, verifies candidates by Hamming
// distance (the synthetic read simulator produces substitution errors
// only), and emits SAM records with mapping qualities derived from the gap
// between the best and second-best placements.
package align

import (
	"errors"
	"fmt"

	"scan/internal/genomics"
)

// Config controls alignment.
type Config struct {
	// K is the seed length (default 16).
	K int
	// SeedStride is the distance between seed offsets within the read
	// (default K, i.e. non-overlapping seeds).
	SeedStride int
	// MaxMismatches is the largest Hamming distance accepted before a read
	// is reported unmapped (default 6).
	MaxMismatches int
}

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
	cfg   Config
	ref   genomics.Sequence
	seeds map[string][]int32
}

// Check's (and so New's) errors: a reference shorter than the seed length,
// or one holding a byte outside ACGTN.
var (
	ErrShortReference = errors.New("align: reference shorter than seed length")
	ErrBadReference   = errors.New("align: bad reference")
)

// Check validates ref for alignment under cfg without indexing it: at
// least K bases, every one valid. New fails exactly when Check does.
func Check(ref genomics.Sequence, cfg Config) error {
	cfg.fill()
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
	a := &Aligner{cfg: cfg, ref: ref, seeds: make(map[string][]int32)}
	seq := genomics.Upper(ref.Seq)
	for i := 0; i+cfg.K <= len(seq); i++ {
		kmer := string(seq[i : i+cfg.K])
		a.seeds[kmer] = append(a.seeds[kmer], int32(i))
	}
	return a, nil
}

// AlignRead maps one read, returning a SAM record (possibly unmapped).
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
		return genomics.Alignment{
			QName: r.ID, Flag: genomics.FlagUnmapped,
			Seq: r.Seq, Qual: r.Qual, NM: -1,
		}
	}
	aln := genomics.Alignment{
		QName: r.ID,
		RName: a.ref.Name,
		Pos:   best + 1, // SAM is 1-based
		MapQ:  mapQ(bestMM, second, a.cfg.MaxMismatches),
		CIGAR: fmt.Sprintf("%dM", len(r.Seq)),
		NM:    bestMM,
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
		if cand < 0 || int(cand)+len(seq) > a.ref.Len() {
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
		mm := hamming(a.ref.Seq[cand:int(cand)+len(seq)], seq, limit)
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
		kmer := string(seq[off : off+a.cfg.K])
		for _, p := range a.seeds[kmer] {
			consider(p - int32(off))
		}
	}
	// Also seed from the read tail so trailing-unique reads map.
	if tail := len(seq) - a.cfg.K; tail > 0 && tail%a.cfg.SeedStride != 0 {
		kmer := string(seq[tail:])
		for _, p := range a.seeds[kmer] {
			consider(p - int32(tail))
		}
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

// AlignAll maps every read and returns coordinate-sorted records along with
// the number that mapped.
func (a *Aligner) AlignAll(reads []genomics.Read) (alns []genomics.Alignment, mapped int) {
	alns = make([]genomics.Alignment, 0, len(reads))
	for _, r := range reads {
		aln := a.AlignRead(r)
		if !aln.Unmapped() {
			mapped++
		}
		alns = append(alns, aln)
	}
	genomics.SortAlignments(alns)
	return alns, mapped
}

// ReverseComplement returns the reverse complement of seq (N maps to N).
func ReverseComplement(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		out[len(seq)-1-i] = complement(b)
	}
	return out
}

func complement(b byte) byte {
	switch b {
	case 'A', 'a':
		return 'T'
	case 'C', 'c':
		return 'G'
	case 'G', 'g':
		return 'C'
	case 'T', 't':
		return 'A'
	default:
		return 'N'
	}
}

func reverseBytes(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[len(b)-1-i] = b[i]
	}
	return out
}
