// Package variant implements the pileup-based SNV caller that stands in
// for the GATK variant-calling stages of the paper's pipeline. Alignments
// are accumulated into per-position base counts; positions where a non-
// reference allele reaches the configured depth and allele-fraction
// thresholds are emitted as VCF records with a simplified Phred-style
// quality.
package variant

import (
	"errors"
	"fmt"
	"math"

	"scan/internal/genomics"
)

// Config controls variant calling.
type Config struct {
	// MinDepth is the minimum total coverage at a site (default 4).
	MinDepth int
	// MinAltFraction is the minimum fraction of reads supporting the
	// alternate allele (default 0.3).
	MinAltFraction float64
	// BaseErrorRate is the assumed per-base sequencing error used for the
	// quality model (default 0.01).
	BaseErrorRate float64
}

func (c *Config) fill() {
	if c.MinDepth <= 0 {
		c.MinDepth = 4
	}
	if c.MinAltFraction <= 0 {
		c.MinAltFraction = 0.3
	}
	if c.BaseErrorRate <= 0 {
		c.BaseErrorRate = 0.01
	}
}

// Caller accumulates a pileup over one reference and calls SNVs.
type Caller struct {
	cfg    Config
	ref    genomics.Sequence
	counts [][4]uint32 // per-position A/C/G/T counts
	depth  []uint32
}

var baseIndex = [256]int8{}

func init() {
	for i := range baseIndex {
		baseIndex[i] = -1
	}
	baseIndex['A'], baseIndex['a'] = 0, 0
	baseIndex['C'], baseIndex['c'] = 1, 1
	baseIndex['G'], baseIndex['g'] = 2, 2
	baseIndex['T'], baseIndex['t'] = 3, 3
}

var indexBase = [4]byte{'A', 'C', 'G', 'T'}

// ErrWrongReference is returned when an alignment references a different
// sequence than the caller's reference.
var ErrWrongReference = errors.New("variant: alignment references a different sequence")

// NewCaller returns a caller over ref.
func NewCaller(ref genomics.Sequence, cfg Config) *Caller {
	cfg.fill()
	return &Caller{
		cfg:    cfg,
		ref:    ref,
		counts: make([][4]uint32, ref.Len()),
		depth:  make([]uint32, ref.Len()),
	}
}

// Add folds one alignment into the pileup. Unmapped records are ignored.
// Only pure-match CIGARs (the aligner's output) are supported; soft-clips
// and indels are rejected.
func (c *Caller) Add(a genomics.Alignment) error {
	if a.Unmapped() {
		return nil
	}
	if a.RName != c.ref.Name {
		return fmt.Errorf("%w: got %q, want %q", ErrWrongReference, a.RName, c.ref.Name)
	}
	if !pureMatch(a.CIGAR, len(a.Seq)) {
		return fmt.Errorf("variant: unsupported CIGAR %q for read %q", a.CIGAR, a.QName)
	}
	start := a.Pos - 1
	if start < 0 || start+len(a.Seq) > c.ref.Len() {
		return fmt.Errorf("variant: read %q at %d overflows reference of %d bases",
			a.QName, a.Pos, c.ref.Len())
	}
	for i, b := range a.Seq {
		idx := baseIndex[b]
		if idx < 0 {
			continue // N or other ambiguity code: not evidence
		}
		c.counts[start+i][idx]++
		c.depth[start+i]++
	}
	return nil
}

// pureMatch reports whether cigar is exactly "<n>M" for the given length.
func pureMatch(cigar string, n int) bool {
	if len(cigar) < 2 || cigar[len(cigar)-1] != 'M' {
		return false
	}
	v := 0
	for i := 0; i < len(cigar)-1; i++ {
		d := cigar[i]
		if d < '0' || d > '9' {
			return false
		}
		v = v*10 + int(d-'0')
	}
	return v == n
}

// Depth returns the pileup depth at 0-based position pos.
func (c *Caller) Depth(pos int) int { return int(c.depth[pos]) }

// Call scans the pileup and returns SNVs sorted by position.
func (c *Caller) Call() []genomics.Variant {
	var out []genomics.Variant
	for pos := 0; pos < c.ref.Len(); pos++ {
		depth := c.depth[pos]
		if int(depth) < c.cfg.MinDepth {
			continue
		}
		refIdx := baseIndex[c.ref.Seq[pos]]
		bestAlt, bestCount := -1, uint32(0)
		for idx := 0; idx < 4; idx++ {
			if int8(idx) == refIdx {
				continue
			}
			if n := c.counts[pos][idx]; n > bestCount {
				bestAlt, bestCount = idx, n
			}
		}
		if bestAlt < 0 || bestCount == 0 {
			continue
		}
		frac := float64(bestCount) / float64(depth)
		if frac < c.cfg.MinAltFraction {
			continue
		}
		refBase := byte('N')
		if refIdx >= 0 {
			refBase = indexBase[refIdx]
		}
		out = append(out, genomics.Variant{
			Chrom: c.ref.Name,
			Pos:   pos + 1,
			Ref:   string(refBase),
			Alt:   string(indexBase[bestAlt]),
			Qual:  c.quality(bestCount, depth),
			Info:  fmt.Sprintf("DP=%d;AF=%.3f;AC=%d", depth, frac, bestCount),
		})
	}
	return out
}

// quality is a simplified Phred score: the probability that altCount
// observations arose from sequencing error alone, approximated as
// e^altCount, converted to -10·log10 and capped at 1000.
func (c *Caller) quality(altCount, depth uint32) float64 {
	q := -10 * float64(altCount) * math.Log10(c.cfg.BaseErrorRate)
	if q > 1000 {
		q = 1000
	}
	return math.Round(q*10) / 10
}
