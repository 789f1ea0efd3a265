// Package variant implements the pileup-based SNV caller that stands in
// for the GATK variant-calling stages of the paper's pipeline. A caller
// covers one region of the reference: alignments are folded into base
// counts at the region's positions, and positions where a non-reference
// allele reaches the configured depth and allele-fraction thresholds are
// called with a simplified Phred-style quality.
package variant

import (
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
}

// baseErrorRate is the per-base sequencing error the quality model
// assumes.
const baseErrorRate = 0.01

func (c *Config) fill() {
	if c.MinDepth <= 0 {
		c.MinDepth = 4
	}
	if c.MinAltFraction <= 0 {
		c.MinAltFraction = 0.3
	}
}

// Caller accumulates a pileup over one region of a reference and calls
// SNVs in it.
type Caller struct {
	cfg    Config
	ref    genomics.Sequence
	start  int         // the region's first position, 0-based
	counts [][4]uint32 // per region position: A/C/G/T counts
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

// NewCaller returns a caller over the 1-based inclusive region [start, end]
// of ref, clipped to the reference.
func NewCaller(ref genomics.Sequence, start, end int, cfg Config) *Caller {
	cfg.fill()
	start, end = max(start, 1), min(end, ref.Len())
	n := 0
	if end >= start {
		n = end - start + 1
	}
	return &Caller{
		cfg:    cfg,
		ref:    ref,
		start:  start - 1,
		counts: make([][4]uint32, n),
		depth:  make([]uint32, n),
	}
}

// Add folds the bases of one alignment that lie inside the region into the
// pileup. They are the bases of reads[a.Read], complemented and read
// backwards on the reverse strand. Unmapped records are ignored; a record
// whose read is not in reads or has another length, or that runs off the
// reference, is an error.
func (c *Caller) Add(a genomics.Alignment, reads []genomics.Read) error {
	if a.Unmapped() {
		return nil
	}
	if a.Read < 0 || int(a.Read) >= len(reads) || len(reads[a.Read].Seq) != int(a.Len) {
		return fmt.Errorf("variant: %d-base alignment at %d names read %d of %d, not one of that length",
			a.Len, a.Pos, a.Read, len(reads))
	}
	seq := reads[a.Read].Seq
	start, n := a.Pos-1, len(seq)
	if start < 0 || start+n > c.ref.Len() {
		return fmt.Errorf("variant: %d-base read at %d overflows reference of %d bases",
			n, a.Pos, c.ref.Len())
	}
	// Read offsets [lo, hi), in reference orientation, fall inside the
	// region.
	lo := max(c.start-start, 0)
	hi := min(n, c.start+len(c.depth)-start)
	if lo >= hi {
		return nil
	}
	at := start + lo - c.start
	counts, depth := c.counts[at:at+hi-lo], c.depth[at:at+hi-lo]
	if a.Flag&genomics.FlagReverseStrand == 0 {
		for i, b := range seq[lo:hi] {
			if idx := baseIndex[b]; idx >= 0 { // N or other ambiguity code: not evidence
				counts[i][idx]++
				depth[i]++
			}
		}
		return nil
	}
	// Reference offset j holds the complement of read base n-1-j, and the
	// complement of base index x is 3-x.
	for i := range depth {
		if idx := baseIndex[seq[n-1-lo-i]]; idx >= 0 {
			counts[i][3-idx]++
			depth[i]++
		}
	}
	return nil
}

// Depth returns the pileup depth at 0-based reference position pos, which
// must lie in the region.
func (c *Caller) Depth(pos int) int { return int(c.depth[pos-c.start]) }

// Call scans the region's pileup and returns its SNVs sorted by position.
func (c *Caller) Call() []genomics.Variant {
	var out []genomics.Variant
	for p, depth := range c.depth {
		if int(depth) < c.cfg.MinDepth {
			continue
		}
		pos := c.start + p
		refIdx := baseIndex[c.ref.Seq[pos]]
		bestAlt, bestCount := -1, uint32(0)
		for idx := 0; idx < 4; idx++ {
			if int8(idx) == refIdx {
				continue
			}
			if n := c.counts[p][idx]; n > bestCount {
				bestAlt, bestCount = idx, n
			}
		}
		if bestAlt < 0 || bestCount == 0 {
			continue
		}
		if float64(bestCount)/float64(depth) < c.cfg.MinAltFraction {
			continue
		}
		refBase := byte('N')
		if refIdx >= 0 {
			refBase = indexBase[refIdx]
		}
		out = append(out, genomics.Variant{
			Pos:  pos + 1,
			Ref:  refBase,
			Alt:  indexBase[bestAlt],
			Qual: c.quality(bestCount, depth),
		})
	}
	return out
}

// quality is a simplified Phred score: the probability that altCount
// observations arose from sequencing error alone, approximated as
// e^altCount, converted to -10·log10 and capped at 1000.
func (c *Caller) quality(altCount, depth uint32) float64 {
	q := -10 * float64(altCount) * math.Log10(baseErrorRate)
	if q > 1000 {
		q = 1000
	}
	return math.Round(q*10) / 10
}
