package shard

import (
	"fmt"
	"sort"

	"scan/internal/genomics"
)

// Region is a 1-based inclusive interval on a reference sequence, the unit
// of GATK-style scatter-gather over coordinate-sorted alignments.
type Region struct {
	Start, End int
}

// Len returns the number of positions covered.
func (r Region) Len() int { return r.End - r.Start + 1 }

// String renders the region as "start-end".
func (r Region) String() string { return fmt.Sprintf("%d-%d", r.Start, r.End) }

// Regions divides a reference of refLen bases into n contiguous regions
// whose sizes differ by at most one base.
func Regions(refLen, n int) ([]Region, error) {
	if n <= 0 {
		return nil, ErrBadShardSize
	}
	if refLen <= 0 {
		return nil, fmt.Errorf("shard: non-positive reference length %d", refLen)
	}
	if n > refLen {
		n = refLen
	}
	out := make([]Region, 0, n)
	base := refLen / n
	rem := refLen % n
	start := 1
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Region{Start: start, End: start + size - 1})
		start += size
	}
	return out, nil
}

// SliceByRegion returns, for each region, the run of alns whose mapped
// records start in [Start−pad, End]. With pad 0 every mapped record lies in
// exactly one run, its start's region's; with pad one less than the longest
// read, a region's run holds every record that overlaps it. alns must be
// coordinate-sorted, unmapped records last (genomics.SortAlignments,
// MergeSorted). The runs alias alns, and each one's capacity ends with it.
func SliceByRegion(alns []genomics.Alignment, regions []Region, pad int) [][]genomics.Alignment {
	mapped := alns[:sort.Search(len(alns), func(i int) bool { return alns[i].Unmapped() })]
	from := func(pos int) int {
		return sort.Search(len(mapped), func(i int) bool { return mapped[i].Pos >= pos })
	}
	parts := make([][]genomics.Alignment, len(regions))
	for i, r := range regions {
		lo, hi := from(r.Start-pad), from(r.End+1)
		parts[i] = mapped[lo:hi:hi]
	}
	return parts
}
