package shard

import (
	"fmt"

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

// Contains reports whether the 1-based position lies inside the region.
func (r Region) Contains(pos int) bool { return pos >= r.Start && pos <= r.End }

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

// PartitionByRegion assigns each mapped alignment to the region containing
// its start position (so every record lands in exactly one shard) and
// returns per-region slices plus the unmapped remainder.
func PartitionByRegion(alns []genomics.Alignment, regions []Region) (parts [][]genomics.Alignment, unmapped []genomics.Alignment) {
	parts = make([][]genomics.Alignment, len(regions))
	for _, a := range alns {
		if a.Unmapped() {
			unmapped = append(unmapped, a)
			continue
		}
		idx := findRegion(regions, a.Pos)
		if idx < 0 {
			// Outside every region (shouldn't happen with full coverage);
			// treat as unmapped so no data is silently dropped.
			unmapped = append(unmapped, a)
			continue
		}
		parts[idx] = append(parts[idx], a)
	}
	return parts, unmapped
}

// PartitionByOverlap assigns each mapped alignment to every region it
// overlaps (not just the one containing its start), so a pileup built per
// region sees full coverage at region boundaries. A caller that emits
// variants only inside its own region still produces each call exactly
// once, with no evidence lost to the boundary — the correct GATK-style
// scatter. Unmapped records are returned separately. A first pass counts
// each region's records, so every part is allocated once at its size.
func PartitionByOverlap(alns []genomics.Alignment, regions []Region) (parts [][]genomics.Alignment, unmapped []genomics.Alignment) {
	// span returns the regions [first, last) that a overlaps; first is -1
	// for an unmapped record or one outside every region.
	span := func(a *genomics.Alignment) (first, last int) {
		if a.Unmapped() {
			return -1, -1
		}
		if first = findRegion(regions, a.Pos); first < 0 {
			return -1, -1
		}
		end := a.End()
		for last = first; last < len(regions) && regions[last].Start <= end; last++ {
		}
		return first, last
	}
	sizes := make([]int, len(regions))
	for i := range alns {
		first, last := span(&alns[i])
		for r := first; r < last; r++ {
			sizes[r]++
		}
	}
	parts = make([][]genomics.Alignment, len(regions))
	for r, n := range sizes {
		if n > 0 {
			parts[r] = make([]genomics.Alignment, 0, n)
		}
	}
	for i := range alns {
		first, last := span(&alns[i])
		if first < 0 {
			unmapped = append(unmapped, alns[i])
		}
		for r := first; r < last; r++ {
			parts[r] = append(parts[r], alns[i])
		}
	}
	return parts, unmapped
}

// findRegion locates the region containing pos by binary search; regions
// must be sorted and non-overlapping (as produced by Regions).
func findRegion(regions []Region, pos int) int {
	lo, hi := 0, len(regions)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		r := regions[mid]
		switch {
		case pos < r.Start:
			hi = mid - 1
		case pos > r.End:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}
