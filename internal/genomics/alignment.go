package genomics

import (
	"cmp"
	"slices"
)

// Flag bits used by the toolkit (SAM's values).
const (
	FlagUnmapped      = 0x4
	FlagReverseStrand = 0x10
)

// Alignment is one read placed on its dataset's reference. The aligner is
// ungapped, so a mapped read matches the len(Seq) bases from Pos.
type Alignment struct {
	Pos  int // 1-based leftmost position; 0 when unmapped
	Flag int
	MapQ int
	NM   int    // edit distance; -1 when unmapped
	Seq  []byte // reverse-complemented on the reverse strand
	Qual []byte
}

// Unmapped reports whether the record has the unmapped flag set.
func (a Alignment) Unmapped() bool { return a.Flag&FlagUnmapped != 0 }

// End returns the 1-based inclusive end position covered on the reference.
func (a Alignment) End() int {
	if a.Unmapped() {
		return 0
	}
	return a.Pos + len(a.Seq) - 1
}

// compareAlignments orders records by position, unmapped records last.
func compareAlignments(a, b *Alignment) int {
	if au, bu := a.Unmapped(), b.Unmapped(); au != bu {
		if au {
			return 1
		}
		return -1
	}
	return cmp.Compare(a.Pos, b.Pos)
}

// SortAlignments stably orders records by position, unmapped records last:
// coordinate order. It sorts an index permutation, ties broken on the
// original index, then moves each record once.
func SortAlignments(alns []Alignment) {
	perm := make([]int32, len(alns))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int {
		if c := compareAlignments(&alns[i], &alns[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	// Position i takes the record at perm[i]: follow each cycle of the
	// permutation once, marking visited positions with perm[i] = i.
	for i := range perm {
		if int(perm[i]) == i {
			continue
		}
		held := alns[i]
		j := i
		for {
			next := int(perm[j])
			perm[j] = int32(j)
			if next == i {
				alns[j] = held
				break
			}
			alns[j] = alns[next]
			j = next
		}
	}
}

// MergeSorted merges coordinate-sorted alignment slices into one sorted
// slice (the merge step after parallel per-shard alignment). Equal records
// keep group order, so the result is SortAlignments of the groups'
// concatenation; a group that is not sorted breaks that.
func MergeSorted(groups ...[]Alignment) []Alignment {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	out := make([]Alignment, 0, total)
	// heads is a binary min-heap of the groups not yet drained, ordered by
	// each one's next record, then by group index.
	next := make([]int, len(groups))
	heads := make([]int, 0, len(groups))
	less := func(g, h int) bool {
		if c := compareAlignments(&groups[g][next[g]], &groups[h][next[h]]); c != 0 {
			return c < 0
		}
		return g < h
	}
	down := func(i int) {
		for {
			least, l := i, 2*i+1
			if l < len(heads) && less(heads[l], heads[least]) {
				least = l
			}
			if r := l + 1; r < len(heads) && less(heads[r], heads[least]) {
				least = r
			}
			if least == i {
				return
			}
			heads[i], heads[least] = heads[least], heads[i]
			i = least
		}
	}
	for g := range groups {
		if len(groups[g]) > 0 {
			heads = append(heads, g)
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heads) > 0 {
		g := heads[0]
		out = append(out, groups[g][next[g]])
		if next[g]++; next[g] == len(groups[g]) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return out
}
