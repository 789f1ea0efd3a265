package genomics

import (
	"cmp"
	"fmt"
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

// SortAlignments' packed key is (unmapped, Pos, input index) in bits 63,
// 31–62 and 0–30 of a uint64, so it holds a Pos of at most maxSortPos and
// at most 2^31 records. Every record the aligner makes fits, since its
// positions are int32 offsets (Pos at most 2^31), and so does every shard
// of a registry dataset, since an upload holds at most 500 000 reads.
const (
	maxSortPos = 1<<32 - 1
	indexMask  = 1<<31 - 1
)

// SortAlignments stably orders records by position, unmapped records last:
// coordinate order. It packs each record's (unmapped, Pos, input index)
// into one uint64 key, sorts the keys, then moves each record once. It
// panics on a Pos outside [0, maxSortPos], which the key cannot order.
func SortAlignments(alns []Alignment) {
	perm := make([]uint64, len(alns))
	for i := range alns {
		a := &alns[i]
		if uint64(a.Pos) > maxSortPos {
			panic(fmt.Sprintf("genomics: SortAlignments: position %d outside the packed key's [0, %d]", a.Pos, maxSortPos))
		}
		perm[i] = uint64(a.Pos)<<31 | uint64(i)
		if a.Unmapped() {
			perm[i] |= 1 << 63
		}
	}
	slices.Sort(perm)
	for i := range perm {
		perm[i] &= indexMask
	}
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
			perm[j] = uint64(j)
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
