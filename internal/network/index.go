package network

import (
	"math"
	"slices"
	"sort"
)

// Index sorts the node values once; a node's edges lie in a window of
// ranks around its own. Rounded subtraction is monotone, so a window ends
// at the first value past Epsilon. Safe for concurrent use.
type Index struct {
	eps    float64
	sorted []float64 // the non-NaN values, ascending by (value, index)
	rank   []int32   // each node's position in sorted, -1 for NaN
}

// NewIndex builds the sorted index of nodes under cfg. It sorts contiguous
// (value, index) keys: -0 and +0 tie, and ties break by index.
func NewIndex(nodes []Node, cfg Config) *Index {
	type key struct {
		v float64
		a int32
	}
	keys := make([]key, 0, len(nodes))
	ix := &Index{eps: cfg.withDefaults().Epsilon, rank: make([]int32, len(nodes))}
	for a, nd := range nodes {
		ix.rank[a] = -1
		if !math.IsNaN(nd.Value) {
			keys = append(keys, key{nd.Value, int32(a)})
		}
	}
	slices.SortFunc(keys, func(x, y key) int {
		switch {
		case x.v < y.v:
			return -1
		case x.v > y.v:
			return 1
		}
		return int(x.a - y.a)
	})
	ix.sorted = make([]float64, len(keys))
	for r, k := range keys {
		ix.sorted[r], ix.rank[k.a] = k.v, int32(r)
	}
	return ix
}

// Pairs counts the edges whose lower-ranked end has a rank in [lo, hi):
// the rank pairs (r, j>r) with |value(r)-value(j)| <= Epsilon. Counts of
// consecutive rank ranges sum to the edge count. Ranks past the last are
// NaN nodes', which have no edges.
//
// A finite rank's later neighbours run up to the first value past
// Epsilon, and that end never moves back as the rank grows (rounded
// subtraction is monotone), so one pointer sweeps the range in
// O(hi-lo + one window). An infinite value is NaN away from its ties
// (Inf-Inf) and +Inf from the rest: a -Inf has every later rank but its
// ties under an infinite Epsilon and none otherwise, and a +Inf's later
// ranks are all its ties.
func (ix *Index) Pairs(lo, hi int) int {
	s, n := ix.sorted, 0
	negInf := sort.SearchFloat64s(s, -math.MaxFloat64) // -Inf ties end here
	for r, j := lo, lo; r < min(hi, len(s)); r++ {
		switch {
		case math.IsInf(s[r], -1):
			if math.IsInf(ix.eps, 1) {
				n += len(s) - negInf
			}
		case math.IsInf(s[r], 1):
		default:
			j = max(j, r+1)
			for j < len(s) && s[j]-s[r] <= ix.eps {
				j++
			}
			n += j - r - 1
		}
	}
	return n
}

// Modules returns the connected components of the edges the index implies:
// each component's node indexes ascending, components ordered by their
// smallest member. An edge between ranks i < j means every rank-adjacent
// gap between them is within Epsilon too, as rounded subtraction is
// monotone, so a component is a maximal run of such gaps. A NaN node is a
// singleton, and so is an infinite one under a finite Epsilon (its gaps are
// infinite or NaN). Under an infinite Epsilon every non-NaN pair is an edge
// except two equal infinities, so all the non-NaN nodes form one component
// unless they are all the same infinity.
func (ix *Index) Modules() [][]int {
	s := ix.sorted
	whole := math.IsInf(ix.eps, 1) && len(s) > 0 && !(math.IsInf(s[0], 0) && s[0] == s[len(s)-1])
	run := make([]int32, len(s)) // each rank's run
	for r := 1; r < len(s); r++ {
		run[r] = run[r-1]
		if !whole && !(s[r]-s[r-1] <= ix.eps) {
			run[r]++
		}
	}
	// An ascending pass over the nodes numbers the modules by first member.
	out, at := [][]int{}, make([]int32, len(s)) // each run's module plus one
	for a, r := range ix.rank {
		m := len(out)
		switch {
		case r < 0: // NaN
		case at[run[r]] > 0:
			m = int(at[run[r]]) - 1
		default:
			at[run[r]] = int32(m) + 1
		}
		if m == len(out) {
			out = append(out, nil)
		}
		out[m] = append(out[m], a)
	}
	return out
}
