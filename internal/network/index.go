package network

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Index sorts the node values once; a node's edges lie in a window walked
// outward from its rank. Rounded subtraction is monotone, so the walk may
// stop at the first value past Epsilon. Safe for concurrent use.
type Index struct {
	eps    float64
	order  []int32   // the non-NaN nodes, ascending by (value, index)
	sorted []float64 // their values
	rank   []int32   // each node's position in order, -1 for NaN
}

// NewIndex builds the sorted index of nodes under cfg.
func NewIndex(nodes []Node, cfg Config) *Index {
	ix := &Index{eps: cfg.withDefaults().Epsilon, order: make([]int32, 0, len(nodes)), rank: make([]int32, len(nodes))}
	for a, nd := range nodes {
		ix.rank[a] = -1
		if !math.IsNaN(nd.Value) {
			ix.order = append(ix.order, int32(a))
		}
	}
	slices.SortFunc(ix.order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(nodes[a].Value, nodes[b].Value), cmp.Compare(a, b))
	})
	ix.sorted = make([]float64, len(ix.order))
	for r, a := range ix.order {
		ix.rank[a], ix.sorted[r] = int32(r), nodes[a].Value
	}
	return ix
}

// window returns the ranks [lo, hi) of the nodes within Epsilon of node a,
// a itself included if finite. An infinite value is NaN away from its ties
// (Inf-Inf), +Inf from the rest: its walk starts outside its tie group.
func (ix *Index) window(a int) (va float64, lo, hi int) {
	r := int(ix.rank[a])
	if r < 0 {
		return 0, 0, 0
	}
	va, lo, hi = ix.sorted[r], r, r+1
	if math.IsInf(va, 0) { // where -Inf's tie group ends, or +Inf's starts
		lo = sort.SearchFloat64s(ix.sorted, max(va, -math.MaxFloat64))
		hi = lo
	}
	for lo > 0 && math.Abs(va-ix.sorted[lo-1]) <= ix.eps {
		lo--
	}
	for hi < len(ix.sorted) && math.Abs(va-ix.sorted[hi]) <= ix.eps {
		hi++
	}
	return va, lo, hi
}

// Count returns how many edges AppendEdges emits for [lo, hi).
func (ix *Index) Count(lo, hi int) int {
	n := 0
	for a := lo; a < hi; a++ {
		_, wlo, whi := ix.window(a)
		for _, b := range ix.order[wlo:whi] {
			if int(b) > a {
				n++
			}
		}
	}
	return n
}

// AppendEdges appends, in (A, B) order, the edges (a, b>a) for a in [lo, hi)
// with |value(a)-value(b)| <= Epsilon, weighted by closeness: consecutive
// ranges' slabs concatenate into the canonical edge set.
func (ix *Index) AppendEdges(dst []Edge, lo, hi int) []Edge {
	var buf [128]int32 // a node's later neighbours, unless it has more
	for a := lo; a < hi; a++ {
		va, wlo, whi := ix.window(a)
		later := buf[:0]
		for _, b := range ix.order[wlo:whi] {
			if int(b) > a {
				later = append(later, b)
			}
		}
		slices.Sort(later)
		for _, b := range later {
			d := math.Abs(va - ix.sorted[ix.rank[b]])
			dst = append(dst, Edge{A: a, B: int(b), Weight: 1 - d/ix.eps})
		}
	}
	return dst
}
