package network

import (
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
	ix.order, ix.sorted = make([]int32, len(keys)), make([]float64, len(keys))
	for r, k := range keys {
		ix.order[r], ix.sorted[r], ix.rank[k.a] = k.a, k.v, int32(r)
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

// Slab appends range [lo, hi)'s slab to dst: in (A, B) order, the edges
// (a, b>a) for a in [lo, hi) with |value(a)-value(b)| <= Epsilon, weighted
// by closeness. Consecutive ranges' slabs concatenate into the canonical
// edge set. Slab calls poll, if non-nil, with the ordinal of each node a
// pass visits, and stops on its error, leaving dst unextended.
//
// The count pass walks each node's window in index order, unsorted; the
// later-neighbour counts place every node's run in one presized slab. The
// fill pass visits the nodes in rank (value) order and carries the window
// members, sorted by index, while the next visited rank lies inside the
// current window: it drops the members whose ranks left, sort-merges the
// ranks that entered, and a node's run is the suffix after a binary search
// for it. A node outside the carried window whose window misses the next
// rank sorts its later neighbours alone and carries nothing.
func (ix *Index) Slab(dst []Edge, lo, hi int, poll func(visited int) error) ([]Edge, error) {
	if poll == nil {
		poll = func(int) error { return nil }
	}
	type run struct{ lo, hi, at int } // a node's window and its run's offset
	runs, ranks := make([]run, hi-lo), make([]int32, 0, hi-lo+1)
	base, at, width := len(dst), len(dst), 0
	for a := lo; a < hi; a++ {
		if err := poll(a - lo); err != nil {
			return dst, err
		}
		_, wlo, whi := ix.window(a)
		runs[a-lo], width = run{wlo, whi, at}, max(width, whi-wlo)
		for _, b := range ix.order[wlo:whi] {
			if int(b) > a {
				at++
			}
		}
		if r := ix.rank[a]; r >= 0 {
			ranks = append(ranks, r)
		}
	}
	dst = slices.Grow(dst, at-base)[:at]
	slices.Sort(ranks)
	ranks = append(ranks, -1) // the last visit's next: in no window
	// cur holds the members of window [clo, chi), ascending by index; a
	// member's value is found through its rank.
	cur, spare := make([]int32, 0, width), make([]int32, 0, width)
	clo, chi := 0, 0
	for i, r := range ranks[:len(ranks)-1] {
		if err := poll(i); err != nil {
			return dst[:base], err
		}
		a, va := int(ix.order[r]), ix.sorted[r]
		w := runs[a-lo]
		next := int(ranks[i+1])
		var later []int32
		if (int(r) < clo || int(r) >= chi) && (next < w.lo || next >= w.hi) { // sort a's own later neighbours
			later, cur, clo, chi = cur[:w.hi-w.lo], cur[:0], 0, 0
			n := 0
			for _, b := range ix.order[w.lo:w.hi] {
				later[n] = b
				if int(b) > a {
					n++
				}
			}
			later = later[:n]
			slices.Sort(later)
		} else {
			if w.lo > clo || w.hi < chi {
				cur = slices.DeleteFunc(cur, func(b int32) bool { return int(ix.rank[b]) < w.lo || int(ix.rank[b]) >= w.hi })
			}
			m := len(cur)
			if w.lo < clo {
				cur = append(cur, ix.order[w.lo:min(clo, w.hi)]...)
			}
			if w.hi > chi {
				cur = append(cur, ix.order[max(w.lo, chi):w.hi]...)
			}
			slices.Sort(cur[m:])
			if m > 0 && m < len(cur) {
				cur, spare = merge(spare[:0], cur[:m], cur[m:]), cur
			}
			clo, chi = w.lo, w.hi
			j, _ := slices.BinarySearch(cur, int32(a+1))
			later = cur[j:]
		}
		out := dst[w.at:][:len(later)]
		for k, b := range later {
			d := math.Abs(va - ix.sorted[ix.rank[b]])
			out[k] = Edge{A: a, B: int(b), Weight: 1 - d/ix.eps}
		}
	}
	return dst, nil
}

// merge appends the ascending union of the disjoint ascending x and y.
func merge(dst, x, y []int32) []int32 {
	for len(x) > 0 && len(y) > 0 {
		if x[0] > y[0] {
			x, y = y, x
		}
		dst, x = append(dst, x[0]), x[1:]
	}
	return append(append(dst, x...), y...)
}
