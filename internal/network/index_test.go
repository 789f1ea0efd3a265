package network

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// AppendEdges is Slab without a poll, the form the oracle tests drive.
func (ix *Index) AppendEdges(dst []Edge, lo, hi int) []Edge {
	dst, _ = ix.Slab(dst, lo, hi, nil)
	return dst
}

// bruteEdges is the pairwise scan the sorted index replaced, kept as the
// reference it must agree with: every node a in [lo, hi) is tested against
// every later node.
func bruteEdges(nodes []Node, lo, hi int, cfg Config) []Edge {
	cfg = cfg.withDefaults()
	var out []Edge
	for a := lo; a < hi && a < len(nodes); a++ {
		for b := a + 1; b < len(nodes); b++ {
			d := math.Abs(nodes[a].Value - nodes[b].Value)
			if d <= cfg.Epsilon {
				out = append(out, Edge{A: a, B: b, Weight: 1 - d/cfg.Epsilon})
			}
		}
	}
	return out
}

// sameEdges compares two edge lists exactly: nil-ness, endpoints, order
// and weight bits. Both sides compute a weight with the same expression,
// so no rounding slack is allowed; under an infinite Epsilon an infinite
// distance weighs NaN on both sides.
func sameEdges(a, b []Edge) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, func(x, y Edge) bool {
		return x.A == y.A && x.B == y.B && math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
	})
}

// checkIndex compares the index of nodes under cfg with the brute force:
// the slab of every range between consecutive cuts (0 and len(nodes) are
// added), their concatenation, which must be the full edge set in
// canonical order with no re-sort, and Build's edges.
func checkIndex(t *testing.T, nodes []Node, cfg Config, cuts []int) {
	t.Helper()
	n := len(nodes)
	cuts = append(append([]int{0}, cuts...), n)
	slices.Sort(cuts)
	ix := NewIndex(nodes, cfg)
	var all []Edge
	for i := 1; i < len(cuts); i++ {
		lo, hi := cuts[i-1], cuts[i]
		want := bruteEdges(nodes, lo, hi, cfg)
		got := ix.AppendEdges(nil, lo, hi)
		if !sameEdges(got, want) {
			t.Fatalf("eps %v, range [%d,%d): index %v, brute force %v\nvalues %v", cfg.Epsilon, lo, hi, got, want, values(nodes))
		}
		all = append(all, got...)
	}
	want := bruteEdges(nodes, 0, n, cfg)
	if !sameEdges(all, want) {
		t.Fatalf("eps %v, cuts %v: concatenated slabs %v, brute force %v", cfg.Epsilon, cuts, all, want)
	}
	if got := Build(nodes, cfg).Slabs; len(got) != 1 || !sameEdges(got[0], want) {
		t.Fatalf("eps %v: Build %v, brute force %v", cfg.Epsilon, got, want)
	}
	checkModules(t, nodes, cfg)
}

// checkModules compares the index's rank-run modules of nodes under cfg,
// and Build's, with union-find over the brute-force edges.
func checkModules(t *testing.T, nodes []Node, cfg Config) {
	t.Helper()
	want := Modules(len(nodes), bruteEdges(nodes, 0, len(nodes), cfg))
	if got := NewIndex(nodes, cfg).Modules(); !reflect.DeepEqual(got, want) {
		t.Fatalf("eps %v: index modules %v, union-find %v\nvalues %v", cfg.Epsilon, got, want, values(nodes))
	}
	if got := Build(nodes, cfg).Modules; !reflect.DeepEqual(got, want) {
		t.Fatalf("eps %v: Build modules %v, union-find %v", cfg.Epsilon, got, want)
	}
}

func values(nodes []Node) []float64 {
	vs := make([]float64, len(nodes))
	for i, nd := range nodes {
		vs[i] = nd.Value
	}
	return vs
}

// specialValues are the values a library caller can put in a node list
// that a decoded feature table cannot hold, or that sit where the
// distance test is most fragile.
var specialValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
}

// randomNodes draws a node list from one of five regimes: uniform, snapped
// to a coarse grid (ties, and gaps of exactly eps), around 1e300 (where
// eps vanishes under rounding, so only ties connect), at ±MaxFloat64
// (where a distance overflows to +Inf) or subnormal. Some values are then
// placed exactly eps or one ulp past eps from another, or copied as ties,
// and when special is set some are NaN, ±Inf or ±0.
func randomNodes(rng *rand.Rand, eps float64, special bool) []Node {
	var value func() float64
	switch rng.Intn(5) {
	case 0:
		value = func() float64 { return rng.Float64() * 30 }
	case 1:
		grid := []float64{0.5, 1, 2}[rng.Intn(3)]
		value = func() float64 { return grid * float64(rng.Intn(20)-10) }
	case 2:
		value = func() float64 { return 1e300 * (1 + float64(rng.Intn(8))) }
	case 3:
		value = func() float64 {
			return math.Nextafter(math.MaxFloat64, 0) * float64(rng.Intn(3)-1)
		}
	default:
		value = func() float64 { return math.SmallestNonzeroFloat64 * float64(rng.Intn(9)-4) }
	}
	nodes := make([]Node, rng.Intn(40))
	for i := range nodes {
		v := value()
		if i > 0 && rng.Intn(3) == 0 {
			prev := nodes[rng.Intn(i)].Value
			switch rng.Intn(5) {
			case 0:
				v = prev
			case 1:
				v = prev + eps
			case 2:
				v = prev - eps
			case 3:
				v = math.Nextafter(prev+eps, math.Inf(1))
			default:
				v = math.Nextafter(prev-eps, math.Inf(-1))
			}
		}
		if special && rng.Intn(6) == 0 {
			v = specialValues[rng.Intn(len(specialValues))]
		}
		nodes[i] = Node{Name: fmt.Sprintf("n%d", i), Value: v}
	}
	return nodes
}

// TestIndexMatchesBruteForce quick-checks the sorted index against the
// pairwise scan it replaced on randomised node lists, Epsilons and range
// partitions, including the edge cases where a walk that stopped one step
// early or late, a tie split the wrong way or a non-monotone distance
// would show. Each list is also checked as one range, whose value-order
// visits are dense so the fill carries its windows, and cut into ranges of
// 1–3 nodes, whose visits are sparse so the fill sorts node by node.
func TestIndexMatchesBruteForce(t *testing.T) {
	const cases = 600
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		// 0 resolves to the default 2; an infinite Epsilon connects every
		// pair but an infinite value's ties; NaN connects nothing.
		eps := []float64{0, 0.5, 2, 2, 1e-300, math.SmallestNonzeroFloat64, 1e300, math.Inf(1), math.NaN()}[rng.Intn(9)]
		nodes := randomNodes(rng, Config{Epsilon: eps}.withDefaults().Epsilon, c%3 == 0)
		cuts := make([]int, rng.Intn(4))
		for i := range cuts {
			cuts[i] = rng.Intn(len(nodes) + 1)
		}
		checkIndex(t, nodes, Config{Epsilon: eps}, cuts)
		checkIndex(t, nodes, Config{Epsilon: eps}, nil)
		checkIndex(t, nodes, Config{Epsilon: eps}, smallRanges(rng, len(nodes)))
	}
	checkIndex(t, nil, Config{}, nil)
	// The special values alone, tied many times: an infinite value's
	// window leaves its own tie group, so consecutive windows jump.
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1}
	for c := 0; c < 100; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		nodes := make([]Node, rng.Intn(30))
		for i := range nodes {
			nodes[i].Value = specials[rng.Intn(len(specials))]
		}
		for _, eps := range []float64{math.Inf(1), 1, math.NaN()} {
			checkIndex(t, nodes, Config{Epsilon: eps}, nil)
			checkIndex(t, nodes, Config{Epsilon: eps}, smallRanges(rng, len(nodes)))
		}
	}
}

// smallRanges cuts [0, n) into ranges of 1–3 nodes.
func smallRanges(rng *rand.Rand, n int) []int {
	var cuts []int
	for at := 1 + rng.Intn(3); at < n; at += 1 + rng.Intn(3) {
		cuts = append(cuts, at)
	}
	return cuts
}

// TestConcurrentFills fills two ranges of one Index at once; under -race
// it shows a fill writing anything the Index shares.
func TestConcurrentFills(t *testing.T) {
	nodes := plantedNodes(t, 5, 600, 6)
	ix := NewIndex(nodes, Config{})
	cuts := []int{0, 250, len(nodes)}
	got := make([][]Edge, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = ix.AppendEdges(nil, cuts[i], cuts[i+1])
		}()
	}
	wg.Wait()
	for i := range got {
		if want := bruteEdges(nodes, cuts[i], cuts[i+1], Config{}); !sameEdges(got[i], want) {
			t.Fatalf("range [%d,%d): %d edges filled concurrently, brute force %d", cuts[i], cuts[i+1], len(got[i]), len(want))
		}
	}
}

// TestIndexDoesNotMutate checks the index copies what it needs: the
// registry aliases the feature table a stage builds its nodes from.
func TestIndexDoesNotMutate(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		nodes := randomNodes(rand.New(rand.NewSource(seed)), 2, true)
		saved := slices.Clone(nodes)
		ix := NewIndex(nodes, Config{})
		ix.AppendEdges(nil, 0, len(nodes))
		for i := range nodes {
			if nodes[i].Name != saved[i].Name || math.Float64bits(nodes[i].Value) != math.Float64bits(saved[i].Value) {
				t.Fatalf("seed %d: node %d changed: %+v -> %+v", seed, i, saved[i], nodes[i])
			}
		}
	}
}

// TestAppendEdgesAllocs holds a range's build into a sized slab to a fixed
// set of scratch buffers — the per-node runs, the visit order and the two
// window buffers the count pass sizes — so 2 000 and 16 000 nodes allocate
// alike, however many edges or neighbours they have.
func TestAppendEdgesAllocs(t *testing.T) {
	allocs := func(genes, modules int) float64 {
		nodes := plantedNodes(t, 2, genes, modules)
		ix := NewIndex(nodes, Config{})
		slab := make([]Edge, 0, len(ix.AppendEdges(nil, 0, len(nodes))))
		return testing.AllocsPerRun(2, func() { ix.AppendEdges(slab, 0, len(nodes)) })
	}
	small, large := allocs(2000, 40), allocs(16000, 200) // 50 and 80 a module
	if small != large || large > 4 {
		t.Fatalf("%v allocations at 2 000 nodes, %v at 16 000, want the same, at most 4", small, large)
	}
}

// FuzzEdgeIndex runs the brute-force comparison on fuzzed node lists,
// Epsilons and ranges. The first data byte picks a unit; the next two
// pick a range [lo, hi), which also cuts the list into three slabs whose
// concatenation must be the full edge set; the fourth picks k, 1…n, and
// the list is also cut into k near-equal ranges. The rest are up to 256
// 16-bit values:
// from 0xFFF0 one of the special values (NaN, ±Inf, ±0, ±MaxFloat64, the
// smallest subnormals), otherwise a signed multiple of the unit — a grid
// on which gaps land exactly on a small Epsilon, magnitudes near 1e300
// where any Epsilon vanishes, or subnormals.
func FuzzEdgeIndex(f *testing.F) {
	f.Add([]byte{0, 1, 3, 1, 0, 0x78, 4, 0x78, 8, 0x78, 9, 0x78}, 2.0)
	f.Add([]byte{1, 0, 9, 0, 0xF0, 0xFF, 0xF1, 0xFF, 0xF1, 0xFF, 0xF2, 0xFF, 0, 0x78}, math.Inf(1))
	f.Add([]byte{2, 2, 2, 2, 1, 0x78, 1, 0x78, 2, 0x78, 0xF4, 0xFF, 0xF5, 0xFF}, 0.0)
	f.Add([]byte{3, 0, 4, 5, 0, 0x78, 1, 0x78, 2, 0x78, 0xF3, 0xFF, 0xF6, 0xFF}, math.SmallestNonzeroFloat64)
	f.Add([]byte{0, 0, 0, 0}, math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, eps float64) {
		if len(data) < 4 {
			return
		}
		unit := []float64{0.5, 1.0 / 3, 1e296, math.SmallestNonzeroFloat64}[data[0]%4]
		var nodes []Node
		// At most 256 nodes: under an infinite Epsilon every pair is an edge.
		for rest := data[4:min(len(data), 4+2*256)]; len(rest) >= 2; rest = rest[2:] {
			v := binary.LittleEndian.Uint16(rest)
			x := float64(int(v)-0x7800) * unit
			if v >= 0xFFF0 {
				x = specialValues[int(v-0xFFF0)%len(specialValues)]
			}
			nodes = append(nodes, Node{Value: x})
		}
		lo := int(data[1]) % (len(nodes) + 1)
		hi := lo + int(data[2])%(len(nodes)+1-lo)
		checkIndex(t, nodes, Config{Epsilon: eps}, []int{lo, hi})
		k := 1 + int(data[3])%max(len(nodes), 1)
		cuts := make([]int, k-1)
		for i := range cuts {
			cuts[i] = (i + 1) * len(nodes) / k
		}
		checkIndex(t, nodes, Config{Epsilon: eps}, cuts)
	})
}

// moduleEpsilons are the Epsilons the modules checks run under: one where
// only ties and subnormal gaps connect, two ordinary ones, the largest
// finite one (an overflowing gap is still past it) and +Inf, under which
// every non-NaN pair but two equal infinities is an edge.
var moduleEpsilons = []float64{1e-300, 0.5, 2, math.MaxFloat64, math.Inf(1)}

// TestIndexModulesMatchUnionFind quick-checks the rank-run modules against
// union-find over the pairwise edges, on randomised node lists with NaN,
// ±Inf, ±0, subnormals, magnitudes near 1e300 and ties, and on lists of
// the special values alone, tied many times.
func TestIndexModulesMatchUnionFind(t *testing.T) {
	for c := 0; c < 1000; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		eps := moduleEpsilons[rng.Intn(len(moduleEpsilons))]
		checkModules(t, randomNodes(rng, eps, c%2 == 0), Config{Epsilon: eps})
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1}
	for c := 0; c < 200; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		pick := specials[:1+rng.Intn(len(specials))]
		nodes := make([]Node, rng.Intn(12))
		for i := range nodes {
			nodes[i].Value = pick[rng.Intn(len(pick))]
		}
		for _, eps := range moduleEpsilons {
			checkModules(t, nodes, Config{Epsilon: eps})
		}
	}
	checkModules(t, nil, Config{})
}

// FuzzIndexModules runs the union-find comparison on fuzzed node lists and
// Epsilons. The first data byte picks a unit as FuzzEdgeIndex's does, and
// the rest are up to 256 16-bit values coded the same way.
func FuzzIndexModules(f *testing.F) {
	f.Add([]byte{0, 0, 0x78, 4, 0x78, 8, 0x78, 9, 0x78}, 2.0)
	f.Add([]byte{1, 0xF1, 0xFF, 0xF1, 0xFF, 0, 0x78, 0xF0, 0xFF}, math.Inf(1))
	f.Add([]byte{1, 0xF1, 0xFF, 0xF1, 0xFF, 0xF0, 0xFF}, math.Inf(1))
	f.Add([]byte{2, 1, 0x78, 1, 0x78, 2, 0x78, 0xF4, 0xFF, 0xF5, 0xFF}, 1e-300)
	f.Add([]byte{3, 0, 0x78, 1, 0x78, 0xF3, 0xFF, 0xF7, 0xFF}, math.MaxFloat64)
	f.Add([]byte{0, 0, 0x78}, math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, eps float64) {
		if len(data) < 1 {
			return
		}
		unit := []float64{0.5, 1.0 / 3, 1e296, math.SmallestNonzeroFloat64}[data[0]%4]
		var nodes []Node
		for rest := data[1:min(len(data), 1+2*256)]; len(rest) >= 2; rest = rest[2:] {
			v := binary.LittleEndian.Uint16(rest)
			x := float64(int(v)-0x7800) * unit
			if v >= 0xFFF0 {
				x = specialValues[int(v-0xFFF0)%len(specialValues)]
			}
			nodes = append(nodes, Node{Value: x})
		}
		checkModules(t, nodes, Config{Epsilon: eps})
	})
}

// plantedNodes simulates genes measurements in planted modules as nodes.
func plantedNodes(tb testing.TB, seed int64, genes, modules int) []Node {
	tb.Helper()
	nodes, _, err := SimulateMeasurements(rand.New(rand.NewSource(seed)), genes, modules)
	if err != nil {
		tb.Fatal(err)
	}
	return nodes
}

var (
	edgeSink   []Edge
	indexSink  *Index
	moduleSink [][]int
)

// BenchmarkEdges times one Integrate stage's count and fill passes on the
// benchmark's batch-families network job, 16 000 genes in 200 planted
// modules, over 1, 2, 16 and n/64 equal node ranges of an index built
// once. Genes join modules round-robin, so a range of 64 nodes has no two
// in one window: its fill visits sparsely and sorts node by node, the
// fallback these sub-benchmarks guard. Fewer, wider ranges visit densely
// and carry their windows.
func BenchmarkEdges(b *testing.B) {
	nodes := plantedNodes(b, 1, 16000, 200)
	ix := NewIndex(nodes, Config{})
	for _, k := range []int{1, 2, 16, len(nodes) / 64} {
		b.Run(fmt.Sprintf("ranges=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			edges := 0
			for i := 0; i < b.N; i++ {
				edges = 0
				for r := range k {
					lo, hi := r*len(nodes)/k, (r+1)*len(nodes)/k
					edgeSink = ix.AppendEdges(nil, lo, hi)
					edges += len(edgeSink)
				}
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkNewIndex times the index build BenchmarkEdges leaves out, once
// per Integrate stage, on the same 16 000 genes.
func BenchmarkNewIndex(b *testing.B) {
	nodes := plantedNodes(b, 1, 16000, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = NewIndex(nodes, Config{})
	}
}

// BenchmarkModules times module detection on the same 16 000 genes: the
// index's rank runs against union-find over the 632 000 edges it replaced.
func BenchmarkModules(b *testing.B) {
	nodes := plantedNodes(b, 1, 16000, 200)
	ix := NewIndex(nodes, Config{})
	edges := ix.AppendEdges(nil, 0, len(nodes))
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			moduleSink = ix.Modules()
		}
	})
	b.Run("union-find", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			moduleSink = Modules(len(nodes), edges)
		}
	})
}
