package network

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// brutePairs is the pairwise scan the sorted index replaced, kept as the
// reference it must agree with: every node is tested against every later
// node, and the pairs within Epsilon come back in (a, b) order.
func brutePairs(nodes []Node, cfg Config) [][2]int {
	cfg = cfg.withDefaults()
	var out [][2]int
	for a := range nodes {
		for b := a + 1; b < len(nodes); b++ {
			if math.Abs(nodes[a].Value-nodes[b].Value) <= cfg.Epsilon {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

// checkIndex compares the index of nodes under cfg with the brute force:
// the count of every rank range between consecutive cuts (0 and
// len(nodes) are added), which must be the brute-force pairs whose
// lower-ranked end lies in the range, their sum, which must be the edge
// count, and the modules.
func checkIndex(t *testing.T, nodes []Node, cfg Config, cuts []int) {
	t.Helper()
	cuts = append(append([]int{0}, cuts...), len(nodes))
	slices.Sort(cuts)
	ix := NewIndex(nodes, cfg)
	pairs := brutePairs(nodes, cfg)
	total := 0
	for i := 1; i < len(cuts); i++ {
		lo, hi := cuts[i-1], cuts[i]
		want := 0
		for _, p := range pairs {
			if r := int(min(ix.rank[p[0]], ix.rank[p[1]])); lo <= r && r < hi {
				want++
			}
		}
		got := ix.Pairs(lo, hi)
		if got != want {
			t.Fatalf("eps %v, ranks [%d,%d): index counts %d pairs, brute force %d\nvalues %v", cfg.Epsilon, lo, hi, got, want, values(nodes))
		}
		total += got
	}
	if total != len(pairs) {
		t.Fatalf("eps %v, cuts %v: range counts sum to %d, brute force has %d pairs", cfg.Epsilon, cuts, total, len(pairs))
	}
	checkModules(t, nodes, cfg)
}

// checkModules compares the index's rank-run modules of nodes under cfg
// with union-find over the brute-force pairs.
func checkModules(t *testing.T, nodes []Node, cfg Config) {
	t.Helper()
	want := Modules(len(nodes), brutePairs(nodes, cfg))
	if got := NewIndex(nodes, cfg).Modules(); !reflect.DeepEqual(got, want) {
		t.Fatalf("eps %v: index modules %v, union-find %v\nvalues %v", cfg.Epsilon, got, want, values(nodes))
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

// TestIndexMatchesBruteForce quick-checks the index's edge count against
// the pairwise scan it replaced on randomised node lists, Epsilons and
// rank-range cuts, including the edge cases where a sweep that stopped one
// step early or late, a tie split the wrong way or a non-monotone distance
// would show. Each list is also counted as one range and cut into ranges
// of 1–3 ranks, where every range restarts the sweep.
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

// smallRanges cuts [0, n) into ranges of 1–3 ranks.
func smallRanges(rng *rand.Rand, n int) []int {
	var cuts []int
	for at := 1 + rng.Intn(3); at < n; at += 1 + rng.Intn(3) {
		cuts = append(cuts, at)
	}
	return cuts
}

// TestIndexDoesNotMutate checks the index copies what it needs: the
// registry aliases the feature table a stage builds its nodes from.
func TestIndexDoesNotMutate(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		nodes := randomNodes(rand.New(rand.NewSource(seed)), 2, true)
		saved := slices.Clone(nodes)
		ix := NewIndex(nodes, Config{})
		ix.Pairs(0, len(nodes))
		ix.Modules()
		for i := range nodes {
			if nodes[i].Name != saved[i].Name || math.Float64bits(nodes[i].Value) != math.Float64bits(saved[i].Value) {
				t.Fatalf("seed %d: node %d changed: %+v -> %+v", seed, i, saved[i], nodes[i])
			}
		}
	}
}

// TestPairsAllocs holds the count to no allocation at all, so no edge
// list can creep back into an Integrate shard.
func TestPairsAllocs(t *testing.T) {
	ix := NewIndex(plantedNodes(t, 2, 16000, 200), Config{})
	if n := testing.AllocsPerRun(2, func() { ix.Pairs(0, 16000) }); n != 0 {
		t.Fatalf("Pairs allocated %v times, want 0", n)
	}
}

// FuzzEdgeCount runs the brute-force comparison on fuzzed node lists,
// Epsilons and rank ranges. The first data byte picks a unit; the next two
// pick a range [lo, hi), which also cuts the ranks into three ranges whose
// counts must sum to the edge count; the fourth picks k, 1…n, and the
// ranks are also cut into k near-equal ranges. The rest are up to 256
// 16-bit values:
// from 0xFFF0 one of the special values (NaN, ±Inf, ±0, ±MaxFloat64, the
// smallest subnormals), otherwise a signed multiple of the unit — a grid
// on which gaps land exactly on a small Epsilon, magnitudes near 1e300
// where any Epsilon vanishes, or subnormals.
func FuzzEdgeCount(f *testing.F) {
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
		// At most 256 nodes: the brute force tests every pair.
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
// union-find over the pairwise scan, on randomised node lists with NaN,
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
// Epsilons. The first data byte picks a unit as FuzzEdgeCount's does, and
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
	countSink  int
	indexSink  *Index
	moduleSink [][]int
)

// BenchmarkIntegrate times one Integrate stage's whole work on the
// benchmark's batch-families network job, 16 000 genes in 200 planted
// modules: the index, the edge count over all ranks and the modules.
func BenchmarkIntegrate(b *testing.B) {
	nodes := plantedNodes(b, 1, 16000, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := NewIndex(nodes, Config{})
		countSink, moduleSink = ix.Pairs(0, len(nodes)), ix.Modules()
	}
	b.ReportMetric(float64(countSink), "edges")
}

// BenchmarkNewIndex times BenchmarkIntegrate's index build alone.
func BenchmarkNewIndex(b *testing.B) {
	nodes := plantedNodes(b, 1, 16000, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = NewIndex(nodes, Config{})
	}
}

// BenchmarkModules times BenchmarkIntegrate's module detection alone.
func BenchmarkModules(b *testing.B) {
	ix := NewIndex(plantedNodes(b, 1, 16000, 200), Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moduleSink = ix.Modules()
	}
}
