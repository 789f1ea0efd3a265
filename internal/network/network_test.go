package network

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestSimulateMeasurementsDeterministic(t *testing.T) {
	a, truthA, err := SimulateMeasurements(rand.New(rand.NewSource(4)), 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, truthB, err := SimulateMeasurements(rand.New(rand.NewSource(4)), 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] || truthA[i] != truthB[i] {
			t.Fatalf("measurement %d differs", i)
		}
	}
	if _, _, err := SimulateMeasurements(rand.New(rand.NewSource(1)), 3, 9); err == nil {
		t.Fatal("more modules than genes accepted")
	}
	if _, _, err := SimulateMeasurements(rand.New(rand.NewSource(1)), 0, 1); err == nil {
		t.Fatal("zero genes accepted")
	}
}

func TestBuildRecoversPlantedModules(t *testing.T) {
	nodes, truth, err := SimulateMeasurements(rand.New(rand.NewSource(8)), 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	net := Build(nodes, Config{})
	if len(net.Modules) != 4 {
		t.Fatalf("modules = %d, want 4 planted", len(net.Modules))
	}
	// Every detected module is exactly one planted module's gene set.
	total := 0
	for _, mod := range net.Modules {
		want := truth[mod[0]]
		for _, gene := range mod {
			if truth[gene] != want {
				t.Fatalf("module %v mixes planted modules %d and %d", mod, want, truth[gene])
			}
		}
		total += len(mod)
	}
	if total != 60 {
		t.Fatalf("modules cover %d genes, want 60", total)
	}
	if net.Edges == 0 {
		t.Fatal("Build found no edges")
	}
	ix := NewIndex(nodes, Config{})
	if got := ix.Pairs(0, len(nodes)); got != net.Edges || !reflect.DeepEqual(ix.Modules(), net.Modules) {
		t.Fatalf("index: %d edges, modules %v; Build: %d edges, modules %v", got, ix.Modules(), net.Edges, net.Modules)
	}
}

// Build constructs the network by the pairwise scan: the unscattered
// reference the index's counts and modules must reproduce.
func Build(nodes []Node, cfg Config) *Network {
	pairs := brutePairs(nodes, cfg)
	return &Network{Nodes: nodes, Edges: len(pairs), Modules: Modules(len(nodes), pairs)}
}

// TestRangePartitionMatchesFullBuild: the counts of consecutive rank
// ranges, for any partitioning, sum to the full build's edge count — the
// gather invariant of the Integrate scatter.
func TestRangePartitionMatchesFullBuild(t *testing.T) {
	nodes := plantedNodes(t, 13, 50, 3)
	want := Build(nodes, Config{}).Edges
	ix := NewIndex(nodes, Config{})
	for _, per := range []int{1, 7, 10, 25, 50} {
		got := 0
		for lo := 0; lo < len(nodes); lo += per {
			got += ix.Pairs(lo, min(lo+per, len(nodes)))
		}
		if got != want {
			t.Fatalf("per=%d: %d edges, full build has %d", per, got, want)
		}
	}
}

// Modules returns the connected components the pairs imply over n nodes,
// by union-find: each component's node indexes sorted ascending,
// components ordered by their smallest member, isolated nodes as
// singletons. It is the edge-list pass Index.Modules replaced, kept as the
// reference it must agree with.
func Modules(n int, pairs [][2]int) [][]int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, p := range pairs {
		ra, rb := find(p[0]), find(p[1])
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	// A union hangs the larger root under the smaller, so a root is its
	// component's smallest member: an ascending pass meets it first.
	out := [][]int{}
	at := make([]int, n) // a root's index in out
	for i := range n {
		r := find(i)
		if r == i {
			at[i] = len(out)
			out = append(out, nil)
		}
		out[at[r]] = append(out[at[r]], i)
	}
	return out
}

func TestModulesSingletons(t *testing.T) {
	mods := Modules(3, nil)
	if len(mods) != 3 {
		t.Fatalf("modules = %v, want 3 singletons", mods)
	}
	mods = Modules(4, [][2]int{{0, 3}, {1, 2}})
	if len(mods) != 2 || mods[0][0] != 0 || mods[0][1] != 3 || mods[1][0] != 1 {
		t.Fatalf("modules = %v", mods)
	}
}
