package network

import (
	"math/rand"
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
	if len(net.Slabs) != 1 || len(net.Slabs[0]) == 0 || net.EdgeCount() != len(net.Slabs[0]) {
		t.Fatalf("Build gave %d slabs, %d edges; want one non-empty slab", len(net.Slabs), net.EdgeCount())
	}
	for _, e := range net.Slabs[0] {
		if e.A >= e.B || e.Weight < 0 || e.Weight > 1 {
			t.Fatalf("malformed edge %+v", e)
		}
	}
}

// TestRangePartitionMatchesFullBuild: concatenating per-range edge slabs
// in range order (any partitioning) reproduces the single-pass edge set —
// the gather invariant of the Integrate scatter — with no re-sort.
func TestRangePartitionMatchesFullBuild(t *testing.T) {
	nodes := plantedNodes(t, 13, 50, 3)
	want := bruteEdges(nodes, 0, len(nodes), Config{})
	ix := NewIndex(nodes, Config{})
	for _, per := range []int{7, 10, 25, 50} {
		var got []Edge
		for lo := 0; lo < len(nodes); lo += per {
			hi := min(lo+per, len(nodes))
			got = ix.AppendEdges(got, lo, hi)
		}
		if len(got) != len(want) {
			t.Fatalf("per=%d: %d edges, full build has %d", per, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("per=%d: edge %d = %+v, want %+v", per, i, got[i], want[i])
			}
		}
	}
}

// Modules returns the connected components the edges imply over n nodes,
// by union-find: each component's node indexes sorted ascending,
// components ordered by their smallest member, isolated nodes as
// singletons. It is the edge-list pass Index.Modules replaced, kept as the
// reference it must agree with.
func Modules(n int, edges []Edge) [][]int {
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
	for _, e := range edges {
		ra, rb := find(e.A), find(e.B)
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
	mods = Modules(4, []Edge{{A: 0, B: 3}, {A: 1, B: 2}})
	if len(mods) != 2 || mods[0][0] != 0 || mods[0][1] != 3 || mods[1][0] != 1 {
		t.Fatalf("modules = %v", mods)
	}
}
