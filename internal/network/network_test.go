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
	ms, truth, err := SimulateMeasurements(rand.New(rand.NewSource(8)), 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]Node, len(ms))
	for i, m := range ms {
		nodes[i] = Node{Name: m.Name, Value: m.Value}
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
	if len(net.Edges) == 0 {
		t.Fatal("no edges built")
	}
	for _, e := range net.Edges {
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
