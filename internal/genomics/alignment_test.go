package genomics

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// stableSorted is the reference order: sort.SliceStable under the
// coordinate comparator.
func stableSorted(alns []Alignment) []Alignment {
	out := slices.Clone(alns)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Unmapped() != b.Unmapped() {
			return !a.Unmapped()
		}
		return a.Pos < b.Pos
	})
	return out
}

// randomAlignments draws n records over few positions, so ties are
// common; MapQ numbers the records so a tie's order is visible.
func randomAlignments(rng *rand.Rand, n int) []Alignment {
	alns := make([]Alignment, n)
	for i := range alns {
		alns[i] = Alignment{Pos: 1 + rng.Intn(8), MapQ: i, Seq: []byte("ACGT")}
		if rng.Intn(6) == 0 {
			alns[i].Flag, alns[i].Pos = FlagUnmapped, 0
		}
	}
	return alns
}

func TestSortAlignmentsIsStable(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		alns := randomAlignments(rand.New(rand.NewSource(seed)), int(nRaw))
		want := stableSorted(alns)
		SortAlignments(alns)
		return reflect.DeepEqual(alns, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSortedEqualsSortOfConcat(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		groups := make([][]Alignment, int(kRaw)%12)
		var concat []Alignment
		for g := range groups {
			groups[g] = randomAlignments(rng, rng.Intn(40))
			for i := range groups[g] {
				groups[g][i].MapQ = len(concat) + i
			}
			SortAlignments(groups[g])
			concat = append(concat, groups[g]...)
		}
		got := MergeSorted(groups...)
		want := stableSorted(concat)
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// benchAlignments is one 15 000-read shard's records over a 100 kb
// reference, a few unmapped.
func benchAlignments(n int) []Alignment {
	rng := rand.New(rand.NewSource(1))
	alns := make([]Alignment, n)
	for i := range alns {
		alns[i] = Alignment{Pos: 1 + rng.Intn(100000), NM: -1}
		if rng.Intn(50) == 0 {
			alns[i].Flag, alns[i].Pos = FlagUnmapped, 0
		}
	}
	return alns
}

func BenchmarkSortAlignments(b *testing.B) {
	src := benchAlignments(15000)
	alns := make([]Alignment, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(alns, src)
		SortAlignments(alns)
	}
}

func BenchmarkMergeSorted(b *testing.B) {
	src := benchAlignments(15000)
	groups := make([][]Alignment, 4)
	for g := range groups {
		groups[g] = src[g*len(src)/4 : (g+1)*len(src)/4]
		SortAlignments(groups[g])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeSorted(groups...)
	}
}
