package genomics

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
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

// randomAlignments draws n records over a few positions spread across the
// packed key's whole range, its bound maxSortPos included, so ties are
// common and an overflowing key would misorder them; MapQ numbers the
// records so a tie's order is visible.
func randomAlignments(rng *rand.Rand, n int) []Alignment {
	positions := []int{1, 2, 1<<31 - 1, 1 << 31, 1<<31 + 1, maxSortPos - 1, maxSortPos}
	for len(positions) < 10 {
		positions = append(positions, int(rng.Int63n(maxSortPos+1)))
	}
	alns := make([]Alignment, n)
	for i := range alns {
		alns[i] = Alignment{Pos: positions[rng.Intn(len(positions))], MapQ: i, Len: 4}
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

// FuzzSortAlignments checks the packed-key sort against the stable
// comparator sort on fuzzed records: five bytes each, a flag bit and a
// 32-bit position, so positions span the key's whole range.
func FuzzSortAlignments(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 255, 255, 255, 255, 0, 0, 0, 0, 1})
	f.Add([]byte{1, 0, 0, 0, 128, 0, 0, 0, 0, 128, 0, 0, 0, 0, 128, 2, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, raw []byte) {
		alns := make([]Alignment, len(raw)/5)
		for i := range alns {
			rec := raw[5*i : 5*i+5]
			alns[i] = Alignment{Pos: int(binary.LittleEndian.Uint32(rec[1:])), MapQ: i}
			if rec[0]&1 != 0 {
				alns[i].Flag = FlagUnmapped
			}
		}
		want := stableSorted(alns)
		SortAlignments(alns)
		if !reflect.DeepEqual(alns, want) {
			t.Fatalf("got %+v\nwant %+v", alns, want)
		}
	})
}

// TestSortAlignmentsRejectsPositionsPastTheKey: a position the packed key
// cannot hold panics instead of sorting out of order.
func TestSortAlignmentsRejectsPositionsPastTheKey(t *testing.T) {
	for _, pos := range []int{-1, maxSortPos + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pos %d: no panic", pos)
				}
			}()
			SortAlignments([]Alignment{{Pos: 1}, {Pos: pos}})
		}()
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

// TestAlignmentIsCompact: a record holds no bytes of its read, and is at
// most 40 bytes.
func TestAlignmentIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(Alignment{}); n > 40 {
		t.Fatalf("an Alignment is %d bytes, want at most 40", n)
	}
}
