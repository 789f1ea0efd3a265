package shard

import (
	"math/rand"
	"testing"
	"testing/quick"

	"scan/internal/genomics"
)

// partitionByRegion and partitionByOverlap are the region scatters that
// SliceByRegion replaced, kept as the reference it is checked against:
// each mapped record copied into the region holding its start, or into
// every region it overlaps.
func partitionByRegion(alns []genomics.Alignment, regions []Region) [][]genomics.Alignment {
	parts := make([][]genomics.Alignment, len(regions))
	for _, a := range alns {
		for r, reg := range regions {
			if !a.Unmapped() && a.Pos >= reg.Start && a.Pos <= reg.End {
				parts[r] = append(parts[r], a)
			}
		}
	}
	return parts
}

func partitionByOverlap(alns []genomics.Alignment, regions []Region) [][]genomics.Alignment {
	parts := make([][]genomics.Alignment, len(regions))
	for _, a := range alns {
		for r, reg := range regions {
			if !a.Unmapped() && a.Pos <= reg.End && a.End() >= reg.Start {
				parts[r] = append(parts[r], a)
			}
		}
	}
	return parts
}

// sameRecords reports whether two runs hold the same records in the same
// order; MapQ numbers the records.
func sameRecords(a, b []genomics.Alignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].MapQ != b[i].MapQ {
			return false
		}
	}
	return true
}

// TestSliceByRegionMatchesPartitions: on coordinate-sorted reads over
// random regions (more regions than bases included), SliceByRegion with
// pad 0 gives each region exactly partitionByRegion's records. With pad
// one less than the longest read it gives exactly partitionByOverlap's
// when the reads share a length, and those plus only reads that end before
// the region when they do not. Every run aliases the input and ends its
// capacity with its length.
func TestSliceByRegionMatchesPartitions(t *testing.T) {
	for seed := range int64(400) {
		rng := rand.New(rand.NewSource(seed))
		refLen := 1 + rng.Intn(300)
		uniform := seed%2 == 0
		readLen := 1 + rng.Intn(min(40, refLen))
		alns := make([]genomics.Alignment, rng.Intn(100))
		longest := 0
		for i := range alns {
			n := readLen
			if !uniform {
				n = 1 + rng.Intn(min(40, refLen))
			}
			alns[i] = genomics.Alignment{Pos: 1 + rng.Intn(refLen-n+1), MapQ: i, Len: int32(n)}
			if rng.Intn(10) == 0 {
				alns[i].Flag, alns[i].Pos = genomics.FlagUnmapped, 0
			} else {
				longest = max(longest, n)
			}
		}
		genomics.SortAlignments(alns)
		at := make(map[int]int, len(alns)) // record → its index in alns
		for i, a := range alns {
			at[a.MapQ] = i
		}
		regions, err := Regions(refLen, 1+rng.Intn(refLen+5))
		if err != nil {
			t.Fatal(err)
		}
		byStart := SliceByRegion(alns, regions, 0)
		byOverlap := SliceByRegion(alns, regions, max(longest-1, 0))
		wantStart, wantOverlap := partitionByRegion(alns, regions), partitionByOverlap(alns, regions)
		for r, reg := range regions {
			if !sameRecords(byStart[r], wantStart[r]) {
				t.Fatalf("seed %d, region %v, pad 0: %+v, want %+v", seed, reg, byStart[r], wantStart[r])
			}
			got := byOverlap[r]
			if !uniform {
				var overlapping []genomics.Alignment
				for _, a := range got {
					if a.End() >= reg.Start {
						overlapping = append(overlapping, a)
					}
				}
				got = overlapping
			}
			if !sameRecords(got, wantOverlap[r]) {
				t.Fatalf("seed %d, region %v, pad %d: %+v, want %+v", seed, reg, longest-1, got, wantOverlap[r])
			}
			for _, run := range [][]genomics.Alignment{byStart[r], byOverlap[r]} {
				if cap(run) != len(run) || len(run) > 0 && &run[0] != &alns[at[run[0].MapQ]] {
					t.Fatalf("seed %d, region %v: run does not alias the input or its capacity runs on", seed, reg)
				}
			}
		}
	}
}

// TestPartitionByRegion: with pad 0 each mapped record lies in the run of
// the region holding its start; unmapped and out-of-range records lie in
// none.
func TestPartitionByRegion(t *testing.T) {
	alns := []genomics.Alignment{
		{Pos: 1, MapQ: 0},
		{Pos: 5, MapQ: 1},
		{Pos: 10, MapQ: 2},
		{Flag: genomics.FlagUnmapped, MapQ: 3},
	}
	regs, err := Regions(10, 2) // 1-5, 6-10
	if err != nil {
		t.Fatal(err)
	}
	parts := SliceByRegion(alns, regs, 0)
	if !sameRecords(parts[0], alns[:2]) || !sameRecords(parts[1], alns[2:3]) {
		t.Fatalf("partition = %v", parts)
	}
	for _, p := range SliceByRegion([]genomics.Alignment{{Pos: 99}}, regs, 0) {
		if len(p) != 0 {
			t.Fatal("out-of-range record mis-assigned")
		}
	}
}

// TestPartitionByOverlapBoundarySpanning: with the read-length pad, a read
// spanning a region boundary lies in both regions' runs.
func TestPartitionByOverlapBoundarySpanning(t *testing.T) {
	regs, err := Regions(100, 2) // 1-50, 51-100
	if err != nil {
		t.Fatal(err)
	}
	const readLen = 10
	alns := []genomics.Alignment{
		{Pos: 10, MapQ: 0, Len: readLen}, // entirely in region 0
		{Pos: 46, MapQ: 1, Len: readLen}, // spans the 50/51 boundary
		{Pos: 80, MapQ: 2, Len: readLen}, // entirely in region 1
		{Flag: genomics.FlagUnmapped, MapQ: 3},
	}
	parts := SliceByRegion(alns, regs, readLen-1)
	if !sameRecords(parts[0], alns[0:2]) {
		t.Fatalf("region 0 = %+v", parts[0])
	}
	if !sameRecords(parts[1], alns[1:3]) {
		t.Fatalf("region 1 = %+v", parts[1])
	}
}

// TestPartitionByOverlapCoverageProperty: with the read-length pad, the
// pileup depth a region's run gives at any position of the region equals
// the depth over all reads.
func TestPartitionByOverlapCoverageProperty(t *testing.T) {
	f := func(posRaw []uint16, nRaw uint8) bool {
		const refLen = 500
		const readLen = 20
		n := 1 + int(nRaw)%8
		regs, err := Regions(refLen, n)
		if err != nil {
			return false
		}
		var alns []genomics.Alignment
		for _, p := range posRaw {
			alns = append(alns, genomics.Alignment{Pos: 1 + int(p)%(refLen-readLen), Len: readLen})
		}
		genomics.SortAlignments(alns)
		globalDepth := make([]int, refLen+1)
		for _, a := range alns {
			for p := a.Pos; p <= a.End(); p++ {
				globalDepth[p]++
			}
		}
		parts := SliceByRegion(alns, regs, readLen-1)
		for i, reg := range regs {
			depth := make(map[int]int)
			for _, a := range parts[i] {
				for p := max(a.Pos, reg.Start); p <= min(a.End(), reg.End); p++ {
					depth[p]++
				}
			}
			for p := reg.Start; p <= reg.End; p++ {
				if depth[p] != globalDepth[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSliceByRegion(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	alns := make([]genomics.Alignment, 30000)
	const readLen = 100
	for i := range alns {
		alns[i] = genomics.Alignment{Pos: 1 + rng.Intn(100000-readLen), Len: readLen}
		if rng.Intn(50) == 0 {
			alns[i].Flag = genomics.FlagUnmapped
		}
	}
	genomics.SortAlignments(alns)
	regs, err := Regions(100000, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		SliceByRegion(alns, regs, readLen-1)
	}
}
