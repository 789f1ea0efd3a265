package shard

import (
	"math/rand"
	"testing"
	"testing/quick"

	"scan/internal/genomics"
)

func TestPartitionByOverlapBoundarySpanning(t *testing.T) {
	regs, err := Regions(100, 2) // 1-50, 51-100
	if err != nil {
		t.Fatal(err)
	}
	alns := []genomics.Alignment{
		// Entirely in region 0.
		{QName: "a", RName: "chr1", Pos: 10, Seq: []byte("ACGTACGTAC")},
		// Spans the 50/51 boundary: must appear in both regions.
		{QName: "b", RName: "chr1", Pos: 46, Seq: []byte("ACGTACGTAC")},
		// Entirely in region 1.
		{QName: "c", RName: "chr1", Pos: 80, Seq: []byte("ACGTACGTAC")},
		{QName: "d", Flag: genomics.FlagUnmapped},
	}
	parts, unmapped := PartitionByOverlap(alns, regs)
	if len(unmapped) != 1 || unmapped[0].QName != "d" {
		t.Fatalf("unmapped = %+v", unmapped)
	}
	names := func(part []genomics.Alignment) []string {
		var out []string
		for _, a := range part {
			out = append(out, a.QName)
		}
		return out
	}
	if got := names(parts[0]); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("region 0 = %v", got)
	}
	if got := names(parts[1]); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("region 1 = %v", got)
	}
}

// Property: under overlap partitioning, every (read, position) pair of
// coverage appears in exactly the region owning that position — i.e. the
// per-region pileup depth at any position equals the global depth.
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
			pos := 1 + int(p)%(refLen-readLen)
			alns = append(alns, genomics.Alignment{
				QName: "r", RName: "chr1", Pos: pos,
				Seq: make([]byte, readLen),
			})
		}
		globalDepth := make([]int, refLen+1)
		for _, a := range alns {
			for p := a.Pos; p <= a.End(); p++ {
				globalDepth[p]++
			}
		}
		parts, unmapped := PartitionByOverlap(alns, regs)
		if len(unmapped) != 0 {
			return false
		}
		for i, reg := range regs {
			depth := make(map[int]int)
			for _, a := range parts[i] {
				for p := a.Pos; p <= a.End(); p++ {
					if reg.Contains(p) {
						depth[p]++
					}
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

func BenchmarkPartitionByOverlap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	alns := make([]genomics.Alignment, 30000)
	seq := make([]byte, 100)
	for i := range alns {
		alns[i] = genomics.Alignment{RName: "chr1", Pos: 1 + rng.Intn(100000-len(seq)), Seq: seq}
		if rng.Intn(50) == 0 {
			alns[i].Flag = genomics.FlagUnmapped
		}
	}
	regs, err := Regions(100000, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PartitionByOverlap(alns, regs)
	}
}
