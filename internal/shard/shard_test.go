package shard

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"scan/internal/genomics"
)

func simReads(t testing.TB, n int, seed int64) []genomics.Read {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	genome := genomics.GenerateReference(rng, "chr1", 5000)
	reads, err := genomics.SimulateReads(rng, genome, genomics.ReadSimConfig{Count: n, Length: 60})
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

func TestPlanByRecords(t *testing.T) {
	p, err := PlanByRecords(100, 30)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards != 4 {
		t.Fatalf("NumShards = %d, want 4", p.NumShards)
	}
	s, e := p.Bounds(3)
	if s != 90 || e != 100 {
		t.Fatalf("Bounds(3) = %d,%d", s, e)
	}
	if _, err := PlanByRecords(10, 0); err != ErrBadShardSize {
		t.Fatal("zero shard size accepted")
	}
	// Empty input still yields one (empty) shard.
	p, err = PlanByRecords(0, 10)
	if err != nil || p.NumShards != 1 {
		t.Fatalf("empty plan = %+v, %v", p, err)
	}
}

func TestPlanByShards(t *testing.T) {
	p, err := PlanByShards(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.RecordsPerShard != 34 || p.NumShards != 3 {
		t.Fatalf("plan = %+v", p)
	}
	if _, err := PlanByShards(100, 0); err != ErrBadShardSize {
		t.Fatal("zero shards accepted")
	}
	// The plan reports the shards Chunk actually makes: ⌈total/per⌉, never
	// an empty trailing shard, and one (empty) shard for no records.
	for total := 0; total <= 40; total++ {
		for n := 1; n <= 9; n++ {
			p, err := PlanByShards(total, n)
			if err != nil {
				t.Fatal(err)
			}
			chunks, _ := Chunk(make([]int, total), p.RecordsPerShard)
			if p.NumShards != len(chunks) || p.NumShards > n {
				t.Fatalf("PlanByShards(%d, %d) = %+v, Chunk made %d shards", total, n, p, len(chunks))
			}
			if s, e := p.Bounds(p.NumShards - 1); total > 0 && s >= e {
				t.Fatalf("PlanByShards(%d, %d) = %+v: last shard [%d,%d) is empty", total, n, p, s, e)
			}
		}
	}
	if p, _ := PlanByShards(9, 4); p.RecordsPerShard != 3 || p.NumShards != 3 {
		t.Fatalf("PlanByShards(9, 4) = %+v, want 3 shards of 3", p)
	}
	if p, _ := PlanByShards(0, 4); p.NumShards != 1 {
		t.Fatalf("PlanByShards(0, 4) = %+v, want 1 shard like PlanByRecords", p)
	}
}

func TestSplitFASTQAndMergeRoundTrip(t *testing.T) {
	reads := simReads(t, 107, 1)
	var src bytes.Buffer
	if err := genomics.WriteAllFASTQ(&src, reads); err != nil {
		t.Fatal(err)
	}
	var shards []*bytes.Buffer
	n, total, err := SplitFASTQ(&src, 25, func(i int) (io.Writer, error) {
		b := &bytes.Buffer{}
		shards = append(shards, b)
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || total != 107 {
		t.Fatalf("shards=%d total=%d, want 5/107", n, total)
	}
	// Shard sizes: 25,25,25,25,7.
	counts := make([]int, n)
	for i, b := range shards {
		rs, err := genomics.ReadAllFASTQ(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = len(rs)
	}
	want := []int{25, 25, 25, 25, 7}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("shard %d has %d records, want %d", i, counts[i], want[i])
		}
	}
	// Reading the shards back in order restores the original records.
	got, err := readShards(shards)
	if err != nil || len(got) != 107 {
		t.Fatalf("read back %d records, %v", len(got), err)
	}
	for i := range reads {
		if got[i].ID != reads[i].ID || !bytes.Equal(got[i].Seq, reads[i].Seq) {
			t.Fatalf("record %d mismatch after split+merge", i)
		}
	}
}

// readShards reads FASTQ shards back in order, as one record list.
func readShards(shards []*bytes.Buffer) ([]genomics.Read, error) {
	var out []genomics.Read
	for _, b := range shards {
		rs, err := genomics.ReadAllFASTQ(bytes.NewReader(b.Bytes()))
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	return out, nil
}

// Property: splitting and reading the shards back in order is the identity
// for any record count and shard size.
func TestSplitMergeIdentityProperty(t *testing.T) {
	allReads := simReads(t, 150, 2)
	f := func(nRaw, perRaw uint8) bool {
		n := int(nRaw) % 150
		per := 1 + int(perRaw)%40
		reads := allReads[:n]
		var src bytes.Buffer
		if err := genomics.WriteAllFASTQ(&src, reads); err != nil {
			return false
		}
		var shards []*bytes.Buffer
		_, total, err := SplitFASTQ(&src, per, func(int) (io.Writer, error) {
			b := &bytes.Buffer{}
			shards = append(shards, b)
			return b, nil
		})
		if err != nil || total != n {
			return false
		}
		got, err := readShards(shards)
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i].ID != reads[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkReads(t *testing.T) {
	reads := simReads(t, 10, 3)
	chunks, err := ChunkReads(reads, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 || len(chunks[0]) != 4 || len(chunks[2]) != 2 {
		t.Fatalf("chunk shapes: %d chunks", len(chunks))
	}
	if _, err := ChunkReads(reads, 0); err != ErrBadShardSize {
		t.Fatal("zero chunk size accepted")
	}
	empty, err := ChunkReads(nil, 5)
	if err != nil || len(empty) != 1 {
		t.Fatalf("empty input: %v %v", empty, err)
	}
}

func TestRegions(t *testing.T) {
	regs, err := Regions(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 3 {
		t.Fatalf("got %d regions", len(regs))
	}
	// Sizes 4,3,3 covering 1..10 with no gaps or overlaps.
	if regs[0] != (Region{1, 4}) || regs[1] != (Region{5, 7}) || regs[2] != (Region{8, 10}) {
		t.Fatalf("regions = %v", regs)
	}
	// More regions than bases clamps.
	regs, err = Regions(3, 10)
	if err != nil || len(regs) != 3 {
		t.Fatalf("clamp failed: %v %v", regs, err)
	}
	if _, err := Regions(0, 3); err == nil {
		t.Fatal("zero-length reference accepted")
	}
	if _, err := Regions(10, 0); err == nil {
		t.Fatal("zero regions accepted")
	}
}

// Property: Regions always tiles [1, refLen] exactly.
func TestRegionsTileProperty(t *testing.T) {
	f := func(lenRaw uint16, nRaw uint8) bool {
		refLen := 1 + int(lenRaw)%5000
		n := 1 + int(nRaw)%64
		regs, err := Regions(refLen, n)
		if err != nil {
			return false
		}
		next := 1
		for _, r := range regs {
			if r.Start != next || r.End < r.Start {
				return false
			}
			next = r.End + 1
		}
		return next == refLen+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionByRegion(t *testing.T) {
	alns := []genomics.Alignment{
		{QName: "a", RName: "chr1", Pos: 1},
		{QName: "b", RName: "chr1", Pos: 5},
		{QName: "c", RName: "chr1", Pos: 10},
		{QName: "d", Flag: genomics.FlagUnmapped},
	}
	regs, err := Regions(10, 2) // 1-5, 6-10
	if err != nil {
		t.Fatal(err)
	}
	parts, unmapped := PartitionByRegion(alns, regs)
	if len(parts[0]) != 2 || len(parts[1]) != 1 || len(unmapped) != 1 {
		t.Fatalf("partition = %v / %v", parts, unmapped)
	}
	// Out-of-range record is preserved in unmapped, not dropped.
	parts, unmapped = PartitionByRegion([]genomics.Alignment{{QName: "x", RName: "chr1", Pos: 99}}, regs)
	if len(unmapped) != 1 {
		t.Fatal("out-of-range record dropped")
	}
	for _, p := range parts {
		if len(p) != 0 {
			t.Fatal("out-of-range record mis-assigned")
		}
	}
}

func sampleAlignments(n int) (genomics.Header, []genomics.Alignment) {
	h := genomics.NewHeader(genomics.RefInfo{Name: "chr1", Length: 100000})
	rng := rand.New(rand.NewSource(7))
	alns := make([]genomics.Alignment, n)
	for i := range alns {
		seq := []byte("ACGTACGTAC")
		alns[i] = genomics.Alignment{
			QName: "r" + string(rune('a'+i%26)) + string(rune('0'+i%10)),
			RName: "chr1", Pos: rng.Intn(90000) + 1, MapQ: 60, CIGAR: "10M",
			Seq: seq, Qual: []byte("IIIIIIIIII"), NM: 0,
		}
	}
	return h, alns
}

func TestMergeSBAMSortsAndValidates(t *testing.T) {
	h, recs := sampleAlignments(40)
	chunks, err := Chunk(recs, 13)
	if err != nil {
		t.Fatal(err)
	}
	var shards []*bytes.Buffer
	for _, chunk := range chunks {
		b := &bytes.Buffer{}
		if err := genomics.WriteSBAM(b, h, chunk); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, b)
	}
	var merged bytes.Buffer
	rs := make([]io.Reader, len(shards))
	for i, b := range shards {
		rs[i] = bytes.NewReader(b.Bytes())
	}
	n, err := MergeSBAM(&merged, rs...)
	if err != nil || n != 40 {
		t.Fatalf("merge: n=%d err=%v", n, err)
	}
	mh, alns, err := genomics.ReadSBAM(&merged)
	if err != nil {
		t.Fatal(err)
	}
	if mh.SortOrder != "coordinate" {
		t.Fatalf("SortOrder = %q", h.SortOrder)
	}
	for i := 1; i < len(alns); i++ {
		if alns[i-1].Pos > alns[i].Pos {
			t.Fatal("merged output not coordinate sorted")
		}
	}
	// Mismatched reference dictionaries must be rejected.
	other := genomics.NewHeader(genomics.RefInfo{Name: "chrX", Length: 5})
	var bad bytes.Buffer
	if err := genomics.WriteSBAM(&bad, other, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeSBAM(&bytes.Buffer{},
		bytes.NewReader(shards[0].Bytes()), bytes.NewReader(bad.Bytes())); err == nil {
		t.Fatal("mismatched dictionaries accepted")
	}
}

func TestMergeVCF(t *testing.T) {
	v1 := []genomics.Variant{{Chrom: "chr1", Pos: 50, Ref: "A", Alt: "T", Qual: 30}}
	v2 := []genomics.Variant{
		{Chrom: "chr1", Pos: 10, Ref: "C", Alt: "G", Qual: 99},
		{Chrom: "chr1", Pos: 50, Ref: "A", Alt: "T", Qual: 45},
	}
	var b1, b2, out bytes.Buffer
	if err := genomics.WriteVCF(&b1, "s1", v1); err != nil {
		t.Fatal(err)
	}
	if err := genomics.WriteVCF(&b2, "s2", v2); err != nil {
		t.Fatal(err)
	}
	n, err := MergeVCF(&out, "merged", &b1, &b2)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	got, err := genomics.ReadVCF(&out)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Pos != 10 || got[1].Pos != 50 || got[1].Qual != 45 {
		t.Fatalf("merged = %+v", got)
	}
}

func BenchmarkSplitFASTQ(b *testing.B) {
	reads := simReads(b, 2000, 9)
	var src bytes.Buffer
	if err := genomics.WriteAllFASTQ(&src, reads); err != nil {
		b.Fatal(err)
	}
	data := src.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := SplitFASTQ(bytes.NewReader(data), 250, func(int) (io.Writer, error) {
			return io.Discard, nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
