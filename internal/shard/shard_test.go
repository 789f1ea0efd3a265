package shard

import (
	"testing"
	"testing/quick"
)

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
	if _, err := Chunk(make([]int, 10), 0); err != ErrBadShardSize {
		t.Fatal("zero chunk size accepted")
	}
	// The plan reports the shards Chunk actually makes: ⌈total/per⌉, each
	// holding its Bounds, never an empty trailing shard, and one (empty)
	// shard for no records.
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
			for i, c := range chunks {
				if s, e := p.Bounds(i); len(c) != e-s {
					t.Fatalf("PlanByShards(%d, %d) = %+v: chunk %d holds %d records, bounds [%d,%d)", total, n, p, i, len(c), s, e)
				}
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
