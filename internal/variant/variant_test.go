package variant

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"scan/internal/align"
	"scan/internal/genomics"
)

func TestPileupAndCall(t *testing.T) {
	ref := genomics.Sequence{Name: "chr1", Seq: []byte("ACGTACGTAC")}
	c := NewCaller(ref, 1, ref.Len(), Config{MinDepth: 3, MinAltFraction: 0.5})
	// Five reads covering position 3 (0-based), all reading 'G' where the
	// reference has 'T'.
	for i := 0; i < 5; i++ {
		err := c.Add(genomics.Alignment{Pos: 3, Seq: []byte("GGA"), Qual: []byte("III")})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Reference at 1-based 3..5 is "GTA"; reads say "GGA": alt at pos 4.
	vars := c.Call()
	if len(vars) != 1 {
		t.Fatalf("called %d variants, want 1: %+v", len(vars), vars)
	}
	v := vars[0]
	if v.Pos != 4 || v.Ref != 'T' || v.Alt != 'G' {
		t.Fatalf("variant = %+v", v)
	}
	if v.Qual <= 0 {
		t.Fatal("quality must be positive")
	}
	if c.Depth(3) != 5 {
		t.Fatalf("Depth(3) = %d", c.Depth(3))
	}
}

func TestCallRespectsMinDepth(t *testing.T) {
	ref := genomics.Sequence{Name: "chr1", Seq: []byte("AAAA")}
	c := NewCaller(ref, 1, ref.Len(), Config{MinDepth: 4, MinAltFraction: 0.3})
	for i := 0; i < 3; i++ {
		if err := c.Add(genomics.Alignment{Pos: 1, Seq: []byte("TTTT"), Qual: []byte("IIII")}); err != nil {
			t.Fatal(err)
		}
	}
	if vars := c.Call(); len(vars) != 0 {
		t.Fatalf("called %d variants below MinDepth", len(vars))
	}
}

func TestCallRespectsAltFraction(t *testing.T) {
	ref := genomics.Sequence{Name: "chr1", Seq: []byte("AAAA")}
	c := NewCaller(ref, 1, ref.Len(), Config{MinDepth: 4, MinAltFraction: 0.5})
	add := func(seq string, n int) {
		for i := 0; i < n; i++ {
			if err := c.Add(genomics.Alignment{Pos: 1, Seq: []byte(seq), Qual: []byte("IIII")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("TAAA", 2) // 2 alt
	add("AAAA", 8) // 8 ref -> frac 0.2 < 0.5
	if vars := c.Call(); len(vars) != 0 {
		t.Fatalf("low-fraction allele called: %+v", vars)
	}
}

func TestAddValidations(t *testing.T) {
	ref := genomics.Sequence{Name: "chr1", Seq: []byte("ACGTACGT")}
	// The region is one base, but a read must still lie inside the
	// reference, not only the region.
	c := NewCaller(ref, 2, 2, Config{})
	if err := c.Add(genomics.Alignment{Pos: 7, Seq: []byte("ACGT"), Qual: []byte("IIII")}); err == nil {
		t.Fatal("overflowing read accepted")
	}
	// Unmapped records are silently skipped.
	if err := c.Add(genomics.Alignment{Flag: genomics.FlagUnmapped}); err != nil {
		t.Fatalf("unmapped record rejected: %v", err)
	}
	// N bases contribute no evidence but are not an error.
	if err := c.Add(genomics.Alignment{Pos: 1, Seq: []byte("ANGT"), Qual: []byte("IIII")}); err != nil {
		t.Fatal(err)
	}
	if c.Depth(1) != 0 {
		t.Fatalf("N counted as evidence: depth = %d", c.Depth(1))
	}
}

// The headline integration test: plant SNVs, simulate reads from the
// mutated genome, align against the clean reference, call variants, and
// verify the planted mutations are recovered.
func TestEndToEndVariantRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ref := genomics.GenerateReference(rng, "chr1", 8000)
	mutated, planted := genomics.PlantSNVs(rng, ref, 12)

	reads, err := genomics.SimulateReads(rng, mutated, genomics.ReadSimConfig{
		Count: 2400, Length: 100, ErrorRate: 0.002, // 30x coverage
	})
	if err != nil {
		t.Fatal(err)
	}
	aligner, err := align.New(ref, Config2Aligner())
	if err != nil {
		t.Fatal(err)
	}
	caller := NewCaller(ref, 1, ref.Len(), Config{MinDepth: 8, MinAltFraction: 0.6})
	var scratch align.Scratch
	mapped := 0
	for _, r := range reads {
		aln := aligner.AlignRead(r, &scratch)
		if !aln.Unmapped() {
			mapped++
		}
		if err := caller.Add(aln); err != nil {
			t.Fatal(err)
		}
	}
	if mapped < len(reads)*9/10 {
		t.Fatalf("mapped only %d/%d reads", mapped, len(reads))
	}
	called := caller.Call()

	calledAt := map[int]genomics.Variant{}
	for _, v := range called {
		calledAt[v.Pos-1] = v
	}
	recovered := 0
	for _, m := range planted {
		if v, ok := calledAt[m.Pos]; ok && v.Alt == m.Alt && v.Ref == m.Ref {
			recovered++
		}
	}
	if recovered < len(planted)-1 {
		t.Fatalf("recovered %d/%d planted SNVs (called %d total)",
			recovered, len(planted), len(called))
	}
	// False positives should be rare at these thresholds.
	if len(called) > len(planted)+3 {
		t.Fatalf("too many calls: %d for %d planted", len(called), len(planted))
	}
}

// Config2Aligner returns the aligner settings used by the end-to-end test
// (kept as a function so the core package's integration tests reuse it).
func Config2Aligner() align.Config {
	return align.Config{K: 16, MaxMismatches: 6}
}

func TestQualityCapped(t *testing.T) {
	ref := genomics.Sequence{Name: "chr1", Seq: []byte("AAAA")}
	c := NewCaller(ref, 1, ref.Len(), Config{MinDepth: 1, MinAltFraction: 0.1})
	for i := 0; i < 600; i++ {
		if err := c.Add(genomics.Alignment{Pos: 1, Seq: []byte("TTTT"), Qual: []byte("IIII")}); err != nil {
			t.Fatal(err)
		}
	}
	vars := c.Call()
	if len(vars) == 0 {
		t.Fatal("no call")
	}
	if vars[0].Qual > 1000 {
		t.Fatalf("quality %v exceeds cap", vars[0].Qual)
	}
}

// BenchmarkPileup calls a 50 kb reference's 5 000 reads whole and as 8
// regions, each region's caller fed the reads that overlap it, as the
// calling stage's shards are.
func BenchmarkPileup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ref := genomics.GenerateReference(rng, "chr1", 50000)
	reads, err := genomics.SimulateReads(rng, ref, genomics.ReadSimConfig{Count: 5000, Length: 100})
	if err != nil {
		b.Fatal(err)
	}
	alns := make([]genomics.Alignment, len(reads))
	for i, r := range reads {
		// Reads are exact substrings; the ID ends with the 0-based start.
		start, err := strconv.Atoi(r.ID[strings.LastIndexByte(r.ID, ':')+1:])
		if err != nil {
			b.Fatal(err)
		}
		alns[i] = genomics.Alignment{Pos: start + 1, Seq: r.Seq, Qual: r.Qual}
	}
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("regions=%d", n), func(b *testing.B) {
			width := (ref.Len() + n - 1) / n
			parts := make([][]genomics.Alignment, n)
			for _, a := range alns {
				for r := (a.Pos - 1) / width; r <= (a.End()-1)/width; r++ {
					parts[r] = append(parts[r], a)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for r, part := range parts {
					c := NewCaller(ref, r*width+1, (r+1)*width, Config{})
					for _, a := range part {
						if err := c.Add(a); err != nil {
							b.Fatal(err)
						}
					}
					c.Call()
				}
			}
		})
	}
}

// wholeCaller is the caller as it was before regions: a pileup the size of
// the reference, each read folded whole, every position scanned. It is
// the reference the region caller is checked against.
type wholeCaller struct {
	cfg    Config
	ref    genomics.Sequence
	counts [][4]uint32
	depth  []uint32
}

func newWholeCaller(ref genomics.Sequence, cfg Config) *wholeCaller {
	cfg.fill()
	return &wholeCaller{cfg: cfg, ref: ref, counts: make([][4]uint32, ref.Len()), depth: make([]uint32, ref.Len())}
}

func (c *wholeCaller) add(a genomics.Alignment) {
	if a.Unmapped() {
		return
	}
	for i, b := range a.Seq {
		if idx := baseIndex[b]; idx >= 0 {
			c.counts[a.Pos-1+i][idx]++
			c.depth[a.Pos-1+i]++
		}
	}
}

func (c *wholeCaller) call() []genomics.Variant {
	var out []genomics.Variant
	for pos := 0; pos < c.ref.Len(); pos++ {
		depth := c.depth[pos]
		if int(depth) < c.cfg.MinDepth {
			continue
		}
		refIdx := baseIndex[c.ref.Seq[pos]]
		bestAlt, bestCount := -1, uint32(0)
		for idx := 0; idx < 4; idx++ {
			if int8(idx) == refIdx {
				continue
			}
			if n := c.counts[pos][idx]; n > bestCount {
				bestAlt, bestCount = idx, n
			}
		}
		if bestAlt < 0 || bestCount == 0 {
			continue
		}
		if float64(bestCount)/float64(depth) < c.cfg.MinAltFraction {
			continue
		}
		refBase := byte('N')
		if refIdx >= 0 {
			refBase = indexBase[refIdx]
		}
		q := min(-10*float64(bestCount)*math.Log10(c.cfg.BaseErrorRate), 1000)
		out = append(out, genomics.Variant{
			Pos: pos + 1, Ref: refBase, Alt: indexBase[bestAlt], Qual: math.Round(q*10) / 10,
		})
	}
	return out
}

// checkRegionCaller draws a reference holding Ns and lowercase bases,
// reads of mixed lengths anywhere on it (Ns and unmapped records among
// them) and thresholds, all from seed. It checks that a caller over
// [start, end] — clipped to the reference — calls exactly the whole-
// reference caller's calls inside the region, from the same depths.
func checkRegionCaller(t *testing.T, seed int64, start, end int) {
	rng := rand.New(rand.NewSource(seed))
	ref := genomics.Sequence{Name: "chr1", Seq: make([]byte, 1+rng.Intn(200))}
	for i := range ref.Seq {
		ref.Seq[i] = "ACGTACGTacgtN"[rng.Intn(13)]
	}
	cfg := Config{MinDepth: 1 + rng.Intn(4), MinAltFraction: 0.1 + 0.8*rng.Float64()}
	whole := newWholeCaller(ref, cfg)
	region := NewCaller(ref, start, end, cfg)
	for range rng.Intn(80) {
		n := 1 + rng.Intn(min(30, ref.Len()))
		a := genomics.Alignment{Pos: 1 + rng.Intn(ref.Len()-n+1), Seq: make([]byte, n)}
		for i := range a.Seq {
			if rng.Intn(3) == 0 {
				a.Seq[i] = "ACGTN"[rng.Intn(5)]
			} else {
				a.Seq[i] = ref.Seq[a.Pos-1+i] &^ 0x20 // the reference base, uppercased
			}
		}
		if rng.Intn(10) == 0 {
			a.Flag, a.Pos = genomics.FlagUnmapped, 0
		}
		whole.add(a)
		if err := region.Add(a); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	lo, hi := max(start, 1), min(end, ref.Len())
	var want []genomics.Variant
	for _, v := range whole.call() {
		if v.Pos >= lo && v.Pos <= hi {
			want = append(want, v)
		}
	}
	if got := region.Call(); !slices.Equal(got, want) {
		t.Fatalf("seed %d, region [%d, %d] of %d bases: calls\n%+v\nwant\n%+v", seed, start, end, ref.Len(), got, want)
	}
	for p := lo; p <= hi; p++ {
		if got, want := region.Depth(p-1), int(whole.depth[p-1]); got != want {
			t.Fatalf("seed %d, region [%d, %d]: depth %d at %d, want %d", seed, start, end, got, p, want)
		}
	}
}

func TestRegionCallerMatchesWholeReference(t *testing.T) {
	for seed := range int64(500) {
		r := rand.New(rand.NewSource(-seed))
		start := r.Intn(220) - 10
		checkRegionCaller(t, seed, start, start+r.Intn(120))
	}
}

func FuzzRegionCaller(f *testing.F) {
	f.Add(int64(1), 1, 1)
	f.Add(int64(2), 5, 60)
	f.Add(int64(3), -4, 300)
	f.Add(int64(4), 50, 40)
	f.Fuzz(func(t *testing.T, seed int64, start, end int) {
		checkRegionCaller(t, seed, start, end)
	})
}
