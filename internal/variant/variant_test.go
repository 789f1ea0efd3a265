package variant

import (
	"math/rand"
	"testing"

	"scan/internal/align"
	"scan/internal/genomics"
)

func TestPileupAndCall(t *testing.T) {
	ref := genomics.Sequence{Name: "chr1", Seq: []byte("ACGTACGTAC")}
	c := NewCaller(ref, Config{MinDepth: 3, MinAltFraction: 0.5})
	// Five reads covering position 3 (0-based), all reading 'G' where the
	// reference has 'T'.
	for i := 0; i < 5; i++ {
		err := c.Add(genomics.Alignment{
			QName: "r", RName: "chr1", Pos: 3, CIGAR: "3M",
			Seq: []byte("GGA"), Qual: []byte("III"),
		})
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
	if v.Pos != 4 || v.Ref != "T" || v.Alt != "G" {
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
	c := NewCaller(ref, Config{MinDepth: 4, MinAltFraction: 0.3})
	for i := 0; i < 3; i++ {
		if err := c.Add(genomics.Alignment{
			QName: "r", RName: "chr1", Pos: 1, CIGAR: "4M",
			Seq: []byte("TTTT"), Qual: []byte("IIII"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if vars := c.Call(); len(vars) != 0 {
		t.Fatalf("called %d variants below MinDepth", len(vars))
	}
}

func TestCallRespectsAltFraction(t *testing.T) {
	ref := genomics.Sequence{Name: "chr1", Seq: []byte("AAAA")}
	c := NewCaller(ref, Config{MinDepth: 4, MinAltFraction: 0.5})
	add := func(seq string, n int) {
		for i := 0; i < n; i++ {
			if err := c.Add(genomics.Alignment{
				QName: "r", RName: "chr1", Pos: 1, CIGAR: "4M",
				Seq: []byte(seq), Qual: []byte("IIII"),
			}); err != nil {
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
	c := NewCaller(ref, Config{})
	if err := c.Add(genomics.Alignment{QName: "r", RName: "chr2", Pos: 1, CIGAR: "4M",
		Seq: []byte("ACGT"), Qual: []byte("IIII")}); err == nil {
		t.Fatal("wrong reference accepted")
	}
	if err := c.Add(genomics.Alignment{QName: "r", RName: "chr1", Pos: 7, CIGAR: "4M",
		Seq: []byte("ACGT"), Qual: []byte("IIII")}); err == nil {
		t.Fatal("overflowing read accepted")
	}
	if err := c.Add(genomics.Alignment{QName: "r", RName: "chr1", Pos: 1, CIGAR: "2M1I1M",
		Seq: []byte("ACGT"), Qual: []byte("IIII")}); err == nil {
		t.Fatal("indel CIGAR accepted")
	}
	// Unmapped records are silently skipped.
	if err := c.Add(genomics.Alignment{QName: "r", Flag: genomics.FlagUnmapped}); err != nil {
		t.Fatalf("unmapped record rejected: %v", err)
	}
	// N bases contribute no evidence but are not an error.
	if err := c.Add(genomics.Alignment{QName: "r", RName: "chr1", Pos: 1, CIGAR: "4M",
		Seq: []byte("ANGT"), Qual: []byte("IIII")}); err != nil {
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
	caller := NewCaller(ref, Config{MinDepth: 8, MinAltFraction: 0.6})
	mapped := 0
	for _, r := range reads {
		aln := aligner.AlignRead(r)
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
		if v, ok := calledAt[m.Pos]; ok && v.Alt == string(m.Alt) && v.Ref == string(m.Ref) {
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
	c := NewCaller(ref, Config{MinDepth: 1, MinAltFraction: 0.1})
	for i := 0; i < 600; i++ {
		if err := c.Add(genomics.Alignment{QName: "r", RName: "chr1", Pos: 1, CIGAR: "4M",
			Seq: []byte("TTTT"), Qual: []byte("IIII")}); err != nil {
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

func BenchmarkPileup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ref := genomics.GenerateReference(rng, "chr1", 50000)
	reads, err := genomics.SimulateReads(rng, ref, genomics.ReadSimConfig{Count: 5000, Length: 100})
	if err != nil {
		b.Fatal(err)
	}
	alns := make([]genomics.Alignment, len(reads))
	for i, r := range reads {
		// Reads are exact substrings; reconstruct position from ID suffix.
		alns[i] = genomics.Alignment{
			QName: r.ID, RName: "chr1", Pos: 1, CIGAR: "100M",
			Seq: r.Seq, Qual: r.Qual,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCaller(ref, Config{})
		for _, a := range alns {
			if err := c.Add(a); err != nil {
				b.Fatal(err)
			}
		}
		c.Call()
	}
}
