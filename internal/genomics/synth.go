package genomics

import (
	"fmt"
	"math/rand"
)

var bases = []byte("ACGT")

// GenerateReference produces a random reference sequence of length n with a
// seeded generator, so every experiment regenerates identical data.
func GenerateReference(rng *rand.Rand, name string, n int) Sequence {
	seq := make([]byte, n)
	for i := range seq {
		seq[i] = bases[rng.Intn(4)]
	}
	return Sequence{Name: name, Seq: seq}
}

// Mutation is a planted single-nucleotide variant.
type Mutation struct {
	Pos int // 0-based position in the reference
	Ref byte
	Alt byte
}

// PlantSNVs copies ref and substitutes count single-nucleotide variants at
// distinct random positions, returning the mutated sequence and the ground
// truth. The caller simulates reads from the mutated genome and checks the
// variant caller recovers the list.
func PlantSNVs(rng *rand.Rand, ref Sequence, count int) (Sequence, []Mutation) {
	if count > ref.Len() {
		count = ref.Len()
	}
	mut := Sequence{Name: ref.Name, Seq: append([]byte(nil), ref.Seq...)}
	positions := rng.Perm(ref.Len())[:count]
	muts := make([]Mutation, 0, count)
	for _, pos := range positions {
		old := mut.Seq[pos]
		alt := old
		for alt == old {
			alt = bases[rng.Intn(4)]
		}
		mut.Seq[pos] = alt
		muts = append(muts, Mutation{Pos: pos, Ref: old, Alt: alt})
	}
	// Sort by position for deterministic comparison.
	for i := 1; i < len(muts); i++ {
		for j := i; j > 0 && muts[j-1].Pos > muts[j].Pos; j-- {
			muts[j-1], muts[j] = muts[j], muts[j-1]
		}
	}
	return mut, muts
}

// ReadSimConfig controls read simulation.
type ReadSimConfig struct {
	Count     int     // number of reads
	Length    int     // bases per read
	ErrorRate float64 // per-base substitution error probability
}

// SimulateReads draws Count reads of Length bases uniformly from the
// genome, applying per-base substitution errors at ErrorRate. Base quality
// encodes the true error rate in Phred+33 (capped at Q40), as a real
// instrument would.
func SimulateReads(rng *rand.Rand, genome Sequence, cfg ReadSimConfig) ([]Read, error) {
	if cfg.Length <= 0 || cfg.Length > genome.Len() {
		return nil, fmt.Errorf("genomics: read length %d invalid for genome of %d bases",
			cfg.Length, genome.Len())
	}
	qual := phredChar(cfg.ErrorRate)
	reads := make([]Read, cfg.Count)
	for i := range reads {
		start := rng.Intn(genome.Len() - cfg.Length + 1)
		seq := make([]byte, cfg.Length)
		copy(seq, genome.Seq[start:start+cfg.Length])
		for j := range seq {
			if cfg.ErrorRate > 0 && rng.Float64() < cfg.ErrorRate {
				b := seq[j]
				for b == seq[j] {
					b = bases[rng.Intn(4)]
				}
				seq[j] = b
			}
		}
		quals := make([]byte, cfg.Length)
		for j := range quals {
			quals[j] = qual
		}
		reads[i] = Read{
			ID:   fmt.Sprintf("read-%06d:%d", i, start),
			Seq:  seq,
			Qual: quals,
		}
	}
	return reads, nil
}

// phredChar converts an error probability to a Phred+33 quality character,
// capped to Q40.
func phredChar(errRate float64) byte {
	if errRate <= 0 {
		return '!' + 40
	}
	q := 0
	p := errRate
	for p < 1 && q < 40 {
		p *= 10
		q += 10
	}
	// Refine by simple scaling: q is now a decade bound; interpolate down.
	// Accuracy is unimportant — quality strings only need to be plausible.
	if q > 40 {
		q = 40
	}
	return byte('!' + q)
}
