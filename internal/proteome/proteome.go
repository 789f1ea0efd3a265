package proteome

import (
	"fmt"
	"math/rand"
	"sort"
)

// Mass range of simulated fragment ions, in Daltons. Wide relative to the
// match tolerance, so fragments of unrelated peptides rarely collide and a
// spectrum's true peptide wins the search by a large margin.
const (
	minFragmentMass = 100.0
	maxFragmentMass = 1900.0
)

// fragmentsPerPeptide is the simulated fragment-ladder length.
const fragmentsPerPeptide = 10

// Peptide is one theoretical peptide: a named, ascending fragment-mass
// ladder tied to its parent protein.
type Peptide struct {
	Protein string
	Name    string
	Masses  []float64
}

// Database is the reference peptide index spectra are searched against —
// the role the FASTA reference plays for alignment.
type Database struct {
	Peptides []Peptide
}

// Proteins returns the number of distinct parent proteins.
func (db *Database) Proteins() int {
	seen := map[string]bool{}
	for _, p := range db.Peptides {
		seen[p.Protein] = true
	}
	return len(seen)
}

// GenerateDatabase builds a synthetic peptide database: proteins named
// P000, P001, … with peptidesPerProtein tryptic peptides each, every
// peptide carrying a random ascending fragment ladder. Seeded generation
// regenerates identical databases, like genomics.GenerateReference.
func GenerateDatabase(rng *rand.Rand, proteins, peptidesPerProtein int) Database {
	if proteins < 1 {
		proteins = 1
	}
	if peptidesPerProtein < 1 {
		peptidesPerProtein = 1
	}
	db := Database{Peptides: make([]Peptide, 0, proteins*peptidesPerProtein)}
	for p := 0; p < proteins; p++ {
		name := fmt.Sprintf("P%03d", p)
		for q := 0; q < peptidesPerProtein; q++ {
			masses := make([]float64, fragmentsPerPeptide)
			for i := range masses {
				masses[i] = minFragmentMass + rng.Float64()*(maxFragmentMass-minFragmentMass)
			}
			sort.Float64s(masses)
			db.Peptides = append(db.Peptides, Peptide{
				Protein: name,
				Name:    fmt.Sprintf("%s.pep%d", name, q),
				Masses:  masses,
			})
		}
	}
	return db
}

// Spectrum is one acquired MS/MS scan: an ascending peak list.
type Spectrum struct {
	ID    string
	Peaks []float64
}

// SimConfig controls spectrum simulation. The noise fields are used
// verbatim — zero means a clean acquisition (no spurious peaks, no
// dropout, no mass error); defaults, where wanted, belong to the caller
// (the daemon's spec layer resolves absent-vs-zero there, mirroring the
// read-simulation fields' tri-state convention).
type SimConfig struct {
	// Count is the number of spectra to simulate.
	Count int
	// NoisePeaks is the number of spurious peaks added per spectrum.
	NoisePeaks int
	// DropoutRate is the probability each true fragment peak is lost.
	DropoutRate float64
	// Jitter bounds the per-peak mass error in Daltons; keep it inside
	// the search tolerance.
	Jitter float64
}

// SimulateSpectra draws Count spectra from random database peptides,
// dropping fragments at DropoutRate, jittering surviving masses by ±Jitter
// and adding NoisePeaks random peaks — the acquisition noise a real search
// must see through. The returned truth slice holds each spectrum's source
// peptide index, the ground truth recovery tests score against.
func SimulateSpectra(rng *rand.Rand, db Database, cfg SimConfig) (spectra []Spectrum, truth []int, err error) {
	if len(db.Peptides) == 0 {
		return nil, nil, fmt.Errorf("proteome: empty peptide database")
	}
	if cfg.Count < 1 {
		return nil, nil, fmt.Errorf("proteome: spectrum count %d invalid", cfg.Count)
	}
	if cfg.NoisePeaks < 0 || cfg.DropoutRate < 0 || cfg.DropoutRate >= 1 || cfg.Jitter < 0 {
		return nil, nil, fmt.Errorf("proteome: invalid noise config %+v", cfg)
	}
	spectra = make([]Spectrum, 0, cfg.Count)
	truth = make([]int, 0, cfg.Count)
	for i := 0; i < cfg.Count; i++ {
		pi := rng.Intn(len(db.Peptides))
		pep := db.Peptides[pi]
		peaks := make([]float64, 0, len(pep.Masses)+cfg.NoisePeaks)
		for _, m := range pep.Masses {
			if rng.Float64() < cfg.DropoutRate {
				continue
			}
			peaks = append(peaks, m+(rng.Float64()*2-1)*cfg.Jitter)
		}
		for n := 0; n < cfg.NoisePeaks; n++ {
			peaks = append(peaks, minFragmentMass+rng.Float64()*(maxFragmentMass-minFragmentMass))
		}
		sort.Float64s(peaks)
		spectra = append(spectra, Spectrum{ID: fmt.Sprintf("spec%05d", i), Peaks: peaks})
		truth = append(truth, pi)
	}
	return spectra, truth, nil
}

// Config tunes the search.
type Config struct {
	// Tolerance is the fragment-mass match window in Daltons (default 0.5).
	Tolerance float64
	// MinScore is the matched-fraction floor below which a spectrum stays
	// unassigned (default 0.5).
	MinScore float64
}

func (c Config) withDefaults() Config {
	if c.Tolerance <= 0 {
		c.Tolerance = 0.5
	}
	if c.MinScore <= 0 {
		c.MinScore = 0.5
	}
	return c
}

// Match is one spectrum's search outcome.
type Match struct {
	// Spectrum is the searched spectrum's ID.
	Spectrum string
	// Peptide indexes the database peptide, -1 when unassigned.
	Peptide int
	// Score is the fraction of the peptide's fragments found in the
	// spectrum.
	Score float64
}

// Search assigns one spectrum to the best-covered database peptide under
// the rules of Index.Search. It builds a fragment-ion index per call; a
// stage searching many spectra builds one Index and reuses it.
func Search(db Database, sp Spectrum, cfg Config) Match {
	return NewIndex(db, cfg).Search(sp)
}

// ProteinQuant is one row of a ProteinTable: per-protein evidence gathered
// from spectrum matches.
type ProteinQuant struct {
	// Protein is the parent protein name.
	Protein string
	// Peptides counts distinct peptides with at least one matched spectrum.
	Peptides int
	// Spectra is the spectral count — matched spectra across the protein's
	// peptides.
	Spectra int
	// Abundance is the sum of match scores, the label-free quantification
	// proxy (zero in search-only mode).
	Abundance float64
}

// Quantify gathers per-spectrum matches into a protein table sorted by
// protein name: spectral counts, distinct peptide evidence, and summed
// match scores. Unassigned matches are dropped. The gather is associative,
// so per-shard match sets can be concatenated in any order first.
func Quantify(db Database, matches []Match) []ProteinQuant {
	type acc struct {
		peptides map[string]bool
		spectra  int
		score    float64
	}
	byProtein := map[string]*acc{}
	for _, m := range matches {
		if m.Peptide < 0 || m.Peptide >= len(db.Peptides) {
			continue
		}
		pep := db.Peptides[m.Peptide]
		a := byProtein[pep.Protein]
		if a == nil {
			a = &acc{peptides: map[string]bool{}}
			byProtein[pep.Protein] = a
		}
		a.peptides[pep.Name] = true
		a.spectra++
		a.score += m.Score
	}
	out := make([]ProteinQuant, 0, len(byProtein))
	for name, a := range byProtein {
		out = append(out, ProteinQuant{
			Protein:   name,
			Peptides:  len(a.peptides),
			Spectra:   a.spectra,
			Abundance: a.score,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Protein < out[j].Protein })
	return out
}
