package proteome

import (
	"fmt"
	"math/rand"
	"slices"
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
	return NewIndex(db, cfg).Search(sp, new(Scratch))
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

// number ranks each peptide's protein among the distinct protein names
// and points each peptide at the first one of its (protein, name) pair, so
// Quantify gathers by index and never hashes a string.
func (ix *Index) number(db Database) {
	n := len(db.Peptides)
	ix.protein, ix.first = make([]int32, n), make([]int32, n)
	first := make(map[[2]string]int32, n)
	for i, p := range db.Peptides {
		ix.proteins = append(ix.proteins, p.Protein)
		key := [2]string{p.Protein, p.Name}
		if _, ok := first[key]; !ok {
			first[key] = int32(i)
		}
		ix.first[i] = first[key]
	}
	slices.Sort(ix.proteins)
	ix.proteins = slices.Compact(ix.proteins)
	for i, p := range db.Peptides {
		j, _ := slices.BinarySearch(ix.proteins, p.Protein)
		ix.protein[i] = int32(j)
	}
}

// Quantify gathers per-spectrum matches against the index's database into
// a protein table sorted by protein name: spectral counts, distinct
// peptide names, and match scores summed in match order. Unassigned
// matches, and any naming no peptide of the database, are dropped. The
// counts do not depend on the matches' order, so per-shard match sets can
// be concatenated in any order first; the sums are bit-identical when
// they are concatenated in spectrum order.
func (ix *Index) Quantify(matches []Match) []ProteinQuant {
	rows := make([]ProteinQuant, len(ix.proteins))
	seen := make([]bool, len(ix.first))
	for _, m := range matches {
		if m.Peptide < 0 || m.Peptide >= len(ix.protein) {
			continue
		}
		r := &rows[ix.protein[m.Peptide]]
		if f := ix.first[m.Peptide]; !seen[f] {
			seen[f] = true
			r.Peptides++
		}
		r.Spectra++
		r.Abundance += m.Score
	}
	out := rows[:0]
	for i, r := range rows {
		if r.Spectra > 0 {
			r.Protein = ix.proteins[i]
			out = append(out, r)
		}
	}
	return out
}
