package proteome

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Index is a fragment-ion index over a peptide database, the layout of
// MSFragger (Kong et al., Nature Methods 2017): every non-NaN fragment mass
// of every peptide in one ascending slice, so each spectrum peak finds the
// fragments it explains with one binary search instead of the spectrum
// being probed once per database fragment. It also numbers the database's
// proteins, which Quantify gathers by. NewIndex copies what it needs; the
// database and the searched spectra are never mutated, and an Index is
// safe for concurrent Search calls with distinct Scratches.
type Index struct {
	cfg Config
	// mass holds every non-NaN fragment mass, ascending; pep[j] is the
	// database index of the peptide mass[j] belongs to.
	mass []float64
	pep  []int32
	// ladder[i] is peptide i's fragment count, NaN masses included: the
	// denominator of its score.
	ladder []float64
	// proteins holds the distinct protein names, ascending; protein[i] is
	// peptide i's protein in it, and first[i] the first peptide with
	// peptide i's protein and name.
	proteins       []string
	protein, first []int32
}

// NewIndex builds the fragment-ion index of db under cfg.
func NewIndex(db Database, cfg Config) *Index {
	type fragment struct {
		mass float64
		pep  int32
	}
	n := 0
	for _, p := range db.Peptides {
		n += len(p.Masses)
	}
	frags := make([]fragment, 0, n)
	ix := &Index{cfg: cfg.withDefaults(), ladder: make([]float64, len(db.Peptides))}
	for i, p := range db.Peptides {
		ix.ladder[i] = float64(len(p.Masses))
		for _, m := range p.Masses {
			// A NaN mass is within tolerance of no peak: it never scores
			// but still counts in its peptide's ladder.
			if !math.IsNaN(m) {
				frags = append(frags, fragment{m, int32(i)})
			}
		}
	}
	slices.SortFunc(frags, func(a, b fragment) int { return cmp.Compare(a.mass, b.mass) })
	ix.mass = make([]float64, len(frags))
	ix.pep = make([]int32, len(frags))
	for j, f := range frags {
		ix.mass[j], ix.pep[j] = f.mass, f.pep
	}
	ix.number(db)
	return ix
}

// Scratch is the working memory Search reuses from spectrum to spectrum:
// a hit count per peptide and the list of peptides hit, both cleared
// before Search returns. One shard owns one Scratch and searches its
// spectra with it one at a time; the zero value is ready.
type Scratch struct {
	count []uint32
	hit   []int32
}

// Search assigns one spectrum to its best-covered peptide. A fragment m is
// present when some peak p lies in [m-Tolerance, m+Tolerance] (a NaN bound
// holds no peak); a peptide's score is the present fraction of its ladder;
// the highest score wins, ties going to the lower peptide index; and a
// best score below MinScore leaves the spectrum unassigned (Peptide -1,
// Score 0). The peaks must be ascending; NaN peaks match nothing and may
// lead, where sort.Float64s places them.
//
// Both window bounds are monotone in the sorted masses, so each peak's hits
// are one contiguous run. Peaks ascend, so the runs do too: each peak
// binary-searches for its run's start from where the previous run ended
// and walks the run, which counts every fragment once however the windows
// overlap. Each hit adds one to its peptide's count in s, and only the
// peptides hit are scored.
func (ix *Index) Search(sp Spectrum, s *Scratch) Match {
	if len(s.count) < len(ix.ladder) {
		s.count = make([]uint32, len(ix.ladder))
	}
	tol, n := ix.cfg.Tolerance, len(ix.mass)
	lo := 0
	for _, p := range sp.Peaks {
		if math.IsNaN(p) {
			continue
		}
		lo += sort.Search(n-lo, func(j int) bool { return ix.mass[lo+j]+tol >= p })
		// m-tol <= p, not !(m-tol > p): a NaN bound (+Inf mass at
		// infinite tolerance) must fall outside the window.
		for ; lo < n && ix.mass[lo]-tol <= p; lo++ {
			pep := ix.pep[lo]
			if s.count[pep] == 0 {
				s.hit = append(s.hit, pep)
			}
			s.count[pep]++
		}
	}
	m := Match{Spectrum: sp.ID, Peptide: -1}
	for _, pep := range s.hit {
		if score := float64(s.count[pep]) / ix.ladder[pep]; score > m.Score || score == m.Score && int(pep) < m.Peptide {
			m.Peptide, m.Score = int(pep), score
		}
		s.count[pep] = 0
	}
	s.hit = s.hit[:0]
	if m.Score < ix.cfg.MinScore {
		m.Peptide, m.Score = -1, 0
	}
	return m
}
