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
// fragments it explains with two binary searches instead of the spectrum
// being probed once per database fragment. NewIndex copies what it needs;
// the database and the searched spectra are never mutated, and an Index is
// safe for concurrent Search calls.
type Index struct {
	cfg Config
	// mass holds every non-NaN fragment mass, ascending; pep[j] is the
	// database index of the peptide mass[j] belongs to.
	mass []float64
	pep  []int32
	// ladder[i] is peptide i's fragment count, NaN masses included: the
	// denominator of its score.
	ladder []float64
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
	return ix
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
// are one contiguous run [lo, hi). Peaks ascend, so the runs do too: each
// search starts where the previous peak's run ended, which counts every
// fragment once however the windows overlap. Hits are then grouped by
// peptide in ascending order; the scratch is a stack buffer unless a
// spectrum hits more than 128 fragments.
func (ix *Index) Search(sp Spectrum) Match {
	tol, n := ix.cfg.Tolerance, len(ix.mass)
	var buf [128]int32
	hits := buf[:0]
	lo := 0
	for _, p := range sp.Peaks {
		if math.IsNaN(p) {
			continue
		}
		lo += sort.Search(n-lo, func(j int) bool { return ix.mass[lo+j]+tol >= p })
		// The negated window test, not m-tol > p: a NaN bound (+Inf mass
		// at infinite tolerance) must fall outside the window.
		hi := lo + sort.Search(n-lo, func(j int) bool { return !(ix.mass[lo+j]-tol <= p) })
		hits = append(hits, ix.pep[lo:hi]...)
		lo = hi
	}
	slices.Sort(hits)
	m := Match{Spectrum: sp.ID, Peptide: -1}
	for i := 0; i < len(hits); {
		j := i + 1
		for j < len(hits) && hits[j] == hits[i] {
			j++
		}
		if score := float64(j-i) / ix.ladder[hits[i]]; score > m.Score {
			m.Peptide, m.Score = int(hits[i]), score
		}
		i = j
	}
	if m.Score < ix.cfg.MinScore {
		m.Peptide, m.Score = -1, 0
	}
	return m
}
