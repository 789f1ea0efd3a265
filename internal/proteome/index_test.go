package proteome

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// bruteSearch is the per-peptide scan the fragment-ion index replaced,
// kept as the reference the index must agree with: every fragment of every
// peptide probes the spectrum with one binary search.
func bruteSearch(db Database, sp Spectrum, cfg Config) Match {
	cfg = cfg.withDefaults()
	m := Match{Spectrum: sp.ID, Peptide: -1}
	for i, pep := range db.Peptides {
		hits := 0
		for _, mass := range pep.Masses {
			if hasPeakNear(sp.Peaks, mass, cfg.Tolerance) {
				hits++
			}
		}
		if len(pep.Masses) == 0 {
			continue
		}
		score := float64(hits) / float64(len(pep.Masses))
		if score > m.Score {
			m.Peptide, m.Score = i, score
		}
	}
	if m.Score < cfg.MinScore {
		m.Peptide, m.Score = -1, 0
	}
	return m
}

// hasPeakNear reports whether the ascending peak list holds a peak within
// tol of mass (binary search).
func hasPeakNear(peaks []float64, mass, tol float64) bool {
	i := sort.SearchFloat64s(peaks, mass-tol)
	return i < len(peaks) && peaks[i] <= mass+tol
}

// sameMatch compares two matches exactly; both sides compute a score as
// the same integer ratio, so no rounding slack is allowed.
func sameMatch(a, b Match) bool {
	return a.Spectrum == b.Spectrum && a.Peptide == b.Peptide && a.Score == b.Score
}

// specialMass returns one of the non-finite values a library caller can
// put in a ladder or a peak list.
func specialMass(rng *rand.Rand) float64 {
	return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
}

// randomDatabase draws a database whose masses come from one of three
// regimes: uniform over the fragment range, snapped to a coarse grid (ties
// across peptides, duplicates within one), or at 1e15 and above, where a
// sub-Dalton tolerance vanishes under rounding. Ladders may be empty and,
// when special is set, may hold NaN and ±Inf.
func randomDatabase(rng *rand.Rand, special bool) Database {
	var mass func() float64
	switch rng.Intn(3) {
	case 0:
		mass = func() float64 { return minFragmentMass + rng.Float64()*(maxFragmentMass-minFragmentMass) }
	case 1:
		grid := []float64{0.5, 1, 5}[rng.Intn(3)]
		mass = func() float64 { return minFragmentMass + grid*float64(rng.Intn(40)) }
	default:
		mass = func() float64 { return 1e15 * (1 + float64(rng.Intn(64))) }
	}
	db := Database{Peptides: make([]Peptide, rng.Intn(30))}
	for i := range db.Peptides {
		masses := make([]float64, rng.Intn(12))
		for j := range masses {
			masses[j] = mass()
			if special && rng.Intn(8) == 0 {
				masses[j] = specialMass(rng)
			}
		}
		// Decoded and generated ladders are sorted; library-built ones
		// need not be.
		if rng.Intn(4) != 0 {
			sort.Float64s(masses)
		}
		db.Peptides[i] = Peptide{Protein: "P", Name: "p", Masses: masses}
	}
	return db
}

// randomSpectrum draws peaks around a random peptide's fragments: on the
// fragment, exactly on either window bound, one ulp outside it, jittered,
// or duplicated, plus noise and (when special is set) non-finite peaks.
// Peaks are sorted as the decoder sorts them, NaNs first.
func randomSpectrum(rng *rand.Rand, db Database, tol float64, special bool) Spectrum {
	var peaks []float64
	if len(db.Peptides) > 0 && rng.Intn(6) != 0 {
		for _, m := range db.Peptides[rng.Intn(len(db.Peptides))].Masses {
			var p float64
			switch rng.Intn(7) {
			case 0:
				continue // dropout
			case 1:
				p = m - tol
			case 2:
				p = m + tol
			case 3:
				p = math.Nextafter(m-tol, math.Inf(-1))
			case 4:
				p = math.Nextafter(m+tol, math.Inf(1))
			case 5:
				p = m + (rng.Float64()*2-1)*tol
			default:
				p = m
			}
			peaks = append(peaks, p)
			if rng.Intn(4) == 0 {
				peaks = append(peaks, p)
			}
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		peaks = append(peaks, minFragmentMass+rng.Float64()*(maxFragmentMass-minFragmentMass))
	}
	if special && rng.Intn(3) == 0 {
		peaks = append(peaks, specialMass(rng))
	}
	sort.Float64s(peaks)
	return Spectrum{ID: "s", Peaks: peaks}
}

// TestIndexMatchesBruteForce quick-checks Index.Search against the
// per-peptide scan it replaced on randomised databases, tolerances, score
// floors and spectra, including the edge cases where an off-by-one in
// the window bounds, a double-counted fragment or a tie broken the wrong
// way would show.
func TestIndexMatchesBruteForce(t *testing.T) {
	const cases, spectraPerCase = 400, 25
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		special := c%3 == 0
		db := randomDatabase(rng, special)
		cfg := Config{
			// 0 resolves to the 0.5 Da default; at +Inf a +Inf fragment's
			// lower bound is Inf-Inf, a NaN no peak lies above.
			Tolerance: []float64{0, 0.01, 0.5, 1.5, 7, math.Inf(1)}[rng.Intn(6)],
			MinScore:  []float64{0, 0.05, 0.5, 1}[rng.Intn(4)],
		}
		tol := cfg.withDefaults().Tolerance
		ix := NewIndex(db, cfg)
		for s := 0; s < spectraPerCase; s++ {
			sp := randomSpectrum(rng, db, tol, special)
			if got, want := ix.Search(sp), bruteSearch(db, sp, cfg); !sameMatch(got, want) {
				t.Fatalf("case %d spectrum %d (tol %v, min %v): index %+v, brute force %+v\ndb %+v\npeaks %v",
					c, s, cfg.Tolerance, cfg.MinScore, got, want, db, sp.Peaks)
			}
		}
	}
}

// TestIndexDoesNotMutate checks the index copies what it needs: the
// registry aliases the database and spectra it hands a stage, so neither
// may change under a search — not even an unsorted ladder.
func TestIndexDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := GenerateDatabase(rng, 4, 2)
	spectra, _, err := SimulateSpectra(rng, db, SimConfig{Count: 20, NoisePeaks: 3, Jitter: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ladder := db.Peptides[1].Masses
	ladder[3], ladder[7] = ladder[7], ladder[3]
	var live, saved [][]float64
	for _, p := range db.Peptides {
		live = append(live, p.Masses)
	}
	for _, sp := range spectra {
		live = append(live, sp.Peaks)
	}
	for _, l := range live {
		saved = append(saved, slices.Clone(l))
	}
	ix := NewIndex(db, Config{})
	for _, sp := range spectra {
		ix.Search(sp)
	}
	for i := range live {
		if !slices.Equal(live[i], saved[i]) {
			t.Fatalf("input slice %d changed: %v -> %v", i, saved[i], live[i])
		}
	}
}

// TestIndexSearchAllocs holds the per-spectrum search to zero allocations
// on the simulated acquisition: its hits fit the stack scratch.
func TestIndexSearchAllocs(t *testing.T) {
	db, spectra := benchData(t)
	ix := NewIndex(db, Config{})
	allocs := testing.AllocsPerRun(2, func() {
		for _, sp := range spectra {
			ix.Search(sp)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per 1 500 searches, want 0", allocs)
	}
}

// FuzzIndexSearch runs the brute-force comparison on fuzzed databases and
// sorted peak lists. The bytes after the two header bytes are 16-bit
// values: a value of 0xFFFF ends a peptide's ladder (the first
// header byte counts peptides), values from 0xFFF0 are NaN, +Inf or -Inf,
// and the rest scale by a unit chosen by the second header byte — a grid
// fine enough for window-bound collisions, or masses of 1e12 Da and up.
func FuzzIndexSearch(f *testing.F) {
	f.Add([]byte{2, 0, 0x10, 0, 0x20, 0, 0xFF, 0xFF, 0x10, 0, 0x10, 0x20, 0xFF, 0xFF, 0x10, 0, 0x10, 0}, 0.5, 0.5)
	f.Add([]byte{3, 1, 1, 0, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xF1, 0xFF, 1, 0, 0xF0, 0xFF, 1, 0}, 1.0, 0.1)
	f.Add([]byte{1, 2, 4, 0, 0xFF, 0xFF, 4, 0, 4, 0}, 0.01, 0.0)
	f.Add([]byte{0, 0}, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, data []byte, tol, minScore float64) {
		if len(data) < 2 {
			return
		}
		unit := []float64{1.0 / 64, 0.25, 1, 1e12}[data[1]%4]
		peptides := int(data[0] % 32)
		var db Database
		var cur []float64
		var peaks []float64
		for rest := data[2:]; len(rest) >= 2; rest = rest[2:] {
			v := binary.LittleEndian.Uint16(rest)
			var m float64
			switch {
			case v == 0xFFFF:
				if len(db.Peptides) < peptides {
					db.Peptides = append(db.Peptides, Peptide{Masses: cur})
					cur = nil
				}
				continue
			case v >= 0xFFF0:
				m = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[v%3]
			default:
				m = float64(v) * unit
			}
			if len(db.Peptides) < peptides {
				cur = append(cur, m)
			} else {
				peaks = append(peaks, m)
			}
		}
		sort.Float64s(peaks)
		sp := Spectrum{ID: "fuzz", Peaks: peaks}
		cfg := Config{Tolerance: tol, MinScore: minScore}
		if got, want := NewIndex(db, cfg).Search(sp), bruteSearch(db, sp, cfg); !sameMatch(got, want) {
			t.Fatalf("tol %v min %v: index %+v, brute force %+v\ndb %+v\npeaks %v", tol, minScore, got, want, db, peaks)
		}
	})
}

// benchData is the benchmark's batch-families proteome job: 200 proteins
// of 3 peptides and 1 500 spectra under the daemon's acquisition noise.
func benchData(tb testing.TB) (Database, []Spectrum) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	db := GenerateDatabase(rng, 200, 3)
	spectra, _, err := SimulateSpectra(rng, db, SimConfig{
		Count: 1500, NoisePeaks: 3, DropoutRate: 0.1, Jitter: 0.1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return db, spectra
}

// Benchmark results land in package-level sinks so the compiler cannot
// drop the measured calls.
var (
	matchSink Match
	indexSink *Index
)

func BenchmarkSearch(b *testing.B) {
	db, spectra := benchData(b)
	ix := NewIndex(db, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sp := range spectra {
			matchSink = ix.Search(sp)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(spectra)), "ns/spectrum")
}

func BenchmarkNewIndex(b *testing.B) {
	db, _ := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = NewIndex(db, Config{})
	}
}
